"""Mutation gate: the suite must tell a wrong learner from a right one without its pinned digests.

Each mutant below is a one-line change to ``src/graphbandit``: (file, exact old text, new text).  For each,
the script copies ``src/`` to a temporary directory, applies the mutant there (the old text must occur
exactly once) and runs the tests with ``-x`` against the copy.  It leaves out the pins, which catch any
change of bits and so would kill every mutant alike (``test_golden_outputs.py``, the snapshot-text fixtures
and the wide-dataset digests), and ``test_acceptance.py``, whose statistical criteria take over half of
the suite's time.  The learner, scheduler and environment unit files run first, since they kill most
mutants; the others follow in name order, so no test is dropped.  A mutant is killed when a test fails, and
the script prints the first failing test's id.  Any failure counts, so the gate means something only where
tier-1 passes on the unmutated code; run it after tier-1.  The script exits 1 if any mutant survives.

Standard library only.  Run from anywhere:

    python tests/mutants.py

A change to a kernel adds a mutant for it here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

MUTANTS = {
    # exp3-up's doubling floor with ln 2K in place of ln 4K.
    "up-floor-ln-2k": ("schedulers.py", "math.log(4 * k))", "math.log(2 * k))"),
    # exp3-up and exp3-gr record a round's activations before they estimate its losses.
    "record-before-estimate": (
        "policies.py",
        "        values = self._estimates(fired, losses, extras)\n"
        "        # Recorded after estimating, so the round's estimates read only earlier rounds.\n"
        "        self._store._record(chosen - 1, hits)\n",
        "        self._store._record(chosen - 1, hits)\n"
        "        values = self._estimates(fired, losses, extras)\n",
    ),
    # The uninformative doubling restart keeps the weights.
    "restart-keeps-weights": (
        "policies.py",
        "            self._enter_epoch(epoch)\n            self._log_weights = np.zeros(self._k)\n",
        "            self._enter_epoch(epoch)\n",
    ),
    # The uniform exploration split as eta * (1/|D|).
    "uniform-split": ("policies.py", "eta / dom.size", "eta * (1 / dom.size)"),
    # exp3-up's inflation xi/M for xi/sqrt(M).
    "inflation-over-m": ("policies.py", "xi / math.sqrt(self._min_obs)", "xi / self._min_obs"),
    # The informed doubling load's 1/2 as 1.
    "load-half": ("schedulers.py", "load = 1.0 + 0.5 * float(", "load = 1.0 + 1.0 * float("),
    # exp3-gr's doubling floor with sqrt(2^b) for sqrt(2^(b-1)).
    "gr-floor-sqrt": ("schedulers.py", "math.sqrt(2.0 ** (b - 1))", "math.sqrt(2.0 ** b)"),
    # No cap on the resampling trial count.
    "trial-cap": ("policies.py", "    hit[:, -1] = 1  # no success in the first M-1 trials counts as M\n", ""),
    # exp3-up's xi with ln(K 2^(b+2)) for ln(K 2^(b+3)).
    "xi-log": ("schedulers.py", "math.log(k * 2.0 ** (b + 3))", "math.log(k * 2.0 ** (b + 2))"),
    # The episode's activations read the chosen expert's probability row backwards.
    "feedback-row": ("environment.py", "< self._rows[chosen - 1]\n", "< self._rows[chosen - 1][::-1]\n"),
}

LEFT_OUT = ("test_golden_outputs.py", "test_acceptance.py")
PINS = "not snapshot_text_and_resume_are_unchanged and not test_wide_dataset_loss_table_digest"
# Run first, since they kill most mutants.  Every file is named: pytest would put a file named beside its
# directory back in the directory's order.
FIRST = ("test_policies.py", "test_schedulers.py", "test_environment.py")


def gate_files() -> list:
    """The files the gate runs, ``FIRST`` first, as paths relative to the repository."""
    rest = sorted(path.name for path in (REPO / "tests").glob("test_*.py") if path.name not in LEFT_OUT + FIRST)
    return [f"tests/{name}" for name in FIRST + tuple(rest)]


def run_mutant(name: str) -> bool:
    """Apply mutant ``name`` to a copy of ``src/`` and run the tests there; True if a test failed."""
    file, old, new = MUTANTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "graphbandit" / file
        text = path.read_text()
        if text.count(old) != 1:
            sys.exit(f"{name}: its old text occurs {text.count(old)} times in {file}, not once; update the mutant")
        path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        where = subprocess.run([sys.executable, "-c", "import graphbandit; print(graphbandit.__file__)"],
                               env=env, capture_output=True, text=True, check=True).stdout.strip()
        if not Path(where).is_relative_to(src):
            sys.exit(f"{name}: the tests would import graphbandit from {where}, not from the mutated copy")
        start = time.perf_counter()
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-k", PINS, *gate_files()]
        done = subprocess.run(command, cwd=REPO, env=env, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines() or [""]
        summary = lines[-1]
        failed = next((line for line in lines if line.startswith(("FAILED ", "ERROR "))), "")
        if done.returncode not in (0, 1):
            sys.exit(f"{name}: pytest exited {done.returncode}: {summary}\n{done.stderr[-2000:]}")
        killed = done.returncode == 1
        print(f"{name}: {'killed' if killed else 'SURVIVED'} in {time.perf_counter() - start:.0f} s: {summary}",
              flush=True)
        if failed:
            print(f"  {failed}", flush=True)
        return killed


def main() -> int:
    survivors = [name for name in MUTANTS if not run_mutant(name)]
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed"
          + (f"; survivors: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
