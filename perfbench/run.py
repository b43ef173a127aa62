"""Benchmark entry point for graphbandit.

Runs one workload, or all four, each in its own worker process pinned to a
single thread (``GRAPHBANDIT_THREADS=1`` and every BLAS/OpenMP pool at 1),
and relays the worker's report.  Run it from the repository root::

    python3 perfbench/run.py                                  # all workloads
    python3 perfbench/run.py --workload dense-k10 --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a traced run.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("dense-k10", "sparse-k50-doubling", "dataset-k9", "oracle")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
# A worker that runs longer than this is stopped, so a run always ends
# within three minutes.
WORKER_TIMEOUT_S = 170
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "GRAPHBANDIT_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default seed's output digests in perfbench/reference.json")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_worker(workload: str, args: argparse.Namespace) -> tuple[int, list[str]]:
    """Run one workload in a pinned worker; return (exit code, stdout lines)."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ] + (["--write-reference"] if args.write_reference else [])
    env = {**os.environ, **PINNED_ENV}
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 124, []
    return done.returncode, done.stdout.splitlines()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path("src/graphbandit/__init__.py").is_file():
        print("perfbench: src/graphbandit not found; run from the root of a graphbandit checkout", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        code, lines = run_worker(workload, args)
        for line in lines[:-1] if code == 0 else lines:
            print(line)
        if code != 0:
            print(f"perfbench: workload {workload} failed with exit code {code}", file=sys.stderr)
            return code
        results[workload] = json.loads(lines[-1])
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
        return 0
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
