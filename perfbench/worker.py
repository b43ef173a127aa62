"""One workload in one process: set-up, timed repetitions, correctness checks,
and either the end-to-end metrics (``--trace 0``) or a traced run's
per-layer metrics (``--trace 1``).  Started by ``run.py`` with every thread
pool pinned to one thread; it must run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from run import DEFAULT_SEED, HERE, PINNED_ENV, WORKLOADS

import numpy as np  # noqa: E402  (after the launcher's constants, before the program)

import tracer as tracing  # noqa: E402
from hostspeed import HostSpeedSampler  # noqa: E402
from workloads import WORKLOADS as DEFINITIONS  # noqa: E402

REFERENCE = HERE / "reference.json"
OUT_ROOT = HERE / "out"


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git; 'unknown' outside a clone."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment_header(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "commit": git_commit(Path.cwd()),
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def import_program() -> None:
    """Import graphbandit afresh from the checkout's src/ (dropping any earlier import)."""
    src = Path.cwd() / "src"
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "graphbandit" or m.startswith("graphbandit.")]:
        del sys.modules[name]
    import graphbandit
    from graphbandit import environment, estimator, experts, graph, harness, oracles, policies  # noqa: F401

    if Path(graphbandit.__file__).resolve().parent != (src / "graphbandit").resolve():
        raise SystemExit(f"imported graphbandit from {graphbandit.__file__}, not from {src}")


def timed_setups(definition, inputs, repeats: int, sampler: HostSpeedSampler) -> tuple[list[float], float, object]:
    """Set up ``repeats`` times, each from a fresh import.  Returns the
    measured times, the host slowdown over them, and the last state."""
    times = []
    state = None
    first = sampler.mark()
    for _ in range(repeats):
        started = sampler.clock()
        import_program()
        state = definition.setup(inputs)
        times.append(sampler.clock() - started)
    return times, sampler.slowdown(first), state


def repeat(definition, state, out_dir: Path, seconds: float, sampler: HostSpeedSampler | None = None) -> list:
    """Whole repetitions until ``seconds`` of wall time have passed (at least
    one).  With a sampler, each records the host slowdown while it ran."""
    outcomes = []
    clock = sampler.clock if sampler else time.perf_counter
    started = time.perf_counter()
    while True:
        first = sampler.mark() if sampler else 0
        outcome = definition.run(state, out_dir, clock)
        if sampler:
            outcome.slowdown = sampler.slowdown(first)
        outcomes.append(outcome)
        if time.perf_counter() - started >= seconds:
            return outcomes


def raw_rate(outcomes) -> float:
    return statistics.median(o.work / o.timed_s for o in outcomes)


def nominal_rate(outcomes) -> float:
    """Median rate at nominal host speed."""
    return statistics.median(o.work / o.timed_s * o.slowdown for o in outcomes)


def check_outcomes(workload: str, seed: int, outcomes, reference: dict | None) -> list[str]:
    """Repetitions must agree with each other and, on the default seed, with
    the stored reference digests."""
    problems = []
    first = outcomes[0].digests
    for index, outcome in enumerate(outcomes[1:], start=1):
        for label in first:
            if outcome.digests.get(label) != first[label]:
                problems.append(f"repetition {index} differs from repetition 0 on {label}")
    if seed == DEFAULT_SEED:
        expected = (reference or {}).get(workload)
        if expected is None:
            problems.append(f"no reference digests stored for {workload}")
        else:
            for label in sorted(set(expected) | set(first)):
                if expected.get(label) != first.get(label):
                    problems.append(f"{label}: outputs differ from the stored reference digests")
    return problems


def tally(outcomes, extra_problems: list[str]) -> tuple[int, int, list[str]]:
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if extra_problems:  # a mismatch fails every operation it covers
        failed = attempted
    problems = [p for o in outcomes for p in o.problems] + extra_problems
    return attempted, failed, problems


def parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's digests as the reference (default seed only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    definition = DEFINITIONS[args.workload]
    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    header = environment_header(args)
    for key, value in header.items():
        print(f"# {key}: {value}")

    inputs = definition.generate(args.seed, out_dir)
    traced = []
    if args.trace:
        # Raw timings, untraced and traced repetitions alternating so that
        # host drift hits both alike; a probe would land inside spans.
        import_program()
        state = definition.setup(inputs)
        setup_times = []
        tracer = tracing.Tracer()
        started = time.perf_counter()
        with tracer.installed():
            traced_state = definition.setup(inputs)
        lo, setup_counts = tracer.mark()
        traced_s = time.perf_counter() - started
        outcomes = []
        started = time.perf_counter()
        while not outcomes or time.perf_counter() - started < args.seconds:
            outcomes.append(definition.run(state, out_dir, time.perf_counter))
            with tracer.installed():
                begun = time.perf_counter()
                traced.append(definition.run(traced_state, out_dir / "traced", time.perf_counter))
                traced_s += time.perf_counter() - begun
        tracer.save(out_dir / "spans.npz")
        metrics = tracing.per_layer_metrics(
            setup=tracer.spans(0, lo), setup_counts=setup_counts,
            reps=tracer.spans(lo), rep_counts=tracer.counters, n_reps=len(traced),
            checks_failed=sum(o.failed for o in traced) / len(traced) if args.workload == "oracle" else 0,
            traced_s=traced_s, traced_rate=raw_rate(traced),
            overhead=statistics.median(
                (t.work / t.timed_s) / (u.work / u.timed_s) for t, u in zip(traced, outcomes)
            ),
        )
    else:
        with HostSpeedSampler() as sampler:
            setup_times, setup_slowdown, state = timed_setups(definition, inputs, definition.setup_repeats, sampler)
            outcomes = repeat(definition, state, out_dir, args.seconds, sampler)
        setup_s = statistics.median(setup_times) / setup_slowdown
        metrics = {
            "work_per_s": {"value": nominal_rate(outcomes), "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    report = {"header": header, "setup_times_s": setup_times,
              "raw_rates": [o.work / o.timed_s for o in outcomes], "slowdowns": [o.slowdown for o in outcomes]}

    all_outcomes = outcomes + traced
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else None
    if args.write_reference:
        if args.seed != DEFAULT_SEED:
            raise SystemExit("--write-reference needs the default seed")
        reference = reference or {}
        reference[args.workload] = outcomes[0].digests
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    problems = check_outcomes(args.workload, args.seed, all_outcomes, reference)
    attempted, failed, problems = tally(all_outcomes, problems)

    throughput = "draws_per_s" if args.workload == "oracle" else "rounds_per_s"
    print(f"workload {args.workload}: {len(outcomes)} untraced repetitions"
          + (f", {len(traced)} traced" if traced else ""))
    if args.trace:
        print(f"  {throughput} = {raw_rate(outcomes):.6g} 1/s untraced, "
              f"{metrics['trace.work_per_s']['value']:.6g} 1/s traced "
              f"(overhead ratio {metrics['trace.overhead']['value']:.4f})")
    else:
        slowdowns = ", ".join(f"{o.slowdown:.3f}" for o in outcomes)
        print(f"  {throughput} = {metrics['work_per_s']['value']:.6g} 1/s at nominal host speed "
              f"({raw_rate(outcomes):.6g} 1/s as run; host slowdown per repetition {slowdowns})")
        print(f"  setup_s = {setup_s:.6g} s at nominal host speed "
              f"(median of {len(setup_times)} set-ups from a fresh import: "
              f"{statistics.median(setup_times):.6g} s as run, host slowdown {setup_slowdown:.3f})")
        print(f"  peak_rss_mb = {metrics['peak_rss_mb']['value']:.6g} MB")
    print(f"  failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    for abort in sorted({a for o in all_outcomes for a in o.aborts}):
        print(f"  aborted: {abort}")
    for problem in problems:
        print(f"  MISMATCH: {problem}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    report.update(result=result, problems=problems, digests=outcomes[0].digests)
    (out_dir / "report.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
