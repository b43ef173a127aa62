"""The benchmark's four workloads.

Each workload has three parts:

* ``generate(seed, work_dir)`` makes the inputs from the seed, without the
  program (its time is not part of any metric);
* ``setup(inputs)`` is the program's own set-up before the first timed call
  (reading and training on the dataset, building graphs, validating the
  ``ExperimentConfig``s);
* ``run(state, out_dir, clock)`` is one repetition: the timed calls into
  the program, timed with ``clock``, then the correctness checks on
  everything it produced.

Program functions are always looked up through their module at call time,
so the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

HORIZON = 20_000
MIN_OBSERVATIONS = 25
ORACLE_DRAWS = 200_000
ORACLE_MAX_STDERRS = 4.0
DENSE_LEARNERS = ("exp3", "exp3-ip", "exp3-up", "exp3-gr")
SPARSE_K = 50
DATASET_ROWS = 10_000


@dataclass
class Outcome:
    """What one repetition did and whether its outputs were correct."""

    work: int = 0  # learner-rounds completed, or oracle draws x checks
    timed_s: float = 0.0
    slowdown: float = 1.0  # host slowdown while it ran (see hostspeed.py)
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)  # correctness mismatches
    aborts: list = field(default_factory=list)  # episodes the program aborted


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup_repeats: int
    generate: Callable[[int, Path], dict]  # (seed, work dir) -> inputs
    setup: Callable[[dict], object]  # inputs -> state for run
    run: Callable[[object, Path, Callable[[], float]], Outcome]  # (state, output dir, clock) -> one repetition


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Experiment workloads
# ---------------------------------------------------------------------------


def _experiment_digests(result, emit_dir: Path) -> dict:
    return {
        "results.csv": sha256((emit_dir / "results.csv").read_bytes()),
        "summary.csv": sha256((emit_dir / "summary.csv").read_bytes()),
        "loss_digests": {a: list(d) for a, d in result.loss_digests.items()},
        "p_tables": [sha256(np.ascontiguousarray(t).tobytes()) for t in result.p_tables],
    }


def _check_values(label: str, result) -> list[str]:
    problems = []
    for algorithm, values in result.per_run.items():
        if not np.isfinite(values).all():
            problems.append(f"{label}/{algorithm}: non-finite {result.metric}")
        elif result.metric == "mse" and ((values < 0).any() or (values > 1).any()):
            problems.append(f"{label}/{algorithm}: running MSE outside [0, 1]")
    return problems


def _check_common_losses(outcome: Outcome, completed: dict) -> None:
    """Every algorithm of a run, in every experiment of the repetition, must
    have faced the same loss table (common random numbers)."""
    per_run: dict[int, set] = {}
    for result in completed.values():
        for digests in result.loss_digests.values():
            for run, digest in enumerate(digests):
                per_run.setdefault(run, set()).add(digest)
    for run, seen in sorted(per_run.items()):
        if len(seen) != 1:
            outcome.problems.append(f"run {run}: {len(seen)} different loss tables across algorithms")
            outcome.failed = outcome.attempted


def run_experiments(configs, out_dir: Path, clock=time.perf_counter) -> Outcome:
    """Time ``run_experiment`` on each labelled config, then emit and check."""
    from graphbandit import harness

    outcome = Outcome()
    completed = {}
    for label, cfg in configs:
        episodes = cfg.runs * len(cfg.algorithms)
        outcome.attempted += episodes
        started = clock()
        try:
            result = harness.run_experiment(cfg)
        except Exception as exc:  # an aborted episode is a failed operation, not a crash
            outcome.timed_s += clock() - started
            outcome.failed += episodes
            message = f"{type(exc).__name__}: {exc}"
            outcome.aborts.append(f"{label}: {message}")
            outcome.digests[label] = {"error": message}
            continue
        outcome.timed_s += clock() - started
        outcome.work += episodes * cfg.effective_horizon
        emit_dir = out_dir / label
        harness.emit_results(result, emit_dir)
        outcome.digests[label] = _experiment_digests(result, emit_dir)
        problems = _check_values(label, result)
        if problems:
            outcome.problems.extend(problems)
            outcome.failed += episodes
        completed[label] = result
    _check_common_losses(outcome, completed)
    return outcome


def _no_inputs(seed: int, work_dir: Path) -> dict:
    return {"seed": seed}


def _dense_setup(inputs: dict):
    from graphbandit import environment, graph, harness, schedulers

    cfg = harness.ExperimentConfig(
        algorithms=DENSE_LEARNERS,
        graph=graph.NominalGraph.complete(10),
        prob_generator=("equal", 0.25),
        adversary=environment.StochasticGapAdversary(gap=0.1),
        horizon=HORIZON,
        runs=1,
        schedule=schedulers.InverseSqrtEta(),
        min_observations=MIN_OBSERVATIONS,
        confidence_width=1.0,
        seed=inputs["seed"],
    )
    return [("all", cfg)]


def sparse_adjacency(seed: int) -> np.ndarray:
    """K=50 digraph with self-loops.  Expert i (0-based) has 1 + (7i mod 9)
    other out-neighbours, from 1 to 9 and 246 in all (density 0.1), drawn
    uniformly from the seed.  Out-degrees vary across experts but not across
    seeds, which keeps the work per round comparable from seed to seed."""
    rng = np.random.default_rng([seed, SPARSE_K])
    adjacency = np.eye(SPARSE_K, dtype=bool)
    for i in range(SPARSE_K):
        others = np.delete(np.arange(SPARSE_K), i)
        adjacency[i, rng.choice(others, size=1 + (7 * i) % 9, replace=False)] = True
    return adjacency


def _sparse_inputs(seed: int, work_dir: Path) -> dict:
    return {"seed": seed, "adjacency": sparse_adjacency(seed)}


def _sparse_setup(inputs: dict):
    from graphbandit import environment, graph, harness, schedulers

    nominal = graph.NominalGraph(inputs["adjacency"])
    shared = dict(
        graph=nominal,
        prob_generator=("uniform", 0.1, 0.9),
        adversary=environment.SwitchingAdversary(gap=0.1, period=2000),
        horizon=HORIZON,
        runs=1,
        schedule=schedulers.DoublingSchedule(),
        min_observations=MIN_OBSERVATIONS,
        epsilon=0.1,
        seed=inputs["seed"],
    )
    configs = [
        ("uninformative", harness.ExperimentConfig(
            algorithms=("exp3-up", "exp3-gr"), probability_mode="uninformative", **shared)),
    ]
    # One config per informative learner, so each is attempted even though
    # all three abort (see NOTES.md, "Known defect").
    for algorithm in ("exp3", "exp3-dom", "exp3-ip"):
        configs.append((algorithm, harness.ExperimentConfig(algorithms=(algorithm,), **shared)))
    return configs


def synthetic_regression_rows(seed: int, rows: int = DATASET_ROWS) -> np.ndarray:
    """Smooth nonlinear signal plus strong noise; columns x1..x5, y."""
    rng = np.random.default_rng(seed)
    x = rng.random((rows, 5))
    signal = 0.22 * np.sin(2 * np.pi * x[:, 0]) * x[:, 1] + 0.18 * x[:, 2] ** 2 + 0.1 * x[:, 3]
    y = np.clip(0.05 + signal + 0.12 * rng.normal(size=rows), 0.0, 1.0)
    return np.column_stack([x, y])


def _dataset_inputs(seed: int, work_dir: Path) -> dict:
    path = work_dir / "regression.csv"
    np.savetxt(path, synthetic_regression_rows(seed), delimiter=",", fmt="%.17g",
               header="x1,x2,x3,x4,x5,y", comments="")
    return {"seed": seed, "csv": path}


def _dataset_setup(inputs: dict):
    from graphbandit import experts, graph, harness, schedulers

    dataset = experts.load_csv(inputs["csv"], "y")
    pool = experts.train_expert_pool(dataset)
    bundle = experts.build_dataset_bundle(dataset, pool)
    cfg = harness.ExperimentConfig(
        algorithms=DENSE_LEARNERS,
        graph=graph.NominalGraph.complete(9),
        prob_generator=("uniform", 0.25, 0.5),
        bundle=bundle,
        runs=1,
        schedule=schedulers.InverseSqrtEta(),
        min_observations=MIN_OBSERVATIONS,
        confidence_width=1.0,
        seed=inputs["seed"],
    )
    return [("all", cfg)]


# ---------------------------------------------------------------------------
# Oracle workload
# ---------------------------------------------------------------------------


def _oracle_setup(inputs: dict):
    return inputs["seed"]


def run_oracle(seed: int, out_dir: Path, clock=time.perf_counter) -> Outcome:
    from graphbandit import oracles

    outcome = Outcome()
    started = clock()
    checks = oracles.default_suite(draws=ORACLE_DRAWS, seed=seed)
    outcome.timed_s = clock() - started
    outcome.work = ORACLE_DRAWS * len(checks)
    outcome.attempted = len(checks)
    for check in checks:
        if not check.passed(ORACLE_MAX_STDERRS):
            outcome.failed += 1
            outcome.problems.append(check.describe())
    rows = [[c.name, repr(c.observed), repr(c.expected), repr(c.stderr), c.draws] for c in checks]
    outcome.digests["suite"] = {"checks": sha256(json.dumps(rows).encode())}
    return outcome


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-k10",
            why="criterion-6 shape (complete K=10, four learners, T=20k): per-round interpreter overhead dominates",
            setup_repeats=15,
            generate=_no_inputs,
            setup=_dense_setup,
            run=run_experiments,
        ),
        Workload(
            name="sparse-k50-doubling",
            why="sparse K=50 digraph under doubling: variable out-degree, restarts, resample-buffer writes",
            setup_repeats=15,
            generate=_sparse_inputs,
            setup=_sparse_setup,
            run=run_experiments,
        ),
        Workload(
            name="dataset-k9",
            why="criterion-7 shape: CSV ingest, nine-expert training and bundle in set-up, running-MSE path",
            setup_repeats=3,
            generate=_dataset_inputs,
            setup=_dataset_setup,
            run=run_experiments,
        ),
        Workload(
            name="oracle",
            why="Monte-Carlo oracle suite: the learners' kernels in large batches, no per-round loop",
            setup_repeats=15,
            generate=_no_inputs,
            setup=_oracle_setup,
            run=run_oracle,
        ),
    )
}
