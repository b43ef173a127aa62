"""Experiment orchestration: multi-seed batches, regret / running-MSE
aggregation, and plot-ready CSV emission.

Within one run index every algorithm faces the identical loss table and the
identical per-run probability table (common random numbers), so paired
comparisons across algorithms are meaningful.  Run ``r`` of an experiment
with master seed ``s`` derives all of its streams from the entropy ``(s, r)``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .environment import PROBS_STREAM, FixedTableAdversary, StochasticGapAdversary, _loss_blocks, run_episode, substream
from .errors import ConfigError, _integer
from .experts import DatasetBundle
from .graph import EdgeProbabilityTable, NominalGraph
from .policies import LearnerConfig, make_learner
from .schedulers import InverseSqrtEta, Schedule

__all__ = [
    "ExperimentConfig",
    "AggregateResult",
    "run_experiment",
    "emit_results",
    "checkpoint_rounds",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a set of algorithms over a common environment.

    Exactly one of ``adversary`` (synthetic mode, metric = cumulative regret)
    or ``bundle`` (dataset mode, metric = running MSE of the chosen expert's
    predictions) must be given.  ``prob_generator`` takes two forms, ``("equal", p)``
    or ``("uniform", lo, hi)`` (drawn once per run); construction builds run 0's table.
    A fixed loss table, given or the bundle's, must fit the graph and the horizon.
    """

    algorithms: tuple[str, ...]
    graph: NominalGraph
    prob_generator: tuple
    adversary: object | None = None
    bundle: DatasetBundle | None = None
    horizon: int | None = None
    probability_mode: str = "informative"
    runs: int = 20
    schedule: Schedule = InverseSqrtEta()
    min_observations: int = 25
    confidence_width: float = 1.0
    epsilon: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        algorithms = tuple(self.algorithms)
        object.__setattr__(self, "algorithms", algorithms)
        if not algorithms:
            raise ConfigError("need at least one algorithm")
        for name in algorithms:  # each learner's config checks, before any job runs
            _learner_config(self, name)
        if len(set(algorithms)) != len(algorithms):
            raise ConfigError("duplicate algorithm in the list")
        if self.probability_mode not in ("informative", "uninformative"):
            raise ConfigError(f"bad probability mode {self.probability_mode!r}")
        if self.probability_mode == "uninformative" and "exp3-ip" in algorithms:
            raise ConfigError("exp3-ip needs the informative setting (edge probabilities revealed)")
        if (self.adversary is None) == (self.bundle is None):
            raise ConfigError("give exactly one of adversary (synthetic) or bundle (dataset)")
        if self.adversary is not None and self.horizon is None:
            raise ConfigError("synthetic mode needs a horizon")
        if isinstance(gap := self.adversary, StochasticGapAdversary) and gap.best_arm > self.graph.num_experts:
            raise ConfigError(f"best_arm {gap.best_arm} exceeds the graph's {self.graph.num_experts} experts")
        if self.horizon is not None:
            object.__setattr__(self, "horizon", _integer(self.horizon, "horizon"))
        object.__setattr__(self, "runs", _integer(self.runs, "runs"))
        object.__setattr__(self, "min_observations", _integer(self.min_observations, "min_observations"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", least=0))
        if self.bundle is not None:  # the arrays the metric reads
            shapes, k = (np.shape(self.bundle.predictions), np.shape(self.bundle.truths)), self.graph.num_experts
            if len(shapes[0]) == 2 and shapes[0][0] != k:
                raise ConfigError(f"bad dataset bundle: {shapes[0][0]} experts, the graph has {k}")
            if shapes != ((k, self.bundle.horizon), (self.bundle.horizon,)):
                raise ConfigError(f"bad dataset bundle: predictions {shapes[0]}, truths {shapes[1]}; need ({k}, T), (T,)")
        try:  # a fixed loss table as every job serves it; gap and switching tables are drawn per run
            if isinstance(adversary := _adversary(self), FixedTableAdversary):
                adversary.materialize(self.effective_horizon, self.graph.num_experts, None)
        except ValueError as exc:
            raise ConfigError(f"bad {'loss table' if self.bundle is None else 'dataset bundle'}: {exc}") from exc
        try:  # _probability_table alone reads the generator: build run 0's table with it
            _probability_table(self, 0)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad probability generator {self.prob_generator!r}: {exc}") from exc

    @property
    def metric(self) -> str:
        return "regret" if self.adversary is not None else "mse"

    @property
    def effective_horizon(self) -> int:
        if self.adversary is not None:
            return self.horizon
        if self.horizon is None:
            return self.bundle.horizon
        return min(self.horizon, self.bundle.horizon)


@dataclass(frozen=True)
class AggregateResult:
    """Per-checkpoint mean/std across runs, with the raw per-run values kept
    so every aggregate can be recomputed and audited."""

    checkpoints: np.ndarray
    metric: str
    per_run: dict
    loss_digests: dict
    p_tables: tuple

    def algorithms(self) -> tuple[str, ...]:
        return tuple(self.per_run)

    def runs(self) -> int:
        return next(iter(self.per_run.values())).shape[0]

    def mean(self, algorithm: str) -> np.ndarray:
        return self.per_run[algorithm].mean(axis=0)

    def std(self, algorithm: str) -> np.ndarray:
        values = self.per_run[algorithm]
        if values.shape[0] < 2:
            return np.zeros(values.shape[1])
        return values.std(axis=0, ddof=1)

    def final_mean(self, algorithm: str) -> float:
        return float(self.mean(algorithm)[-1])

    def final_std(self, algorithm: str) -> float:
        return float(self.std(algorithm)[-1])


def checkpoint_rounds(horizon: int) -> np.ndarray:
    """Checkpoints every ceil(T/200) rounds, always including the final round."""
    step = math.ceil(horizon / 200)
    points = list(range(step, horizon + 1, step))
    if not points or points[-1] != horizon:
        points.append(horizon)
    return np.array(points, dtype=np.int64)


def _probability_table(cfg: ExperimentConfig, run: int) -> EdgeProbabilityTable:
    """Run ``run``'s edge probabilities: ``("equal", p)``, or ``("uniform", lo, hi)`` from its own stream."""
    kind, *values = cfg.prob_generator or (None,)
    if (kind, len(values)) == ("equal", 1):
        return EdgeProbabilityTable.constant(cfg.graph, *values)
    if (kind, len(values)) == ("uniform", 2):
        return EdgeProbabilityTable.uniform(cfg.graph, *values, substream((cfg.seed, run), PROBS_STREAM))
    raise ValueError("expected ('equal', p) or ('uniform', lo, hi)")


def _adversary(cfg: ExperimentConfig):
    """The episodes' adversary: the synthetic one, or the dataset's loss table served as a fixed table."""
    return cfg.adversary if cfg.bundle is None else FixedTableAdversary(cfg.bundle.loss_table[: cfg.effective_horizon])


def _learner_config(cfg: ExperimentConfig, algorithm: str) -> LearnerConfig:
    return LearnerConfig(
        algorithm=algorithm,
        schedule=cfg.schedule,
        min_observations=cfg.min_observations,
        confidence_width=cfg.confidence_width,
        epsilon=cfg.epsilon,
    )


def _execute_job(job) -> tuple[int, str, np.ndarray, str]:
    cfg, run, algorithm, probs = job
    horizon, seed = cfg.effective_horizon, (cfg.seed, run)
    checkpoints = checkpoint_rounds(horizon)
    learner_probs = probs if algorithm == "exp3-ip" else None
    learner = make_learner(_learner_config(cfg, algorithm), cfg.graph, probs=learner_probs, seed=0)
    trace = run_episode(learner, _adversary(cfg), cfg.graph, probs, horizon, seed=seed)
    digest, blocks = hashlib.sha256(), _loss_blocks(trace.adversary, horizon, cfg.graph.num_experts, seed)
    expert_sums = _checkpoint_sums(blocks, checkpoints, digest)  # one pass over the loss table, drawn again

    if cfg.metric == "regret":
        values = np.cumsum(trace.incurred)[checkpoints - 1] - expert_sums.min(axis=1)
    else:
        picked = cfg.bundle.predictions[trace.chosen - 1, np.arange(horizon)]
        cum_sq = np.cumsum((picked - cfg.bundle.truths[:horizon]) ** 2)
        values = cum_sq[checkpoints - 1] / checkpoints
    return run, algorithm, values, digest.hexdigest()


def _checkpoint_sums(blocks, checkpoints: np.ndarray, digest) -> np.ndarray:
    """``np.cumsum(table, axis=0)[checkpoints - 1]`` for the table whose C-ordered row blocks are ``blocks``, each
    block's first row plus the last sums of the block before; ``digest`` is fed each block, ending as the table's."""
    sums, carry, lo = [], None, 0
    for block in blocks:
        digest.update(np.ascontiguousarray(block))
        block = np.array(block, dtype=float)  # a copy to accumulate in
        if carry is not None:  # the first block gets no zero carry: -0.0 + 0.0 is +0.0
            block[0] += carry
        np.add.accumulate(block, axis=0, out=block)
        carry, hi = block[-1], lo + block.shape[0]
        sums.append(block[checkpoints[(checkpoints > lo) & (checkpoints <= hi)] - 1 - lo])
        lo = hi
    return np.concatenate(sums)


def _max_workers() -> int:
    raw = os.environ.get("GRAPHBANDIT_THREADS", "1")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"GRAPHBANDIT_THREADS must be an integer, got {raw!r}") from exc
    return max(1, value)


def run_experiment(cfg: ExperimentConfig) -> AggregateResult:
    """Run runs x algorithms episodes and aggregate the metric at checkpoints.

    Episodes are independent and may execute in parallel (capped by the
    GRAPHBANDIT_THREADS environment variable); results are identical either
    way.
    """
    horizon = cfg.effective_horizon
    checkpoints = checkpoint_rounds(horizon)
    p_tables = tuple(_probability_table(cfg, run) for run in range(cfg.runs))
    jobs = [(cfg, run, algorithm, p_tables[run]) for run in range(cfg.runs) for algorithm in cfg.algorithms]

    workers = _max_workers()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_execute_job, jobs))
    else:
        outcomes = [_execute_job(job) for job in jobs]

    per_run = {algorithm: np.zeros((cfg.runs, checkpoints.size)) for algorithm in cfg.algorithms}
    digests = {algorithm: [""] * cfg.runs for algorithm in cfg.algorithms}
    for run, algorithm, values, digest in outcomes:
        per_run[algorithm][run] = values
        digests[algorithm][run] = digest
    return AggregateResult(
        checkpoints=checkpoints,
        metric=cfg.metric,
        per_run=per_run,
        loss_digests={a: tuple(d) for a, d in digests.items()},
        p_tables=tuple(t.probs for t in p_tables),
    )


def emit_results(result: AggregateResult, out_dir) -> None:
    """Write ``results.csv`` (one row per checkpoint x algorithm) and
    ``summary.csv`` (final values).  Output is byte-deterministic."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stats = {algorithm: (result.mean(algorithm), result.std(algorithm)) for algorithm in result.algorithms()}
    with (out_dir / "results.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "algorithm", "metric", "mean", "std"])
        for c, t in enumerate(result.checkpoints):
            for algorithm, (mean, std) in stats.items():
                writer.writerow([int(t), algorithm, result.metric, repr(float(mean[c])), repr(float(std[c]))])
    with (out_dir / "summary.csv").open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["algorithm", "metric", "final_mean", "final_std"])
        for algorithm, (mean, std) in stats.items():
            writer.writerow([algorithm, result.metric, repr(float(mean[-1])), repr(float(std[-1]))])
