"""The simulated environment: adversarial loss generation, stochastic edge
activations, observation sets, and episode execution.

Randomness is split into disjoint counter-based streams derived from one
master seed: stream 0 generates the loss table, stream 1 realizes the edge
activations, stream 2 drives the learner.  Two algorithms run with the same
seed therefore face the identical loss sequence (common random numbers) and
consume identical learner streams.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, IngestError, _integer, _real
from .experts import _csv_table
from .graph import EdgeProbabilityTable, NominalGraph, _check_fits

__all__ = [
    "FeedbackEvent",
    "RunTrace",
    "FixedTableAdversary",
    "StochasticGapAdversary",
    "SwitchingAdversary",
    "realize_feedback",
    "run_episode",
    "empirical_regret",
]

LOSS_STREAM, FEEDBACK_STREAM, LEARNER_STREAM, PROBS_STREAM = range(4)

# Doubles of a loss table drawn, or summed (``harness``), at a time: 256 KB.
_TABLE_BLOCK = 1 << 15


def substream(seed, key: int) -> np.random.Generator:
    """Counter-based generator for one of the per-seed sub-streams."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(key,))))


@dataclass(frozen=True)
class FeedbackEvent:
    """One round of feedback: the chosen expert, the observation set with its
    losses, and the loss actually incurred (recorded by the environment even
    when the learner never observes it)."""

    t: int
    chosen: int
    observed: tuple[tuple[int, float], ...]
    incurred_loss: float


@dataclass(frozen=True)
class RunTrace:
    """Everything one episode produced, enough to recompute any metric.  The loss
    table is not held: ``loss_table`` draws it again on a fresh loss stream."""

    incurred: np.ndarray
    chosen: np.ndarray
    adversary: object
    num_experts: int
    seed: object

    @property
    def horizon(self) -> int:
        return self.incurred.size

    @property
    def loss_table(self) -> np.ndarray:
        rng = substream(self.seed, LOSS_STREAM)
        return np.asarray(self.adversary.materialize(self.horizon, self.num_experts, rng), dtype=float)

    @property
    def expert_cumulative(self) -> np.ndarray:
        """Final cumulative loss of each fixed expert."""
        return self.loss_table.sum(axis=0)


@dataclass(frozen=True)
class FixedTableAdversary:
    """Loss function given explicitly as a (T, K) table with entries in [0, 1]."""

    table: np.ndarray

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=float)
        if table.ndim != 2:
            raise ValueError(f"loss table must be 2-d, got shape {table.shape}")
        if table.size and not (table.min() >= 0 and table.max() <= 1):  # NaN fails both
            raise ValueError("losses must lie in [0, 1]")
        object.__setattr__(self, "table", table)

    @classmethod
    def from_csv(cls, path) -> "FixedTableAdversary":
        """Load a T x K loss table from CSV through ``experts._csv_table``: blank lines are skipped, a
        header must name every column, each name once, and every row must be numeric and K wide."""
        table = _csv_table(path)[1]
        try:
            return cls(table)
        except ValueError as exc:
            raise IngestError(f"{path}: {exc}") from exc

    def materialize(self, horizon: int, num_experts: int, rng: np.random.Generator) -> np.ndarray:
        if self.table.shape[1] != num_experts:
            raise ValueError(f"loss table has {self.table.shape[1]} columns, graph has {num_experts} experts")
        if self.table.shape[0] < horizon:
            raise ValueError(f"loss table has {self.table.shape[0]} rows, horizon is {horizon}")
        return self.table[:horizon]

    def blocks(self, horizon: int, num_experts: int, rng: np.random.Generator):
        """``materialize``'s table as views of ``_TABLE_BLOCK`` doubles of rows each."""
        table, step = self.materialize(horizon, num_experts, rng), max(1, _TABLE_BLOCK // num_experts)
        return (table[lo : lo + step] for lo in range(0, horizon, step))


def _check_means(gap, base) -> None:
    """The gap adversaries' means: numbers (not bools) with 0 < gap <= base <= 1."""
    if not (_real(gap) and _real(base) and 0 < gap <= base <= 1):
        raise ValueError(f"need 0 < gap <= base <= 1, got gap={gap} base={base}")


@dataclass(frozen=True)
class StochasticGapAdversary:
    """I.i.d. Bernoulli losses with one best arm whose mean sits ``gap`` below
    the rest (base for the others, base - gap for the best arm).  ``best_arm``
    is a 1-based integer; ``gap`` and ``base`` are numbers, not bools."""

    gap: float
    best_arm: int = 1
    base: float = 0.5

    def __post_init__(self) -> None:
        _check_means(self.gap, self.base)
        object.__setattr__(self, "best_arm", _integer(self.best_arm, "best_arm"))

    def materialize(self, horizon: int, num_experts: int, rng: np.random.Generator) -> np.ndarray:
        return _filled(self.blocks(horizon, num_experts, rng), horizon, num_experts)

    def blocks(self, horizon: int, num_experts: int, rng: np.random.Generator):
        if not 1 <= self.best_arm <= num_experts:
            raise ValueError(f"best arm {self.best_arm} out of range 1..{num_experts}")
        return _gap_blocks(rng, horizon, num_experts, self.base, self.gap, lambda rows: self.best_arm - 1)


@dataclass(frozen=True)
class SwitchingAdversary:
    """Like the gap adversary, but the identity of the best arm rotates every
    ``period`` rounds, an integer >= 1."""

    gap: float
    period: int
    base: float = 0.5

    def __post_init__(self) -> None:
        _check_means(self.gap, self.base)
        object.__setattr__(self, "period", _integer(self.period, "period"))

    def materialize(self, horizon: int, num_experts: int, rng: np.random.Generator) -> np.ndarray:
        return _filled(self.blocks(horizon, num_experts, rng), horizon, num_experts)

    def blocks(self, horizon: int, num_experts: int, rng: np.random.Generator):
        return _gap_blocks(rng, horizon, num_experts, self.base, self.gap, lambda r: r // self.period % num_experts)


def _gap_blocks(rng, horizon: int, num_experts: int, base: float, gap: float, best):
    """``(rng.random((horizon, num_experts)) < means).astype(float)`` for means ``base``, less ``gap`` in
    column ``best(rows)``, as fresh row blocks of ``_TABLE_BLOCK`` doubles, each drawn when asked for: as
    ``Generator.random`` does not depend on chunking, the rows and ``rng``'s final state are the same."""
    step = max(1, _TABLE_BLOCK // num_experts)
    buffer = np.empty(step * num_experts)
    for lo in range(0, horizon, step):
        rows = np.arange(lo, min(lo + step, horizon))
        u = rng.random(out=buffer[: rows.size * num_experts]).reshape(rows.size, num_experts)
        block = np.less(u, base, out=np.empty(u.shape))
        block[rows - lo, best(rows)] = u[rows - lo, best(rows)] < base - gap
        yield block


def _filled(blocks, horizon: int, num_experts: int) -> np.ndarray:
    """The (horizon, num_experts) table whose row blocks of ``_TABLE_BLOCK`` doubles are ``blocks``."""
    table, step = np.empty((horizon, num_experts)), max(1, _TABLE_BLOCK // num_experts)
    for lo, block in zip(range(0, horizon, step), blocks):
        table[lo : lo + step] = block
    return table


def _loss_blocks(adversary, horizon: int, num_experts: int, seed):
    """An episode's loss table in C-ordered row blocks from a fresh loss stream: the adversary's ``blocks``, else
    its ``materialize`` table, shape-checked, as one block."""
    rng = substream(seed, LOSS_STREAM)
    if hasattr(adversary, "blocks"):
        return adversary.blocks(horizon, num_experts, rng)
    table = np.asarray(adversary.materialize(horizon, num_experts, rng), dtype=float)
    if table.shape != (horizon, num_experts):
        raise ContractError(f"adversary produced shape {table.shape}, expected {(horizon, num_experts)}")
    return (table,)


def realize_feedback(
    graph: NominalGraph,
    probs: EdgeProbabilityTable,
    chosen: int,
    losses,
    rng: np.random.Generator,
    t: int = 0,
) -> FeedbackEvent:
    """Draw the round's edge activations and build the observation set.

    Each out-edge of the chosen expert fires independently with its table
    probability (draws consumed in ascending target order).  The chosen
    expert's own loss is included only when its self-loop fires; the incurred
    loss is recorded regardless.
    """
    _check_chosen(graph, chosen)
    _check_fits(graph, probs.probs)
    losses = np.asarray(losses, dtype=float)
    if losses.shape != (graph.num_experts,):
        raise ContractError(f"expected {graph.num_experts} losses, got shape {losses.shape}")
    if not (losses.min() >= 0 and losses.max() <= 1):  # NaN fails both
        raise ContractError("losses must lie in [0, 1]")
    return _event(t, chosen, _fire(graph, probs, chosen, rng)[0], losses)


def _check_chosen(graph: NominalGraph, chosen: int) -> None:
    if not 1 <= chosen <= graph.num_experts:
        raise ValueError(f"chosen index {chosen} out of range 1..{graph.num_experts}")


def _fire(
    graph: NominalGraph, probs: EdgeProbabilityTable, chosen: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The kernel behind ``realize_feedback``, one uniform drawn per out-edge
    of ``chosen``: the ascending 0-based positions that fire, and the hit
    mask over ``chosen``'s out-positions they were read from.  ``run_episode``
    draws the same values through ``_Feedback``."""
    out = graph.out_positions[chosen - 1]
    hits = rng.random(out.size) < probs.probs[chosen - 1, out]
    return out[hits], hits


class _Feedback:
    """An episode's activations, read from ``rng`` as one ``_fire`` call per
    round reads them, with the per-source probability rows and edge offsets
    built once.  Edges are in row-major order: a source's are contiguous."""

    def __init__(self, graph: NominalGraph, probs: EdgeProbabilityTable, rng: np.random.Generator):
        _check_fits(graph, probs.probs)
        self._rng = rng
        self._out = graph.out_positions
        self._degree = graph.adjacency.sum(axis=1)
        self._first_edge = np.cumsum(self._degree) - self._degree
        self._edge_probs = probs.probs[graph.adjacency]
        self._rows = np.split(self._edge_probs, self._first_edge[1:])

    def fire(self, chosen: int) -> tuple[np.ndarray, np.ndarray]:
        """``_fire(graph, probs, chosen, rng)``."""
        out = self._out[chosen - 1]
        hits = self._rng.random(out.size) < self._rows[chosen - 1]
        return out[hits], hits

    def fire_run(self, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_fire``'s hit masks for rounds that choose the 1-based ``picks``
        in turn, concatenated, and where each round's mask starts: one draw
        for the run, as ``Generator.random`` does not depend on how its
        output is chunked."""
        lengths = self._degree[picks - 1]
        starts = np.cumsum(lengths) - lengths
        edges = np.arange(lengths.sum()) + np.repeat(self._first_edge[picks - 1] - starts, lengths)
        return self._rng.random(edges.size) < self._edge_probs[edges], starts


def _event(t: int, chosen: int, fired: np.ndarray, losses: np.ndarray) -> FeedbackEvent:
    observed = tuple(zip((fired + 1).tolist(), losses[fired].tolist()))
    return FeedbackEvent(t=t, chosen=chosen, observed=observed, incurred_loss=float(losses[chosen - 1]))


def run_episode(
    learner,
    adversary,
    graph: NominalGraph,
    probs: EdgeProbabilityTable,
    horizon: int,
    seed,
) -> RunTrace:
    """Run the full select -> realize -> update loop for ``horizon`` rounds
    on the static ``graph``, the one the learner was built with.
    Deterministic given the seed.

    The loss table comes in row blocks (``_loss_blocks``), never whole: each
    is checked before its first round, a check that stands for the learners'
    per-round loss-range checks (see ``estimator``), and gives the incurred
    losses once its rounds are played.  The learners of this package take
    each round's feedback as arrays (``_observe``: the round, the chosen
    index, the fired positions, their losses and the hit mask over the
    chosen expert's out-positions); any other object with ``select``/``update``
    gets a ``FeedbackEvent``, as from ``realize_feedback``.  The activations
    come from ``_Feedback``, which reads the feedback stream directly: the
    values and the stream's final state are those of one ``_fire`` call per
    round.

    exp3-up and exp3-gr play each run of forced-exploration rounds as one
    block (``_explore_run``), until the deficit is paid, the doubling epoch
    ends, ``policies._MAX_FORCED_RUN`` rounds or the horizon: choices as
    ``select`` makes them, one draw of the activations
    (``_Feedback.fire_run``), one record per explored expert.  Forced rounds read no losses and leave the weights
    and the learner's generator alone, so everything ends as with one round
    at a time.
    """
    horizon = operator.index(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    feedback = _Feedback(graph, probs, substream(seed, FEEDBACK_STREAM))  # checks the table before the reseed
    learner.reseed(np.random.SeedSequence(seed, spawn_key=(LEARNER_STREAM,)))
    observe, explore = getattr(learner, "_observe", None), getattr(learner, "_explore_run", None)
    chosen, incurred = np.empty(horizon, dtype=np.int64), np.empty(horizon)
    t = lo = 1
    for block in _loss_blocks(adversary, horizon, graph.num_experts, seed):
        if not (block.min() >= 0 and block.max() <= 1):  # NaN fails both
            raise ContractError("adversary produced losses outside [0, 1] or non-finite")
        end = lo + block.shape[0]
        while t < end:
            if explore is not None:
                picks = explore(t, horizon, graph, feedback.fire_run)
                if picks.size:
                    chosen[t - 1 : t - 1 + picks.size] = picks
                    t += picks.size
                    continue
            pick = learner.select(t, graph)
            _check_chosen(graph, pick)
            fired, hits = feedback.fire(pick)
            losses = block[t - lo]
            if observe is not None:
                observe(t, pick, fired, losses[fired], hits)
            else:
                learner.update(_event(t, pick, fired, losses))
            chosen[t - 1] = pick
            t += 1
        incurred[lo - 1 : end - 1] = block[np.arange(block.shape[0]), chosen[lo - 1 : end - 1] - 1]
        lo = end
    return RunTrace(incurred=incurred, chosen=chosen, adversary=adversary, num_experts=graph.num_experts, seed=seed)


def empirical_regret(trace: RunTrace) -> float:
    """Total incurred loss minus the best fixed expert's total loss."""
    return float(trace.incurred.sum() - trace.expert_cumulative.min())
