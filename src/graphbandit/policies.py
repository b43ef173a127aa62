"""The learners.

Five policies share one interface (``select(t, graph) -> index`` then
``update(feedback)``) and run on the one nominal graph they were built with:

* ``exp3-ip``  - exploits the revealed edge probabilities (informative setting);
* ``exp3-up``  - estimates edge probabilities online, with an inflated
  observation-probability divisor (uninformative setting);
* ``exp3-gr``  - replaces the divisor with geometric resampling against a
  window of recent edge activations (uninformative setting);
* ``exp3``     - the classic bandit baseline, side observations ignored;
* ``exp3-dom`` - treats the nominal graph as exact (all edge probabilities 1).

Only exp3-ip takes the edge-probability table; exp3 and exp3-dom are exp3-ip
on fixed tables.  All expert indices crossing the public interface are 1-based.

A learner's state is plain arrays.  ``run_episode`` hands each round's
feedback to ``_observe`` as arrays; ``update`` is its ``FeedbackEvent`` view,
and ``weights``/``last_pmf`` build their objects from the arrays on demand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .environment import FeedbackEvent
from .errors import ConfigError, ContractError, InvariantError, PhaseOrderError, ProtocolError
from .estimator import Pmf, WeightVector, _cdf, _exp_weight_step, _importance_estimates, _invert_cdf, _normalized
from .estimator import PMF_TOLERANCE, _softmax

# Public views of the kernels above, kept importable from this module, where
# perfbench/tracer.py looks them up; the learners call the kernels.
from .estimator import exp_weight_update, importance_loss_estimate, sample_index  # noqa: F401
from .graph import EdgeProbabilityTable, NominalGraph, VertexSet, greedy_dominating_set
from .schedulers import (
    DoublingSchedule,
    DoublingState,
    InverseSqrtEta,
    Schedule,
    eta_at,
    format_schedule,
    gr_doubling_params,
    ip_doubling_step,
    parse_schedule,
    up_doubling_params,
    up_start_epoch,
)

__all__ = [
    "ALGORITHMS",
    "LearnerConfig",
    "ProbabilityEstimatorState",
    "ResampleBuffer",
    "exp3ip_pmf",
    "observation_probs",
    "estimated_observation_prob",
    "geometric_resample",
    "Exp3IP",
    "Exp3Dom",
    "Exp3",
    "Exp3UP",
    "Exp3GR",
    "make_learner",
    "load_snapshot",
]

ALGORITHMS = ("exp3", "exp3-dom", "exp3-ip", "exp3-up", "exp3-gr")

SNAPSHOT_VERSION = 1

_NO_CHOICES = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class LearnerConfig:
    """Learner parameters.

    ``min_observations`` is the per-edge sample floor M used by the
    uninformative learners' forced exploration; ``confidence_width`` is the
    inflation parameter xi added to the probability estimates (>= 1);
    ``epsilon`` is a user-supplied lower bound on the edge probabilities,
    needed only by the resampling learner's doubling schedule.
    """

    algorithm: str
    schedule: Schedule = InverseSqrtEta()
    min_observations: int = 25
    confidence_width: float = 1.0
    epsilon: float | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.min_observations < 1:
            raise ConfigError(f"min_observations must be >= 1, got {self.min_observations}")
        if not self.confidence_width >= 1:
            raise ConfigError(f"confidence_width must be >= 1, got {self.confidence_width}")
        if self.epsilon is not None and not 0 < self.epsilon <= 1:
            raise ConfigError(f"epsilon must be in (0, 1], got {self.epsilon}")


# ---------------------------------------------------------------------------
# Selection distributions and observation probabilities
# ---------------------------------------------------------------------------


def _check_eta(eta: float) -> float:
    if not 0 <= eta <= 1:  # NaN and +-inf fail too
        raise ValueError(f"mixing rate must be in [0, 1], got {eta}")
    return float(eta)


@dataclass(frozen=True)
class _GraphTable:
    """The per-round quantities that depend only on one (graph, table,
    dominating set) triple, computed once for it."""

    masked: np.ndarray  # edge probabilities, 0 on non-edges
    dom: np.ndarray  # 0-based dominating-set positions
    dom_share: np.ndarray  # each member's share of the expected observations

    @classmethod
    def build(cls, graph: NominalGraph, probs: EdgeProbabilityTable, dominating: VertexSet) -> "_GraphTable":
        masked = np.where(graph.adjacency, probs.probs, 0.0)
        expected = masked.sum(axis=1)
        dom = _positions(dominating)
        total = expected[dom].sum()
        if total <= 0:
            raise InvariantError("dominating set has zero expected observations")
        return cls(masked=masked, dom=dom, dom_share=expected[dom] / total)


def _positions(members: VertexSet) -> np.ndarray:
    return np.fromiter((i - 1 for i in members), dtype=np.int64, count=len(members))


def exp3ip_pmf(
    weights: WeightVector,
    eta: float,
    graph: NominalGraph,
    probs: EdgeProbabilityTable,
    dominating: VertexSet,
) -> Pmf:
    """Selection distribution for the informative setting.

    Mixes the normalized weights with exploration mass spread over the
    dominating set proportionally to each member's expected number of
    revealed losses.
    """
    return Pmf(_informed_mix(weights.log_weights, eta, _GraphTable.build(graph, probs, dominating)))


def _informed_mix(log_weights: np.ndarray, eta: float, table: _GraphTable) -> np.ndarray:
    """The informed selection vector before ``Pmf``'s check-and-normalize."""
    eta = _check_eta(eta)
    base = _softmax(log_weights)
    if base.size != table.masked.shape[0]:
        raise ValueError("weight vector and graph disagree on the number of experts")
    out = (1.0 - eta) * base
    out[table.dom] += eta * table.dom_share
    return out


def _uniform_mix(log_weights: np.ndarray, eta: float, dom: np.ndarray) -> np.ndarray:
    """Selection vector for the uninformative setting, before ``Pmf``'s
    check-and-normalize: exploration mass is spread uniformly over the
    0-based dominating-set positions ``dom``."""
    eta = _check_eta(eta)
    out = (1.0 - eta) * _softmax(log_weights)
    out[dom] += eta / dom.size
    return out


def observation_probs(pmf: Pmf, graph: NominalGraph, probs: EdgeProbabilityTable) -> np.ndarray:
    """Exact probability that each expert's loss gets observed this round:
    entry i-1 sums, over expert i's in-neighbours, selection probability
    times edge probability."""
    masked = np.where(graph.adjacency, probs.probs, 0.0)
    return pmf.probs @ masked


# ---------------------------------------------------------------------------
# Edge-probability estimation (uninformative, estimation-based)
# ---------------------------------------------------------------------------


def _out_edge_hits(graph: NominalGraph, chosen: int, realized) -> np.ndarray:
    """The length-K row ``realized`` read on ``chosen``'s out-neighbour
    positions: the hit mask the record kernels take.  Raises for an
    activation on a non-edge."""
    if not 1 <= chosen <= graph.num_experts:
        raise ValueError(f"chosen index {chosen} out of range")
    realized = np.asarray(realized, dtype=bool)
    if realized.shape != (graph.num_experts,):
        raise ContractError(f"realized row must have length {graph.num_experts}")
    out = graph.out_positions[chosen - 1]
    hits = realized[out]
    if np.count_nonzero(realized) != np.count_nonzero(hits):
        raise ContractError("activation reported for a non-edge")
    return hits


class ProbabilityEstimatorState:
    """Per-edge Bernoulli sample means, fed by rounds where the edge's source
    was the chosen expert.

    For the sample floor M and the inflation xi/sqrt(M) last given to
    ``_track`` (0 and 0.0 until then), the state also keeps the number of
    edges holding fewer than M samples and the inflated divisors
    (``_inflated_divisors``); ``_record`` keeps both current, touching only
    the recorded source's out-edges.
    """

    def __init__(self, graph: NominalGraph):
        self._graph = graph
        k = graph.num_experts
        self.counts = np.zeros((k, k), dtype=np.int64)
        self.sums = np.zeros((k, k), dtype=np.int64)
        self._track(0, 0.0)

    @property
    def estimates(self) -> np.ndarray:
        """Sample-mean estimate per edge; 0 where no samples exist yet."""
        return np.where(self.counts > 0, self.sums / np.maximum(self.counts, 1), 0.0)

    def observe_row(self, chosen: int, realized) -> None:
        """Record one round's activations for every out-edge of ``chosen``.

        ``realized`` is a length-K boolean row; entry j-1 says whether expert
        j's loss was revealed.  A True entry on a non-edge is a contract
        violation.
        """
        self._record(chosen - 1, _out_edge_hits(self._graph, chosen, realized))

    def _record(self, source: int, hits: np.ndarray) -> None:
        """Samples for every out-edge of the 0-based ``source``: ``hits`` is
        one hit mask over its out-positions (targets ascending), or an
        (n, out-degree) run of them, one row per round, oldest first."""
        out = self._graph.out_positions[source]
        count_row, sum_row = self.counts[source], self.sums[source]
        n, hit_counts = (1, hits) if hits.ndim == 1 else (hits.shape[0], np.count_nonzero(hits, axis=0))
        counts = count_row[out] + n
        sums = sum_row[out] + hit_counts
        count_row[out] = counts
        sum_row[out] = sums
        if self._short:  # with none short, every count was at the floor or past it
            self._short -= np.count_nonzero((counts >= self._floor) & (counts < self._floor + n))
        # The rebuild's division and addition; its x 1.0 on an edge is exact.
        self._divisors[:, source][out] = sums / counts + self._inflation

    def _track(self, floor: int, inflation: float) -> None:
        """Set the sample floor and the inflation; recount the edges below
        the floor and rebuild the divisors."""
        adjacency = self._graph.adjacency
        self._floor = floor
        self._inflation = inflation
        self._short = int(np.count_nonzero((self.counts < floor) & adjacency))
        self._divisors = _inflated_divisors(adjacency, self.estimates, inflation)


def estimated_observation_prob(
    pmf: Pmf,
    graph: NominalGraph,
    state: ProbabilityEstimatorState,
    confidence_width: float,
    min_observations: int,
    i: int,
) -> float:
    """Inflated estimate of expert i's observation probability.

    Uses the per-edge sample means plus a confidence_width / sqrt(M) margin so
    the estimate dominates the true probability with high probability.  May
    exceed 1 (only ever used as a divisor).  Raises if any in-edge has fewer
    than ``min_observations`` samples.
    """
    if not 1 <= i <= graph.num_experts:
        raise ValueError(f"expert index {i} out of range 1..{graph.num_experts}")
    if min_observations < 1:
        raise ValueError("min_observations must be >= 1")
    _check_in_edges(graph, state.counts, min_observations, np.array([i - 1]))
    divisors = _inflated_divisors(graph.adjacency, state.estimates, confidence_width / math.sqrt(min_observations))
    return float((pmf.probs * divisors[i - 1]).sum())


def _check_in_edges(graph: NominalGraph, counts: np.ndarray, min_observations: int, targets: np.ndarray) -> None:
    """Raise for the first of ``targets`` with an in-edge holding fewer than
    ``min_observations`` samples."""
    short = ((counts.T[targets] < min_observations) & graph.adjacency.T[targets]).any(axis=1)
    if short.any():
        raise PhaseOrderError(
            f"an in-edge of expert {targets[short.argmax()] + 1} has fewer than {min_observations} samples; "
            "exploration is incomplete"
        )


def _inflated_divisors(adjacency: np.ndarray, phat: np.ndarray, inflation: float) -> np.ndarray:
    """D = ((phat + inflation) * A)^T as a contiguous (K, K) array: row t
    holds phat(s, t) + inflation for each in-edge (s, t) of t, 0 elsewhere,
    so (pmf * D[t]).sum() is t's inflated observation probability.  Bit-equal
    to multiplying pmf, phat + inflation and the in-edge mask in turn: x 1.0
    is exact, and (pi * x) * 0 = pi * 0 = 0."""
    return np.ascontiguousarray(((phat + inflation) * adjacency).T)


# ---------------------------------------------------------------------------
# Geometric resampling (uninformative, resampling-based)
# ---------------------------------------------------------------------------


class ResampleBuffer:
    """Sliding window of recent edge activations, one ring per edge.

    An edge's ring gains one sample whenever its source expert is chosen;
    during forced exploration the explored expert therefore feeds all of its
    out-edges at once.  Edges are numbered in row-major order of the
    adjacency matrix, and row e of one uint8 array is edge e's ring: with
    n samples written, the next lands in column n mod capacity, so a full
    ring overwrites its oldest sample.  The array is only as wide as the
    fullest ring needs (it doubles on demand, up to the capacity), so its
    size follows the samples held, not the capacity.  A source's out-edges
    are a contiguous range of ids, targets ascending.  The buffer counts the
    edges whose rings are not yet full, so a window check costs O(1) once
    every ring is.
    """

    def __init__(self, graph: NominalGraph, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._graph = graph
        self._capacity = int(capacity)
        adjacency = graph.adjacency
        self._sources, self._targets = np.nonzero(adjacency)
        num_edges = self._sources.size
        self._edge_id = np.full(adjacency.shape, -1, dtype=np.int64)
        self._edge_id[self._sources, self._targets] = np.arange(num_edges)
        bounds = np.searchsorted(self._sources, np.arange(graph.num_experts + 1)).tolist()
        self._out_edges = tuple((slice(lo, hi), np.arange(lo, hi)) for lo, hi in zip(bounds[:-1], bounds[1:]))
        # Resampling block layout per target: column 0 is its draw row, column
        # 1 + d its in-edge from d.  The draw row carries the target's own
        # self-loop, an in-edge it always has.
        k = graph.num_experts
        self._layout_mask = np.ones((k, k + 1), dtype=bool)
        self._layout_mask[:, 1:] = adjacency.T
        self._layout_edge = np.empty((k, k + 1), dtype=np.int64)
        self._layout_edge[:, 0] = self._edge_id.diagonal()
        self._layout_edge[:, 1:] = self._edge_id.T
        self._ring = np.zeros((num_edges, 0), dtype=np.uint8)
        # Samples written per edge since the ring last held them oldest-first
        # from column 0; min(written, capacity) of them are held.
        self._written = np.zeros(num_edges, dtype=np.int64)
        self._count_short()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def graph(self) -> NominalGraph:
        return self._graph

    def observe_row(self, chosen: int, realized) -> None:
        """Append one round's activations for every out-edge of ``chosen``."""
        self._record(chosen - 1, _out_edge_hits(self._graph, chosen, realized))

    def _record(self, source: int, hits: np.ndarray) -> None:
        """Append samples to every out-edge of the 0-based ``source``:
        ``hits`` is one hit mask over its out-positions (targets ascending),
        or an (n, out-degree) run of them, one row per round, oldest first."""
        span, edges = self._out_edges[source]
        cap = self._capacity
        written = self._written[span]  # a view: the increment below writes through
        if hits.ndim == 1:
            n, cols = 1, written % cap
        else:  # of a run longer than the ring, only the last capacity rows are held
            n, hits = hits.shape[0], hits[-cap:]
            cols = (written + np.arange(n - hits.shape[0], n)[:, None]) % cap
        if self._ring.shape[1] < cap:
            self._widen(int(cols.max()) + 1)
        self._ring[edges, cols] = hits
        written += n
        # With none short, every ring was already full.  While the ring array
        # is narrower than the capacity, no count exceeds its width, so none
        # can have reached the capacity.
        if self._short and self._ring.shape[1] == cap:
            self._short -= np.count_nonzero((written >= cap) & (written < cap + n))

    def _count_short(self) -> None:
        """Recount the edges whose rings are not full."""
        self._short = int(np.count_nonzero(self._written < self._capacity))

    def _widen(self, width: int) -> None:
        """Double the ring array until it is ``width`` wide, up to the capacity:
        a run's one write widens it as its rows written one by one would."""
        old = self._ring.shape[1]
        if width <= old:
            return
        new = max(old, 1)
        while new < width:
            new *= 2
        ring = np.zeros((self._ring.shape[0], min(self._capacity, new)), dtype=np.uint8)
        ring[:, :old] = self._ring
        self._ring = ring

    def _held(self) -> np.ndarray:
        return np.minimum(self._written, self._capacity)

    def grow(self, new_capacity: int) -> None:
        """Raise the window size, keeping existing samples; never shrinks."""
        if new_capacity < self._capacity:
            raise ValueError("resample buffers never shrink")
        if new_capacity == self._capacity:
            return
        # A ring that has wrapped is rotated oldest-first into columns
        # 0..capacity-1, where the larger ring continues it.
        cap = self._capacity
        for e in np.flatnonzero(self._written > cap):
            self._ring[e, :cap] = np.roll(self._ring[e, :cap], -(self._written[e] % cap))
        self._written = self._held()
        self._capacity = int(new_capacity)
        self._count_short()

    def resample_layout(self, targets0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of one resampling block for the 0-based ``targets0``: each
        target takes a draw row, then one row per in-edge, sources ascending.

        Returns the (n, K+1) mask of the rows each target takes (column 0 its
        draw row, column 1 + d its in-edge from d) and the edge id behind
        every row in block order.  A draw row is given the target's
        self-loop, so the windows of all rows span only the targets' in-edges.
        """
        mask = self._layout_mask[targets0]
        return mask, self._layout_edge[targets0][mask]

    def edge_matrix(self, edges: np.ndarray, window: int) -> np.ndarray:
        """The last ``window`` samples of each edge id in ``edges``, oldest
        first, stacked as a (len(edges), window) 0/1 matrix.  Raises while
        underfull."""
        written = self._full_windows(edges, window)
        return self._window_samples(edges[:, None], written[:, None], window, np.arange(window))

    def _full_windows(self, edges: np.ndarray, window: int) -> np.ndarray:
        """The write counts of ``edges``; raises while one holds fewer than
        ``window`` samples.  Once every ring is full, no window up to the
        capacity can be short."""
        written = self._written[edges]
        if self._short or window > self._capacity:
            short = np.minimum(written, self._capacity) < window
            if short.any():
                e = edges[short.argmax()]
                raise PhaseOrderError(
                    f"edge ({self._sources[e] + 1}, {self._targets[e] + 1}) holds {self._held()[e]} samples, "
                    f"needs {window}"
                )
        return written

    def _window_samples(self, edges, written, window: int, slots) -> np.ndarray:
        """Sample ``slots`` (0 = oldest) of the last ``window`` of each edge
        id in ``edges``, whose write counts are ``written``; the arguments
        broadcast together."""
        return self._ring[edges, (written - window + slots) % self._capacity]

    def _edge_keys(self) -> list[str]:
        return [f"{s + 1},{t + 1}" for s, t in zip(self._sources, self._targets)]

    def samples(self) -> dict[str, list[int]]:
        """Every edge's held samples, oldest first, keyed "source,target"
        (1-based) in row-major edge order."""
        return {
            key: self._ring[e, (self._written[e] + np.arange(-held, 0)) % self._capacity].tolist()
            for e, (key, held) in enumerate(zip(self._edge_keys(), self._held()))
        }

    @classmethod
    def from_samples(cls, graph: NominalGraph, capacity: int, samples: dict) -> "ResampleBuffer":
        """Rebuild a buffer from ``samples()`` output; a ring keeps at most
        its last ``capacity`` samples.  A key that is not an edge raises KeyError."""
        buffers = cls(graph, capacity)
        edge_of = {key: e for e, key in enumerate(buffers._edge_keys())}
        for key, values in samples.items():
            e = edge_of[key]
            values = np.asarray(values[-buffers._capacity :])
            if not ((values == 0) | (values == 1)).all():
                raise ValueError(f"snapshot field 'buffers' holds a sample other than 0 or 1 on edge {key}")
            buffers._widen(len(values))
            buffers._ring[e, : len(values)] = values
            buffers._written[e] = len(values)
        buffers._count_short()
        return buffers


def _trial_slots(
    cum: np.ndarray, uniforms: np.ndarray, row_of: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where each resampling trial looks: one (row, slot) per trial.

    Row i of the (n, M) ``uniforms`` draws the experts of trials 1..M by
    inverting ``cum``, the running sum of the selection pmf.  Each window
    row holds M buffered activation samples, and ``keys`` holds M uniforms
    per window row; their argsort is that row's fresh permutation.
    ``row_of[i, d]`` is the window row of the edge from expert d into row
    i's target, or -1 when d is not an in-neighbour.  Trial u of row i reads
    its draw's window row at the slot the permutation puts at position u,
    and succeeds when that sample shows an activation (``_first_success``).
    """
    n, m = uniforms.shape
    draws = _invert_cdf(cum, uniforms)
    rows = row_of[np.arange(n)[:, None], draws]
    return rows, np.argsort(keys, axis=-1)[rows, np.arange(m)]


def _resample_trials(
    cum: np.ndarray, uniforms: np.ndarray, row_of: np.ndarray, keys: np.ndarray, windows: np.ndarray
) -> np.ndarray:
    """Capped first-success trial counts (see ``_trial_slots``) when the
    window rows are given whole, as the (rows, M) 0/1 matrix ``windows``."""
    rows, slots = _trial_slots(cum, uniforms, row_of, keys)
    return _first_success(rows, windows[rows, slots])


def _first_success(rows: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Capped first-success trial counts: min(first successful trial, M)
    per row, in [1, M], from the (n, M) trial rows and the samples read."""
    hit = samples & (rows >= 0)  # a -1 row read the last row; masked here
    hit[:, -1] = 1  # no success in the first M-1 trials counts as M
    return hit.argmax(axis=1) + 1


def _resample_targets(
    cum: np.ndarray, buffers: ResampleBuffer, targets0: np.ndarray, window: int, rng: np.random.Generator
) -> np.ndarray:
    """Geometric-resampling trial counts for every 0-based expert in
    ``targets0``, in order, from one block of uniforms; ``cum`` is the
    running sum of the selection pmf.

    Target j takes M + E_j*M uniforms (M expert draws, then M permutation
    keys for each of its E_j in-edges), the same values that one
    geometric_resample call per target would draw in turn, because
    ``Generator.random`` does not depend on how its output is chunked.
    """
    if targets0.size == 0:
        return np.zeros(0, dtype=np.int64)
    mask, edges = buffers.resample_layout(targets0)
    written = buffers._full_windows(edges, window)  # raises before any draw
    block_row = mask.ravel().cumsum().reshape(mask.shape) - 1
    uniforms = rng.random(edges.size * window).reshape(edges.size, window)
    row_of = np.where(mask[:, 1:], block_row[:, 1:], -1)
    rows, slots = _trial_slots(cum, uniforms[block_row[:, 0]], row_of, uniforms)
    # Only the samples the trials read are gathered, not whole windows.
    return _first_success(rows, buffers._window_samples(edges[rows], written[rows], window, slots))


def geometric_resample(
    i: int,
    pmf: Pmf,
    graph: NominalGraph,
    buffers: ResampleBuffer,
    min_observations: int,
    rng: np.random.Generator,
) -> int:
    """Estimate 1/q for expert i by simulated trials against buffered samples.

    Runs up to M = ``min_observations`` trials: each draws an expert from
    ``pmf`` and asks whether that draw would have revealed i's loss, reading
    a fresh random permutation of each in-edge's buffered activations.
    Returns the capped count of trials until the first simulated observation,
    a value in [1, M] whose expectation is (1 - (1 - q)^M) / q.
    """
    if not 1 <= i <= graph.num_experts:
        raise ValueError(f"expert index {i} out of range 1..{graph.num_experts}")
    if min_observations < 1:
        raise ValueError("min_observations must be >= 1")
    if buffers.graph != graph:
        raise ValueError("the buffers belong to a different graph")
    return int(_resample_targets(pmf.probs.cumsum(), buffers, np.array([i - 1]), min_observations, rng)[0])


def _resampled_estimates(losses: np.ndarray, trials: np.ndarray, cap: int | None, losses_checked=False) -> np.ndarray:
    """trials * losses for a round's observed losses.  Checked in order,
    loss before trial count: the first loss outside [0, 1] or count outside
    [1, cap] raises.  With ``losses_checked`` only the counts are checked."""
    if losses.size and not (
        trials.min() >= 1 and (cap is None or trials.max() <= cap)
        and (losses_checked or 0 <= losses.min() <= losses.max() <= 1)
    ):  # NaN fails
        bad_loss = ~((losses >= 0) & (losses <= 1))
        bad_count = trials < 1 if cap is None else (trials < 1) | (trials > cap)
        i = (bad_loss | bad_count).argmax()
        if bad_loss[i]:
            raise ValueError(f"loss must be in [0, 1], got {losses[i]}")
        raise ContractError(f"trial count {trials[i]} outside [1, {cap}]")
    return trials * losses


# ---------------------------------------------------------------------------
# Learners
# ---------------------------------------------------------------------------


class _LearnerBase:
    """Protocol plumbing shared by all learners: strict select/update
    alternation, per-round bookkeeping, reseeding, and snapshots.

    Instances are single-threaded; distinct instances are independent.
    """

    algorithm = ""

    def __init__(self, config: LearnerConfig, graph: NominalGraph, probs=None, seed=0):
        if config.algorithm != self.algorithm:
            raise ConfigError(f"config says {config.algorithm!r} but this learner is {self.algorithm!r}")
        if (probs is None) == (self.algorithm == "exp3-ip"):
            need = "needs" if probs is None else "must not receive"
            raise ConfigError(f"{self.algorithm} {need} the edge-probability table; only exp3-ip takes it")
        self.config = config
        self._graph = graph
        self._k = graph.num_experts
        self._log_weights = np.zeros(self._k)  # canonical: largest entry exactly 0
        self._round = 0
        self._pending = None
        self._mixed: np.ndarray | None = None  # the last pmf-driven round's vector, before normalizing
        self._rng: np.random.Generator
        self.reseed(seed)

    @property
    def rounds_played(self) -> int:
        return self._round

    @property
    def weights(self) -> WeightVector:
        """The current weights, built from the log-weight array on each call."""
        return WeightVector(self._log_weights)

    @property
    def last_pmf(self) -> Pmf | None:
        """The selection distribution of the most recent non-exploration
        round, built on each call from the same vector the round sampled from."""
        return None if self._mixed is None else Pmf(self._mixed)

    def reseed(self, seed) -> None:
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        self._rng = np.random.Generator(np.random.Philox(seed))

    def select(self, t: int, graph: NominalGraph | None = None) -> int:
        """Choose round ``t``'s expert; ``graph``, if given, must be the learner's own."""
        self._check_turn(t, graph)
        choice, extras = self._choose(t)
        self._pending = (t, choice, extras)
        return choice

    def _check_turn(self, t: int, graph: NominalGraph | None) -> None:
        """Raise unless round ``t`` is the next one to choose for, on the learner's own graph."""
        if self._pending is not None:
            raise ProtocolError("select called twice without an update in between")
        if t != self._round + 1:
            raise ProtocolError(f"expected round {self._round + 1}, got {t}")
        if not (graph is None or graph is self._graph or graph == self._graph):
            raise ProtocolError(f"{self.algorithm} runs on the static nominal graph it was built with")

    def update(self, feedback: FeedbackEvent) -> None:
        if self._pending is None:
            raise ProtocolError("update called before select")
        t, choice, _ = self._pending
        if feedback.t != t:
            raise ProtocolError(f"feedback is for round {feedback.t}, learner is at round {t}")
        if feedback.chosen != choice:
            raise ProtocolError(f"feedback says index {feedback.chosen} was chosen, learner chose {choice}")
        observed = feedback.observed
        fired = np.fromiter((j - 1 for j, _ in observed), dtype=np.int64, count=len(observed))
        losses = np.fromiter((loss for _, loss in observed), dtype=float, count=len(observed))
        self._observe(t, choice, fired, losses, None)

    def _observe(self, t: int, chosen: int, fired: np.ndarray, losses: np.ndarray, hits) -> None:
        """Take the feedback of the round ``select`` just chose ``chosen``
        for: the 0-based positions whose losses were revealed, in feedback
        order, those losses, and the hit mask over ``chosen``'s
        out-positions that ``environment._fire`` drew them from.
        ``run_episode`` calls this directly.  ``hits`` is None when the
        feedback came through ``update``.  Where each check runs:

        * losses in [0, 1]: ``run_episode``'s table check before round 1;
          from ``update``, the estimate kernels (and ``Exp3._apply``);
        * activations on out-edges only: ``environment._Feedback``; from ``update``, ``_hits``;
        * q > 0 and trial counts in [1, M]: the estimate kernels, both paths;
        * finite estimates and weights: ``_exp_update``'s one sum, both paths."""
        self._apply(chosen, fired, losses, hits, self._pending[2])
        self._pending = None
        self._round = t

    # -- hooks ------------------------------------------------------------

    def _choose(self, t):
        raise NotImplementedError

    def _apply(self, chosen, fired, losses, hits, extras):
        raise NotImplementedError

    # -- shared steps --------------------------------------------------------

    def _sample(self, mixed: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
        """Normalize the round's selection vector and draw from it: returns
        the 1-based choice, the pmf and its running sum.  The mixing kernels
        write no negative entry and no -0.0, so a sum within the tolerance of
        1 is ``_normalized``'s divisor; any other sum goes to ``_normalized``."""
        self._mixed = mixed
        total = mixed.sum()
        probs = mixed / total if abs(total - 1.0) <= PMF_TOLERANCE else _normalized(mixed)
        cum = _cdf(probs)
        return int(_invert_cdf(cum, self._rng.random())) + 1, probs, cum

    def _exp_update(self, eta: float, fired: np.ndarray, values: np.ndarray) -> None:
        """Exponential-weights step with the estimates ``values`` at ``fired``
        and 0 elsewhere, which leave lw as it is (lw - eta * 0.0 is lw); a
        zero rate leaves every weight.  One sum checks the result; when it is
        not finite, ``_exp_weight_step`` takes the step and raises what it
        raises.  The estimates are >= 0 and the rate is in [0, 1]."""
        if eta > 0 and fired.size:
            log_weights = self._log_weights.copy()
            log_weights[fired] -= eta * values
            if not math.isfinite(log_weights.sum()):
                estimates = np.zeros(self._k)
                estimates[fired] = values
                log_weights = _exp_weight_step(self._log_weights, eta, estimates)  # canonical: max is 0.0
            self._log_weights = log_weights - log_weights.max()

    def _hits(self, chosen: int, fired: np.ndarray, hits) -> np.ndarray:
        """The round's hit mask over ``chosen``'s out-positions.  Feedback
        from ``update`` (``hits`` None) was not drawn by ``_fire``, so its
        activations are checked against the graph here."""
        if hits is None:
            realized = np.zeros(self._k, dtype=bool)
            realized[fired] = True
            hits = _out_edge_hits(self._graph, chosen, realized)
        return hits

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> str:
        """Serialize the learner between rounds; restore with load_snapshot."""
        if self._pending is not None:
            raise ProtocolError("snapshot only permitted between rounds (after update)")
        payload = {
            "version": SNAPSHOT_VERSION,
            "algorithm": self.algorithm,
            "round": self._round,
            "log_weights": self._log_weights.tolist(),
            "rng": _encode_rng_state(self._rng),
            "config": {
                "schedule": format_schedule(self.config.schedule),
                "min_observations": self.config.min_observations,
                "confidence_width": self.config.confidence_width,
                "epsilon": self.config.epsilon,
            },
            "extra": self._extra_state(),
        }
        return json.dumps(payload)

    def _extra_state(self) -> dict:
        return {}

    def _restore_extra(self, extra: dict) -> None:
        pass


def _snapshot_array(fields: dict, name: str, shape: tuple, dtype=np.int64, bounds=None) -> np.ndarray:
    """The snapshot field ``name`` as an array; raises naming it unless of shape ``shape`` and within ``bounds``."""
    try:
        values = np.array(fields[name], dtype=dtype)
    except ValueError as exc:  # a ragged list
        raise ValueError(f"snapshot field {name!r}: {exc}") from None
    if values.shape != shape:
        raise ValueError(f"snapshot field {name!r} has shape {values.shape}, expected {shape}")
    if bounds is not None and not ((values >= bounds[0]) & (values <= bounds[1])).all():
        raise ValueError(f"snapshot field {name!r} must lie in [{bounds[0]}, {bounds[1]}]")
    return values


def _encode_rng_state(rng: np.random.Generator):
    def conv(obj):
        if isinstance(obj, dict):
            return {k: conv(v) for k, v in obj.items()}
        if isinstance(obj, np.ndarray):
            return {"__array__": obj.tolist(), "dtype": str(obj.dtype)}
        if isinstance(obj, np.integer):
            return int(obj)
        return obj

    return conv(rng.bit_generator.state)


def _decode_rng_state(payload) -> np.random.Generator:
    def conv(obj):
        if isinstance(obj, dict):
            if "__array__" in obj:
                return np.array(obj["__array__"], dtype=obj["dtype"])
            return {k: conv(v) for k, v in obj.items()}
        return obj

    state = conv(payload)
    if state.get("bit_generator") != "Philox":
        raise ValueError(f"unsupported generator {state.get('bit_generator')!r} in snapshot")
    bit_gen = np.random.Philox()
    bit_gen.state = state
    return np.random.Generator(bit_gen)


class Exp3IP(_LearnerBase):
    """Informative-setting learner: uses the revealed edge probabilities both
    to spread exploration over the dominating set and to importance-weight
    the observed losses by their exact observation probabilities."""

    algorithm = "exp3-ip"

    def __init__(self, config, graph, probs=None, seed=0):
        super().__init__(config, graph, probs, seed)
        view, table = self._view(graph, probs)
        self._table = _GraphTable.build(view, table, greedy_dominating_set(view))
        self._doubling = DoublingState() if isinstance(config.schedule, DoublingSchedule) else None

    def _view(self, graph, probs):
        """The (graph, edge-probability table) the learner mixes and estimates on."""
        return graph, probs

    def _eta(self, t: int) -> float:
        if self._doubling is not None:
            return math.sqrt(math.log(self._k) / 2.0 ** (self._doubling.epoch + 1))
        return eta_at(self.config.schedule, t)

    def _choose(self, t):
        eta = self._eta(t)
        choice, pmf, _ = self._sample(_informed_mix(self._log_weights, eta, self._table))
        return choice, (pmf, eta)

    def _apply(self, chosen, fired, losses, hits, extras):
        pmf, eta = extras
        if not fired.size and self._doubling is None:
            return  # nothing observed: every step below is a no-op
        q = pmf @ self._table.masked
        values = _importance_estimates(losses, q[fired], hits is not None)
        self._hits(chosen, fired, hits)  # after the loss check, as in exp3-up and exp3-gr
        self._exp_update(eta, fired, values)
        if self._doubling is not None:
            self._doubling, restart, _ = ip_doubling_step(self._doubling, pmf, q, math.log(self._k))
            if restart:
                self._log_weights = np.zeros(self._k)

    def _extra_state(self):
        if self._doubling is None:
            return {"doubling": None}
        return {"doubling": {"epoch": self._doubling.epoch, "accumulated": self._doubling.accumulated}}

    def _restore_extra(self, extra):
        d = extra.get("doubling")
        if (d is None) != (self._doubling is None):
            raise ValueError("snapshot field 'doubling' must be null exactly when the schedule is not doubling")
        if d is not None:
            epoch, accumulated = d["epoch"], float(d["accumulated"])
            if not (type(epoch) is int and 0 <= epoch < 1023):  # 2.0 ** (epoch + 1) in _eta must not overflow
                raise ValueError(f"snapshot field 'epoch' must be an integer in [0, 1023), got {epoch!r}")
            if not 0 <= accumulated <= 2.0**epoch:  # NaN fails
                raise ValueError(f"snapshot field 'accumulated' must lie in [0, 2^epoch], got {accumulated!r}")
            self._doubling = DoublingState(epoch, accumulated)


class Exp3Dom(Exp3IP):
    """Uncertainty-ignoring baseline: runs the informative-setting machinery
    with every edge probability forced to 1, i.e. the nominal graph is taken
    at face value."""

    algorithm = "exp3-dom"

    def _view(self, graph, probs):
        return graph, EdgeProbabilityTable.constant(graph, 1.0)


class Exp3(Exp3IP):
    """Classic bandit baseline: assumes self-loop-only feedback with certain
    observation of the chosen arm, and ignores side observations entirely.
    When the chosen arm's own loss goes unobserved the round's estimate is
    zero."""

    algorithm = "exp3"

    def _view(self, graph, probs):
        bandit = NominalGraph.bandit(graph.num_experts)
        return bandit, EdgeProbabilityTable.constant(bandit, 1.0)

    def _apply(self, chosen, fired, losses, hits, extras):
        if hits is None:
            # Through update, a bad loss anywhere in the feedback raises, as
            # in exp3-ip; estimating against q = 1 checks only the losses.
            _importance_estimates(losses, np.ones(losses.size))
        own = fired == chosen - 1
        super()._apply(chosen, fired[own], losses[own], hits, extras)


class _UninformativeBase(_LearnerBase):
    """Shared forced-exploration machinery for the uninformative learners.
    A subclass gives its per-edge sample store (``_store``) and the loss
    estimates of a pmf-driven round (``_estimates``)."""

    def __init__(self, config, graph, probs=None, seed=0):
        super().__init__(config, graph, probs, seed)
        self._dominating = greedy_dominating_set(graph)
        self._dom = _positions(self._dominating)
        self._explore_counts = np.zeros(self._k, dtype=np.int64)
        self._explore_cursor = 0
        self._epoch: int | None = None
        self._eta_value: float | None = None
        self._set_floor(config.min_observations)

    @property
    def min_observations(self) -> int:
        """The current per-edge sample floor M (epoch-dependent under doubling)."""
        return self._min_obs

    def _eta(self, t: int) -> float:
        if self._epoch is not None:
            return self._eta_value
        return eta_at(self.config.schedule, t)

    def _set_floor(self, min_observations: int) -> None:
        """Set the per-expert sample floor M and recount the exploration
        rounds still owed, sum over experts of max(M - count, 0)."""
        self._min_obs = int(min_observations)
        self._deficit = int(np.maximum(self._min_obs - self._explore_counts, 0).sum())

    def _exploring(self) -> bool:
        return self._deficit > 0

    def _next_exploration(self) -> int:
        for _ in range(self._k):
            v = self._explore_cursor
            self._explore_cursor = (v + 1) % self._k
            if self._explore_counts[v] < self._min_obs:
                return v + 1
        raise InvariantError("exploration requested with no deficit")

    def _choose(self, t):
        self._advance_epochs(t)
        if self._exploring():
            return self._next_exploration(), None
        eta = self._eta(t)
        choice, pmf, cum = self._sample(_uniform_mix(self._log_weights, eta, self._dom))
        return choice, (pmf, cum, eta)

    def _explored(self, chosen: int) -> None:
        """Count a forced-exploration round of ``chosen``, which was short."""
        self._explore_counts[chosen - 1] += 1
        self._deficit -= 1

    def _explore_run(self, t: int, horizon: int, graph: NominalGraph, fire) -> np.ndarray:
        """Play the forced rounds from round ``t`` on, up to the deficit, the
        end of the doubling epoch and ``horizon``, as one block; returns
        their 1-based choices (none when round t is not forced).  Each is
        chosen as ``select(t, graph)`` would; ``fire`` is the episode's
        ``environment._Feedback.fire_run``, and each source's rows are
        recorded in one call."""
        if not self._deficit and (self._epoch is None or t <= 2 ** (self._epoch + 1)):
            return _NO_CHOICES  # no round owed and no restart due to raise the floor
        self._check_turn(t, graph)
        self._advance_epochs(t)
        n = min(self._deficit, horizon - t + 1)
        if self._epoch is not None:
            n = min(n, 2 ** (self._epoch + 1) - t + 1)
        picks = np.empty(n, dtype=np.int64)
        for r in range(n):
            picks[r] = choice = self._next_exploration()
            self._explored(choice)
        if n:
            hits, starts = fire(picks)
            order = np.argsort(picks, kind="stable")
            sources, first = np.unique(picks[order], return_index=True)
            for source, rows in zip(sources.tolist(), np.split(starts[order], first[1:])):
                degree = self._graph.out_positions[source - 1].size
                self._store._record(source - 1, hits[rows[:, None] + np.arange(degree)])
            self._round = t + n - 1
        return picks

    def _apply(self, chosen, fired, losses, hits, extras):
        if extras is None:  # exploration round: record samples, no weight update
            self._store._record(chosen - 1, self._hits(chosen, fired, hits))
            self._explored(chosen)
            return
        values = self._estimates(fired, losses, extras, hits is not None)
        # Recorded after estimating, so the round's estimates read only earlier rounds.
        self._store._record(chosen - 1, self._hits(chosen, fired, hits))
        self._exp_update(extras[2], fired, values)

    def _advance_epochs(self, t: int) -> None:
        if self._epoch is None:
            return
        advanced = False
        while t > 2 ** (self._epoch + 1):
            self._epoch += 1
            advanced = True
        if advanced:
            self._apply_epoch_params()

    def _apply_epoch_params(self) -> None:
        raise NotImplementedError

    def _epoch_eta(self, epoch: int) -> float:
        """The doubling schedule's learning rate in ``epoch``."""
        raise NotImplementedError

    def _restart(self, eta: float, min_observations: int) -> None:
        """Epoch restart: reset weights to uniform and raise the sample floor;
        existing counters/buffers are retained, so the exploration loop only
        tops up the per-expert deficit."""
        self._eta_value = eta
        self._set_floor(min_observations)
        self._log_weights = np.zeros(self._k)

    def _base_extra(self) -> dict:
        return {
            "explore_counts": self._explore_counts.tolist(),
            "explore_cursor": self._explore_cursor,
            "epoch": self._epoch,
            "eta_value": self._eta_value,
            "min_observations": self._min_obs,
        }

    def _restore_base_extra(self, extra: dict) -> None:
        self._explore_counts = _snapshot_array(extra, "explore_counts", (self._k,), bounds=(0, math.inf))
        self._explore_cursor = int(_snapshot_array(extra, "explore_cursor", (), bounds=(0, self._k - 1)))
        epoch, eta = extra["epoch"], extra["eta_value"]
        first = self._epoch  # a fresh learner's: None, or the doubling schedule's first epoch
        if (epoch is None) != (first is None):
            raise ValueError("snapshot field 'epoch' must be null exactly when the schedule is not doubling")
        if epoch is not None and not (type(epoch) is int and epoch >= first):
            raise ValueError(f"snapshot field 'epoch' must be an integer >= {first}, got {epoch!r}")
        if (eta is None) != (epoch is None):
            raise ValueError("snapshot field 'eta_value' must be null exactly when 'epoch' is")
        if epoch is not None:
            try:
                expected = self._epoch_eta(epoch)
            except OverflowError:
                raise ValueError(f"snapshot field 'epoch' is out of range, got {epoch}") from None
            if eta != expected:  # NaN fails
                raise ValueError(f"snapshot field 'eta_value' must be {expected!r} at epoch {epoch}, got {eta!r}")
        self._epoch, self._eta_value = epoch, eta
        self._set_floor(int(_snapshot_array(extra, "min_observations", (), bounds=(1, math.inf))))


class Exp3UP(_UninformativeBase):
    """Estimation-based uninformative learner: forced round-robin exploration
    builds per-edge sample means, after which losses are importance-weighted
    by an inflated estimate of their observation probability."""

    algorithm = "exp3-up"

    def __init__(self, config, graph, probs=None, seed=0):
        # Set first: the base constructor sets the floor, which tracks it on the state.
        self._state = ProbabilityEstimatorState(graph)
        self._xi = config.confidence_width
        super().__init__(config, graph, probs, seed)
        if isinstance(config.schedule, DoublingSchedule):
            self._epoch = up_start_epoch(self._k)
            self._eta_value, min_obs, self._xi = up_doubling_params(self._epoch, self._k)
            self._set_floor(min_obs)

    @property
    def estimator_state(self) -> ProbabilityEstimatorState:
        return self._state

    @property
    def confidence_width(self) -> float:
        return self._xi

    def _set_floor(self, min_observations: int) -> None:
        super()._set_floor(min_observations)
        self._state._track(self._min_obs, self._xi / math.sqrt(self._min_obs))

    def _epoch_eta(self, epoch: int) -> float:
        return up_doubling_params(epoch, self._k)[0]

    def _apply_epoch_params(self) -> None:
        eta, min_obs, xi = up_doubling_params(self._epoch, self._k)
        self._xi = xi
        self._restart(eta, min_obs)

    @property
    def _store(self):
        return self._state

    def _estimates(self, fired, losses, extras, losses_checked):
        state = self._state
        if state._short:  # no in-edge can be short once every edge holds M samples
            _check_in_edges(self._graph, state.counts, self._min_obs, fired)
        return _importance_estimates(losses, (extras[0] * state._divisors[fired]).sum(axis=-1), losses_checked)

    def _extra_state(self):
        extra = self._base_extra()
        extra.update(
            {
                "counts": self._state.counts.tolist(),
                "sums": self._state.sums.tolist(),
                "confidence_width": self._xi,
            }
        )
        return extra

    def _restore_extra(self, extra):
        counts, sums = (_snapshot_array(extra, name, (self._k, self._k)) for name in ("counts", "sums"))
        if not ((sums >= 0) & (sums <= counts)).all():
            raise ValueError("snapshot field 'sums' must lie in [0, counts] on every edge")
        self._state.counts, self._state.sums = counts, sums
        self._xi = float(extra["confidence_width"])
        self._restore_base_extra(extra)  # sets the floor, which rebuilds the divisors


class Exp3GR(_UninformativeBase):
    """Resampling-based uninformative learner: keeps a window of recent edge
    activations and, for each observed loss, multiplies it by a capped
    first-success trial count that estimates the inverse observation
    probability."""

    algorithm = "exp3-gr"

    def __init__(self, config, graph, probs=None, seed=0):
        super().__init__(config, graph, probs, seed)
        if isinstance(config.schedule, DoublingSchedule):
            if config.epsilon is None:
                raise ConfigError("exp3-gr with the doubling schedule needs epsilon (edge-probability lower bound)")
            if self._k < 2:
                raise ConfigError("exp3-gr with the doubling schedule needs K >= 2 (ln K must be positive)")
            self._epoch = 0
            self._eta_value, min_obs = gr_doubling_params(0, self._k, len(self._dominating), config.epsilon)
            self._set_floor(min_obs)
        self._buffers = ResampleBuffer(graph, self._min_obs)

    @property
    def buffers(self) -> ResampleBuffer:
        return self._buffers

    def _epoch_eta(self, epoch: int) -> float:
        return gr_doubling_params(epoch, self._k, len(self._dominating), self.config.epsilon)[0]

    def _apply_epoch_params(self) -> None:
        eta, min_obs = gr_doubling_params(self._epoch, self._k, len(self._dominating), self.config.epsilon)
        self._restart(eta, min_obs)
        self._buffers.grow(min_obs)

    @property
    def _store(self):
        return self._buffers

    def _estimates(self, fired, losses, extras, losses_checked):
        trials = _resample_targets(extras[1], self._buffers, fired, self._min_obs, self._rng)
        return _resampled_estimates(losses, trials, self._min_obs, losses_checked)

    def _extra_state(self):
        extra = self._base_extra()
        extra.update(
            {
                "capacity": self._buffers.capacity,
                "buffers": self._buffers.samples(),
            }
        )
        return extra

    def _restore_extra(self, extra):
        self._restore_base_extra(extra)
        self._buffers = ResampleBuffer.from_samples(self._graph, int(extra["capacity"]), extra["buffers"])


_REGISTRY = {cls.algorithm: cls for cls in (Exp3, Exp3Dom, Exp3IP, Exp3UP, Exp3GR)}


def make_learner(config: LearnerConfig, graph: NominalGraph, probs=None, seed=0):
    """Build the learner named by ``config.algorithm``.

    Only exp3-ip takes (and requires) the edge-probability table; passing it
    to any other learner is a configuration error.
    """
    cls = _REGISTRY.get(config.algorithm)
    if cls is None:
        raise ConfigError(f"unknown algorithm {config.algorithm!r}")
    return cls(config, graph, probs=probs, seed=seed)


def load_snapshot(text: str, graph: NominalGraph, probs=None):
    """Rebuild a learner from ``snapshot()`` output plus its (static) graph.
    A field that does not fit the graph raises ValueError naming it."""
    payload = json.loads(text)
    if payload.get("version") != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {payload.get('version')}")
    cfg = payload["config"]
    config = LearnerConfig(
        algorithm=payload["algorithm"],
        schedule=parse_schedule(cfg["schedule"]),
        min_observations=int(cfg["min_observations"]),
        confidence_width=float(cfg["confidence_width"]),
        epsilon=cfg["epsilon"],
    )
    learner = make_learner(config, graph, probs=probs, seed=0)
    learner._round = int(payload["round"])
    learner._log_weights = WeightVector(_snapshot_array(payload, "log_weights", (learner._k,), float)).log_weights
    learner._rng = _decode_rng_state(payload["rng"])
    learner._restore_extra(payload["extra"])
    return learner
