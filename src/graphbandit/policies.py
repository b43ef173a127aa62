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

Each is Exp3 with exploration over a dominating set, and its settings say how:
``_dom`` (the set's 0-based positions), ``_share`` (each member's share of
the exploration mass; None splits it uniformly), a loss estimate and, for
exp3-up and exp3-gr, the class ``_Store`` of the per-edge sample store.
``_LearnerBase._choose`` mixes and draws for all five.  ``Exp3IP`` shares by
expected observations on the revealed table (exp3-ip) or the nominal graph
with every probability 1 (exp3-dom); exp3's q is its own pmf, and it explores
every expert equally.  Only exp3-ip takes the edge-probability table.  Expert
indices crossing the public interface are 1-based.

A learner's state is plain arrays.  ``run_episode`` hands each round's
feedback to ``_observe`` as arrays; ``update`` checks a ``FeedbackEvent``
and hands it on as the same arrays, and ``weights``/``last_pmf`` build their
objects from the arrays on demand.  ``_LearnerBase._fields`` declares a
snapshot's stored and derived fields once: ``snapshot()`` writes them;
``load_snapshot`` reads the stored ones back, re-derives the rest and rejects
a derived value that differs, an undeclared key or a non-integer version.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .environment import FeedbackEvent
from .errors import ConfigError, ContractError, InvariantError, PhaseOrderError, ProtocolError, _integer, _real
from .estimator import Pmf, WeightVector, _cdf, _exp_weight_step, _importance_estimates, _invert_cdf, _normalized
from .estimator import PMF_TOLERANCE, _cumsum, _max, _min, _softmax, _sum

# Public views of the kernels above, kept importable from this module, where
# perfbench/tracer.py looks them up; the learners call the kernels.
from .estimator import exp_weight_update, importance_loss_estimate, sample_index  # noqa: F401
from .graph import EdgeProbabilityTable, NominalGraph, VertexSet, _check_fits, greedy_dominating_set
from .schedulers import (
    DoublingSchedule,
    DoublingState,
    InverseSqrtEta,
    Schedule,
    doubling_eta,
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
    "Exp3UP",
    "Exp3GR",
    "make_learner",
    "load_snapshot",
]

ALGORITHMS = ("exp3", "exp3-dom", "exp3-ip", "exp3-up", "exp3-gr")

_NO_CHOICES = np.empty(0, dtype=np.int64)
# Forced-exploration rounds that one ``_explore_run`` call plays at most.
_MAX_FORCED_RUN = 4_096


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
        object.__setattr__(self, "min_observations", _integer(self.min_observations, "min_observations"))
        if not (_real(self.confidence_width) and self.confidence_width >= 1):
            raise ConfigError(f"confidence_width must be a number >= 1, got {self.confidence_width!r}")
        if self.epsilon is not None and not (_real(self.epsilon) and 0 < self.epsilon <= 1):
            raise ConfigError(f"epsilon must be a number in (0, 1], got {self.epsilon!r}")
        object.__setattr__(self, "confidence_width", float(self.confidence_width))  # numpy's too: snapshots are JSON
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", float(self.epsilon))
        if self.algorithm == "exp3-gr" and isinstance(self.schedule, DoublingSchedule) and self.epsilon is None:
            raise ConfigError("exp3-gr with the doubling schedule needs epsilon (edge-probability lower bound)")


# ---------------------------------------------------------------------------
# Selection distributions and observation probabilities
# ---------------------------------------------------------------------------


def _check_eta(eta: float) -> float:
    if not 0 <= eta <= 1:  # NaN and +-inf fail too
        raise ValueError(f"mixing rate must be in [0, 1], got {eta}")
    return float(eta)


def _observation_table(graph: NominalGraph, probs: EdgeProbabilityTable) -> np.ndarray:
    """``probs``' (K, K) edge probabilities with 0 on ``graph``'s non-edges; raises unless they fit."""
    _check_fits(graph, probs.probs)
    return np.where(graph.adjacency, probs.probs, 0.0)


def _informed_table(table: np.ndarray, dominating: VertexSet):
    """The informed learner's exploration over ``dominating``, computed once:
    its 0-based positions and each member's share of their expected
    observations, the row sums of the (K, K) observation ``table``."""
    expected = table.sum(axis=1)
    dom = _positions(dominating)
    total = expected[dom].sum()
    if total <= 0:
        raise InvariantError("dominating set has zero expected observations")
    return dom, expected[dom] / total


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
    dom, share = _informed_table(_observation_table(graph, probs), dominating)
    if weights.log_weights.size != graph.num_experts:
        raise ValueError("weight vector and graph disagree on the number of experts")
    return Pmf(_mix(weights.log_weights, eta, dom, share))


def _mix(log_weights: np.ndarray, eta: float, dom: np.ndarray, share: np.ndarray | None) -> np.ndarray:
    """The selection vector before ``Pmf``'s check-and-normalize: the
    softmax of ``log_weights`` mixed with exploration mass ``eta`` over the
    0-based dominating-set positions ``dom``, split by ``share`` (the
    informed learner's) or, when it is None, uniformly."""
    eta = _check_eta(eta)
    out = (1.0 - eta) * _softmax(log_weights)
    out[dom] += eta / dom.size if share is None else eta * share
    return out


def observation_probs(pmf: Pmf, graph: NominalGraph, probs: EdgeProbabilityTable) -> np.ndarray:
    """Exact probability that each expert's loss gets observed this round:
    entry i-1 sums, over expert i's in-neighbours, selection probability
    times edge probability."""
    return pmf.probs @ _observation_table(graph, probs)


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
    _check_view(i, pmf, graph, state, min_observations)
    _check_in_edges(graph, state.counts, min_observations, np.array([i - 1]))
    divisors = _inflated_divisors(graph.adjacency, state.estimates, confidence_width / math.sqrt(min_observations))
    return float((pmf.probs * divisors[i - 1]).sum())


def _check_view(i: int, pmf: Pmf, graph: NominalGraph, store, min_observations: int) -> None:
    """Raise unless an estimate view's arguments agree: expert ``i`` in 1..K,
    a K-entry ``pmf``, a sample floor that is an integer >= 1 and a per-edge
    sample ``store`` built on ``graph``."""
    k = graph.num_experts
    if not 1 <= i <= k:
        raise ValueError(f"expert index {i} out of range 1..{k}")
    if pmf.probs.size != k:
        raise ValueError(f"the pmf has {pmf.probs.size} entries, the graph {k} experts")
    _integer(min_observations, "min_observations")
    if store._graph != graph:
        raise ValueError(f"the {type(store).__name__} belongs to a different graph")


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
    size follows the samples held, not the capacity (1 unless given; ``grow``
    raises it).  A source's out-edges are a contiguous range of ids, targets
    ascending.  The buffer counts the edges whose rings are not yet full, so
    a window check costs O(1) once every ring is.

    Four tables built once per graph lay out resampling: target j's block
    size (a draw row, then one row per in-edge, sources ascending) and, at
    (j, d) for its trials that draw expert d, the block row of edge (d, j),
    the edge read (the self-loop stands in for a non-edge) and the in-edge mask.
    """

    def __init__(self, graph: NominalGraph, capacity: int = 1):
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
        self._in_edge = np.ascontiguousarray(adjacency.T)
        self._block_size = 1 + self._in_edge.sum(axis=1)
        self._block_row = np.where(self._in_edge, self._in_edge.cumsum(axis=1), 0)
        self._trial_edge = np.where(self._in_edge, self._edge_id.T, self._edge_id.diagonal()[:, None])
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

    def _check_targets(self, targets0: np.ndarray, window: int) -> None:
        """Raise while an in-edge of the 0-based ``targets0`` holds fewer than
        ``window`` samples, naming the first in block order: each target's
        self-loop, then its in-edges by ascending source."""
        if self._short or window > self._capacity:
            edges = np.column_stack((self._trial_edge[targets0, targets0], self._trial_edge[targets0]))
            self._full_windows(edges.ravel(), window)

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
        its last ``capacity`` samples.  A key that is not an edge raises
        KeyError, and a ring that is not a list of 0/1 integers ValueError."""
        buffers = cls(graph, capacity)
        edge_of = {key: e for e, key in enumerate(buffers._edge_keys())}
        for key, values in samples.items():
            e = edge_of[key]
            if not (isinstance(values, list) and all(type(v) is int and 0 <= v <= 1 for v in values)):  # no bools
                raise ValueError(f"snapshot field 'buffers' must hold a list of 0/1 integers on edge {key}")
            values = values[-buffers._capacity :]
            buffers._widen(len(values))
            buffers._ring[e, : len(values)] = values
            buffers._written[e] = len(values)
        buffers._count_short()
        return buffers


def _trial_slots(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The slot each resampling trial reads: the argsort of a window row's M
    ``keys`` is its fresh permutation, and trial u of the (n, M) ``rows``
    reads its row at the slot the permutation puts at position u."""
    return keys.argsort(axis=-1)[rows, np.arange(keys.shape[1])]


def _first_success(in_edge: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Capped first-success trial counts: min(first successful trial, M)
    per row, in [1, M], from the (n, M) samples the trials read and the mask
    of the trials that drew an in-neighbour; the others' samples are masked."""
    hit = samples & in_edge
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
    buffers._check_targets(targets0, window)  # before any draw
    sizes = buffers._block_size[targets0]
    ends = _cumsum(sizes)
    starts = ends - sizes
    uniforms = rng.random((int(ends[-1]), window))
    cells = targets0[:, None] * buffers._graph.num_experts + _invert_cdf(cum, uniforms.take(starts, axis=0))
    slots = _trial_slots(uniforms, starts[:, None] + buffers._block_row.take(cells))
    edges = buffers._trial_edge.take(cells)
    # Only the samples the trials read are gathered, not whole windows.
    samples = buffers._window_samples(edges, buffers._written[edges], window, slots)
    return _first_success(buffers._in_edge.take(cells), samples)


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
    _check_view(i, pmf, graph, buffers, min_observations)
    return int(_resample_targets(_cumsum(pmf.probs), buffers, np.array([i - 1]), min_observations, rng)[0])


def _resampled_estimates(losses: np.ndarray, trials: np.ndarray, cap: int) -> np.ndarray:
    """trials * losses for a round's observed losses, checked in [0, 1] by the
    caller; the first trial count outside [1, cap] raises."""
    if trials.size and not (_min(trials) >= 1 and _max(trials) <= cap):
        raise ContractError(f"trial count {trials[((trials < 1) | (trials > cap)).argmax()]} outside [1, {cap}]")
    return trials * losses


# ---------------------------------------------------------------------------
# Learners
# ---------------------------------------------------------------------------


class _LearnerBase:
    """Protocol plumbing shared by all learners: strict select/update
    alternation, per-round bookkeeping, reseeding, and snapshots.

    Instances are single-threaded; distinct instances are independent.
    ``algorithm`` is the config's name, one of the class's rows in ``_REGISTRY``.
    """

    def __init__(self, config: LearnerConfig, graph: NominalGraph, probs=None, seed=0):
        if _REGISTRY[config.algorithm] is not type(self):
            raise ConfigError(f"config says {config.algorithm!r} but this learner is {type(self).__name__}")
        self.algorithm = config.algorithm
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
        """Check ``feedback`` in the order ``_observe`` lists, then take it as
        ``run_episode``'s arrays; a rejected event leaves the learner as it was."""
        if self._pending is None:
            raise ProtocolError("update called before select")
        t, choice, extras = self._pending
        if feedback.t != t:
            raise ProtocolError(f"feedback is for round {feedback.t}, learner is at round {t}")
        if feedback.chosen != choice:
            raise ProtocolError(f"feedback says index {feedback.chosen} was chosen, learner chose {choice}")
        observed = feedback.observed
        distinct = {j for j, _ in observed}
        if len(distinct) != len(observed) or not distinct.issubset(range(1, self._k + 1)):
            raise ContractError(f"observed indices must be distinct, in 1..{self._k}: {[j for j, _ in observed]}")
        fired = np.fromiter((j - 1 for j, _ in observed), dtype=np.int64, count=len(observed))
        losses = np.fromiter((loss for _, loss in observed), dtype=float, count=len(observed))
        if extras is not None and losses.size and not 0 <= _min(losses) <= _max(losses) <= 1:  # NaN fails
            raise ValueError(f"loss must be in [0, 1], got {losses[(~((losses >= 0) & (losses <= 1))).argmax()]}")
        hits = _out_edge_hits(self._graph, choice, np.bincount(fired, minlength=self._k))
        self._observe(t, choice, fired, losses, hits)

    def _observe(self, t: int, chosen: int, fired: np.ndarray, losses: np.ndarray, hits: np.ndarray) -> None:
        """Take the checked feedback of the round ``select`` just chose
        ``chosen`` for: the 0-based positions revealed, in feedback order,
        their losses and the hit mask over ``chosen``'s out-positions.
        ``run_episode`` calls this directly.  Each check runs once, in this
        order (``run_episode``'s stand-in in brackets):

        1. indices in 1..K, none twice: ``update`` (fired out-positions);
        2. losses in [0, 1], pmf-driven rounds: ``update`` (the loss-table check);
        3. activations on out-edges only: ``update`` (fired out-positions);
        4. q > 0 and trial counts in [1, M]: the estimate kernels;
        5. finite estimates and weights: ``_exp_update``'s one sum."""
        self._apply(chosen, fired, losses, hits, self._pending[2])
        self._pending = None
        self._round = t

    def _choose(self, t):
        """Round ``t``'s pmf-driven choice, the one mix and draw of every
        learner: the weights mixed with exploration over the 0-based
        dominating-set positions ``_dom``, split by ``_share`` (None splits
        it uniformly).  Returns the choice and (pmf, its running sum, rate)."""
        eta = self._eta(t)
        choice, pmf, cum = self._sample(_mix(self._log_weights, eta, self._dom, self._share))
        return choice, (pmf, cum, eta)

    def _apply(self, chosen, fired, losses, hits, extras):
        raise NotImplementedError

    # -- shared steps --------------------------------------------------------

    def _eta(self, t: int) -> float:
        """Round ``t``'s rate: the doubling epoch's ``_eta_value``, or the schedule's."""
        if self._eta_value is not None:
            return self._eta_value
        return eta_at(self.config.schedule, t)

    def _sample(self, mixed: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
        """Normalize the round's selection vector and draw from it: returns
        the 1-based choice, the pmf and its running sum.  The mixing kernels
        write no negative entry and no -0.0, so a sum within the tolerance of
        1 is ``_normalized``'s divisor; any other sum goes to ``_normalized``."""
        self._mixed = mixed
        total = _sum(mixed)
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
            if not math.isfinite(_sum(log_weights)):
                estimates = np.zeros(self._k)
                estimates[fired] = values
                log_weights = _exp_weight_step(self._log_weights, eta, estimates)  # canonical: max is 0.0
            self._log_weights = log_weights - _max(log_weights)

    # -- snapshots ---------------------------------------------------------

    def _fields(self) -> dict:
        """The one declaration of a snapshot, in text order and nested as the text nests it."""
        k, config, doubling = self._k, self.config, isinstance(self.config.schedule, DoublingSchedule)
        fields = {
            "version": _VERSION,
            "algorithm": _Derived(self.algorithm),
            "round": _Stored(self, "_round", partial(_read, bounds=(0, math.inf))),
            "log_weights": _Stored(
                self, "_log_weights", lambda text, name: WeightVector(_read(text, name, (k,), float)).log_weights
            ),
            "rng": _Stored(self, "_rng", _read_rng, _encode_rng_state),
            "config": {
                "schedule": _Derived(format_schedule(config.schedule)),
                "min_observations": _Derived(config.min_observations),
                "confidence_width": _Derived(config.confidence_width),
                "epsilon": _Derived(config.epsilon),
            },
        }
        if not isinstance(self, _UninformativeBase):
            fields["extra"] = {"doubling": _Stored(self, "_doubling", _read_doubling, asdict) if doubling else _NULL}
            return fields
        extra = fields["extra"] = {  # read back into a fresh learner, which is at its first epoch
            "explore_counts": _Stored(self, "_explore_counts", partial(_read, shape=(k,), bounds=(0, math.inf))),
            "explore_cursor": _Stored(self, "_explore_cursor", partial(_read, bounds=(0, k - 1))),
            "epoch": _Stored(self, "_epoch", partial(_read, bounds=(self._epoch, math.inf))) if doubling else _NULL,
            "eta_value": _Derived(self._eta_value),
            "min_observations": _Derived(self._min_obs),
        }
        if self.algorithm == "exp3-up":
            extra["counts"] = _Stored(self._store, "counts", partial(_read, shape=(k, k), bounds=(0, math.inf)))
            extra["sums"] = _Stored(self._store, "sums", partial(_read, shape=(k, k), bounds=(0, "counts")))
            extra["confidence_width"] = _Derived(self._xi)
        else:
            extra["capacity"] = _Derived(self._store.capacity)
            extra["buffers"] = _Stored(self, "_store", partial(_read_rings, self._graph), ResampleBuffer.samples)
        return fields

    def snapshot(self) -> str:
        """Serialize the learner between rounds; restore with load_snapshot."""
        if self._pending is not None:
            raise ProtocolError("snapshot only permitted between rounds (after update)")
        return json.dumps(_write(self._fields()))


# Stored state: ``holder``'s ``attribute``, written to the text by ``write`` and read back by ``read(text, name)``.
_Stored = namedtuple("_Stored", "holder attribute read write", defaults=(lambda value: np.asarray(value).tolist(),))
# A derived value, recomputed on restore: the text must read as ``value``, of its type (null for None).
_Derived = namedtuple("_Derived", "value")
_VERSION, _NULL = _Derived(1), _Derived(None)  # the layout's version; a field null under this config


def _write(fields: dict) -> dict:
    return {
        name: _write(spec) if isinstance(spec, dict)
        else spec.write(getattr(spec.holder, spec.attribute)) if isinstance(spec, _Stored)
        else spec.value
        for name, spec in fields.items()
    }


def _restore(fields: dict, text, kind) -> None:
    """Walk the declaration ``fields`` over ``text``: read each ``_Stored`` field back into its holder,
    or require each ``_Derived`` field to read as its value and reject any undeclared key."""
    for name, spec in fields.items():
        if isinstance(spec, dict):
            _restore(spec, _read(text, name, dtype=dict), kind)
        elif isinstance(spec, kind) and kind is _Stored:
            setattr(spec.holder, spec.attribute, spec.read(text, name))
        elif isinstance(spec, kind):
            _check(text, name, spec.value)
    if kind is _Derived:
        _declared(text, fields)


def _read(text, name: str, shape: tuple = (), dtype=np.int64, bounds=(-math.inf, math.inf)):
    """The field ``name`` of ``text`` as an array of ``dtype`` (a scalar when ``shape`` is ()), or as it is for
    object, str or dict; raises ValueError naming it unless it is present, of ``shape``, holds JSON integers
    (numbers for float) and lies in ``bounds``, whose upper end may name a field of ``text``."""
    if not isinstance(text, dict) or name not in text:
        raise ValueError(f"snapshot field {name!r} is missing")
    value = text[name]
    if dtype in (object, str, dict):
        if not isinstance(value, dtype):
            raise ValueError(f"snapshot field {name!r} must be a {dtype.__name__}, got {value!r}")
        return value
    try:
        values = np.array(value)
    except ValueError as exc:  # a ragged list
        raise ValueError(f"snapshot field {name!r}: {exc}") from None
    if values.shape != shape:
        raise ValueError(f"snapshot field {name!r} has shape {values.shape}, expected {shape}")
    if values.dtype.kind not in ("i" if np.dtype(dtype).kind == "i" else "if"):  # bools, strings and nulls fail
        raise ValueError(f"snapshot field {name!r} must hold {np.dtype(dtype)} values, got {values.dtype}")
    values = values.astype(dtype)
    lo, hi = bounds  # NaN lies in no bounds
    if not ((values >= lo) & (values <= (np.asarray(text[hi]) if isinstance(hi, str) else hi))).all():
        raise ValueError(f"snapshot field {name!r} must lie in [{lo}, {hi}]")
    return values if shape else values.item()


def _check(text, name: str, value) -> None:
    if _read(text, name, dtype=object if value is None else type(value)) != value:  # NaN never equals
        raise ValueError(f"snapshot field {name!r} must be {json.dumps(value)}, got {json.dumps(text[name])}")


def _declared(text: dict, names) -> None:
    for key in text:
        if key not in names:
            raise ValueError(f"snapshot field {key!r} is not declared")


def _encode_rng_state(rng: np.random.Generator):
    def conv(obj):
        if isinstance(obj, dict):
            return {k: conv(v) for k, v in obj.items()}
        if isinstance(obj, np.ndarray):
            return {"__array__": obj.tolist(), "dtype": str(obj.dtype)}
        return int(obj) if isinstance(obj, np.integer) else obj

    return conv(rng.bit_generator.state)


def _read_rng(text, name: str) -> np.random.Generator:
    def conv(obj):  # arrays are uint64 lists of JSON integers; the other numbers are JSON integers
        if isinstance(obj, dict):
            if "__array__" not in obj:
                return {k: conv(v) for k, v in obj.items()}
            if obj["dtype"] == "uint64" and all(type(v) is int and 0 <= v < 2**64 for v in obj["__array__"]):
                return np.array(obj["__array__"], dtype=np.uint64)
        elif isinstance(obj, str) or type(obj) is int:
            return obj
        raise ValueError(f"not a uint64 array or a JSON integer: {obj!r}")

    field, generator = _read(text, name, dtype=object), np.random.Generator(np.random.Philox())
    try:  # the setter rejects any other generator's state, but drops words and keys it does not read
        generator.bit_generator.state = conv(field)
        if _encode_rng_state(generator) != field:
            raise ValueError("it does not encode back to the same state")
    except (IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"snapshot field {name!r} is not a Philox state: {exc!r}") from None
    return generator


def _read_doubling(text, name: str) -> DoublingState:
    """The informed learner's doubling pair: its epoch, then its accumulated load."""
    state = _read(text, name, dtype=dict)
    _declared(state, ("epoch", "accumulated"))
    epoch = _read(state, "epoch", bounds=(0, 1022))  # 2.0 ** (epoch + 1) must not overflow
    return DoublingState(epoch, _read(state, "accumulated", dtype=float, bounds=(0, 2.0**epoch)))  # NaN fails


def _read_rings(graph: NominalGraph, text, name: str) -> ResampleBuffer:
    """exp3-gr's rings, as wide as the longest; entering the epoch grows them."""
    samples = _read(text, name, dtype=object)
    try:
        return ResampleBuffer.from_samples(graph, max([1, *map(len, samples.values())]), samples)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"snapshot field {name!r} does not fit the graph: {exc!r}") from None


class Exp3IP(_LearnerBase):
    """The informed learner: exploration spread over a dominating set by
    expected observations, and exact importance weights, on the observation
    table ``_masked``: exp3-ip's revealed table, exp3-dom's nominal graph with
    every probability 1.  exp3's table would be the identity, so it keeps none:
    its q is its pmf, and all K experts share its exploration, 1/K each."""

    def __init__(self, config, graph, probs=None, seed=0):
        super().__init__(config, graph, probs, seed)
        if self.algorithm == "exp3":
            self._masked, self._dom, self._share = None, np.arange(self._k), np.full(self._k, 1.0 / self._k)
        else:  # the set first, so that its search's temporaries are freed before the table is built
            dominating = greedy_dominating_set(graph)
            self._masked = graph.adjacency.astype(float) if probs is None else _observation_table(graph, probs)
            self._dom, self._share = _informed_table(self._masked, dominating)
        self._doubling = DoublingState() if isinstance(config.schedule, DoublingSchedule) else None
        self._eta_value = None if self._doubling is None else doubling_eta(0, math.log(self._k))

    def _apply(self, chosen, fired, losses, hits, extras):
        pmf, _, eta = extras
        if self.algorithm == "exp3":
            own = fired == chosen - 1
            fired, losses = fired[own], losses[own]
        if not fired.size and self._doubling is None:
            return  # nothing observed: every step below is a no-op
        q = pmf if self._masked is None else pmf @ self._masked  # pmf @ I is pmf, bit for bit
        self._exp_update(eta, fired, _importance_estimates(losses, q[fired]))
        if self._doubling is not None:
            self._doubling, restart, self._eta_value = ip_doubling_step(self._doubling, pmf, q, math.log(self._k))
            if restart:
                self._log_weights = np.zeros(self._k)


class _UninformativeBase(_LearnerBase):
    """Shared forced-exploration machinery for the uninformative learners.
    A subclass names its per-edge sample store's class ``_Store``, which this
    constructor builds on the graph as ``_store``, and gives the loss
    estimates of a pmf-driven round (``_estimates``).  Exploration mass is
    spread uniformly over the dominating set (``_share`` is None)."""

    _share = None

    def __init__(self, config, graph, probs=None, seed=0):
        super().__init__(config, graph, probs, seed)
        self._store = self._Store(graph)  # entering the first epoch sets its floor
        self._dom = _positions(greedy_dominating_set(graph))
        self._explore_counts = np.zeros(self._k, dtype=np.int64)
        self._explore_cursor = 0
        first = up_start_epoch(self._k) if self.algorithm == "exp3-up" else 0
        self._enter_epoch(first if isinstance(config.schedule, DoublingSchedule) else None)

    @property
    def min_observations(self) -> int:
        """The current per-edge sample floor M (epoch-dependent under doubling)."""
        return self._min_obs

    def _enter_epoch(self, epoch: int | None) -> None:
        """Enter the doubling ``epoch`` (None without doubling) and set all
        that follows from it and the config: the rate, the per-edge sample
        floor M with the exploration rounds still owed (sum over experts of
        max(M - count, 0)), exp3-up's xi and estimator inflation, and
        exp3-gr's buffer capacity.  Counters and samples are kept, so a raised
        floor only tops up the deficit.  Construction, ``_advance_epochs`` and
        ``load_snapshot`` all set these here."""
        config, up = self.config, self.algorithm == "exp3-up"
        eta, floor, xi = None, config.min_observations, config.confidence_width
        if epoch is not None and up:
            eta, floor, xi = up_doubling_params(epoch, self._k)
        elif epoch is not None:
            eta, floor = gr_doubling_params(epoch, self._k, self._dom.size, config.epsilon)
        self._epoch, self._eta_value, self._min_obs, self._xi = epoch, eta, int(floor), xi
        self._deficit = int(np.maximum(self._min_obs - self._explore_counts, 0).sum())
        if up:
            self._store._track(self._min_obs, xi / math.sqrt(self._min_obs))
        else:
            self._store.grow(self._min_obs)

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
        return super()._choose(t)

    def _explored(self, chosen: int) -> None:
        """Count a forced-exploration round of ``chosen``, which was short."""
        self._explore_counts[chosen - 1] += 1
        self._deficit -= 1

    def _explore_run(self, t: int, horizon: int, graph: NominalGraph, fire) -> np.ndarray:
        """Play the forced rounds from round ``t`` on, up to the deficit, the
        epoch's end, ``_MAX_FORCED_RUN`` rounds and ``horizon``, as one block;
        returns their 1-based choices (none when round t is not forced).  Each is
        chosen as ``select(t, graph)`` would; ``fire`` is the episode's
        ``environment._Feedback.fire_run``, and each source's rows are
        recorded in one call."""
        if not self._deficit and (self._epoch is None or t <= 2 ** (self._epoch + 1)):
            return _NO_CHOICES  # no round owed and no restart due to raise the floor
        self._check_turn(t, graph)
        self._advance_epochs(t)
        n = min(self._deficit, horizon - t + 1, _MAX_FORCED_RUN)
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
            self._store._record(chosen - 1, hits)
            self._explored(chosen)
            return
        values = self._estimates(fired, losses, extras)
        # Recorded after estimating, so the round's estimates read only earlier rounds.
        self._store._record(chosen - 1, hits)
        self._exp_update(extras[2], fired, values)

    def _advance_epochs(self, t: int) -> None:
        """Restart when round ``t`` is past the epoch: enter the epoch that
        holds it and reset the weights to uniform."""
        if self._epoch is not None and t > 2 ** (self._epoch + 1):
            epoch = self._epoch
            while t > 2 ** (epoch + 1):
                epoch += 1
            self._enter_epoch(epoch)
            self._log_weights = np.zeros(self._k)


class Exp3UP(_UninformativeBase):
    """Estimation-based uninformative learner: forced round-robin exploration
    builds per-edge sample means, after which losses are importance-weighted
    by an inflated estimate of their observation probability."""

    _Store = ProbabilityEstimatorState

    @property
    def estimator_state(self) -> ProbabilityEstimatorState:
        return self._store

    @property
    def confidence_width(self) -> float:
        return self._xi

    def _estimates(self, fired, losses, extras):
        state = self._store
        if state._short:  # no in-edge can be short once every edge holds M samples
            _check_in_edges(self._graph, state.counts, self._min_obs, fired)
        return _importance_estimates(losses, _sum(extras[0] * state._divisors[fired], axis=-1))


class Exp3GR(_UninformativeBase):
    """Resampling-based uninformative learner: keeps a window of recent edge
    activations and, for each observed loss, multiplies it by a capped
    first-success trial count that estimates the inverse observation
    probability."""

    _Store = ResampleBuffer

    @property
    def buffers(self) -> ResampleBuffer:
        return self._store

    def _estimates(self, fired, losses, extras):
        trials = _resample_targets(extras[1], self._store, fired, self._min_obs, self._rng)
        return _resampled_estimates(losses, trials, self._min_obs)


# Each algorithm's class; the name picks the settings within it.
_REGISTRY = {"exp3": Exp3IP, "exp3-dom": Exp3IP, "exp3-ip": Exp3IP, "exp3-up": Exp3UP, "exp3-gr": Exp3GR}


def make_learner(config: LearnerConfig, graph: NominalGraph, probs=None, seed=0):
    """Build the learner named by ``config.algorithm``.

    Only exp3-ip takes (and requires) the edge-probability table; passing it
    to any other learner is a configuration error.
    """
    return _REGISTRY[config.algorithm](config, graph, probs=probs, seed=seed)


def load_snapshot(text: str, graph: NominalGraph, probs=None):
    """Rebuild a learner from ``snapshot()`` output plus its (static) graph.

    ``_LearnerBase._fields`` declares every field once.  The learner is built
    from ``config``; the stored state is read back, the rest re-derived from it
    (the stored epoch entered), and each derived value must equal the text.  A
    missing field, a mismatch, an undeclared key, a non-integer where an
    integer belongs (``version`` too) or a field that does not fit the graph
    raises ValueError naming the field."""
    payload = json.loads(text)
    _check(payload, "version", _VERSION.value)
    cfg = _read(payload, "config", dtype=dict)
    config = LearnerConfig(
        algorithm=_read(payload, "algorithm", dtype=str),
        schedule=parse_schedule(_read(cfg, "schedule", dtype=str)),
        min_observations=_read(cfg, "min_observations"),
        confidence_width=_read(cfg, "confidence_width", dtype=float),
        epsilon=None if _read(cfg, "epsilon", dtype=object) is None else _read(cfg, "epsilon", dtype=float),
    )
    learner = make_learner(config, graph, probs=probs)
    _restore(learner._fields(), payload, _Stored)
    if isinstance(learner, _UninformativeBase):
        try:
            learner._enter_epoch(learner._epoch)
        except OverflowError:
            raise ValueError(f"snapshot field 'epoch' is out of range, got {learner._epoch}") from None
        except ValueError:  # exp3-gr's buffer never shrinks to the epoch's window
            raise ValueError(f"snapshot field 'buffers' has a ring longer than {learner._min_obs}") from None
    elif learner._doubling is not None:
        learner._eta_value = doubling_eta(learner._doubling.epoch, math.log(learner._k))
    _restore(learner._fields(), payload, _Derived)
    return learner
