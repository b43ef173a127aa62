"""The learners estimate every observed loss of a round in one call.

These tests pin that batched path against the per-expert algorithm it
replaced (spelled out below as a reference), pin exp3-gr's snapshot text,
and check that every invariant still fires on the batched path.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbandit.environment import FeedbackEvent, realize_feedback
from graphbandit.errors import ContractError, PhaseOrderError
from graphbandit.estimator import Pmf
from graphbandit.graph import EdgeProbabilityTable, NominalGraph
from graphbandit.policies import (
    LearnerConfig,
    ProbabilityEstimatorState,
    ResampleBuffer,
    _check_in_edges,
    _inflated_divisors,
    _resample_targets,
    estimated_observation_prob,
    geometric_resample,
    load_snapshot,
    make_learner,
)
from graphbandit.schedulers import DoublingSchedule, FixedEta, InverseSqrtEta, gr_doubling_params

FIXTURE = Path(__file__).parent / "fixtures" / "exp3gr_snapshots.json"


# ---------------------------------------------------------------------------
# Per-expert reference: the estimators as they ran before batching
# ---------------------------------------------------------------------------


def reference_trials(probs, adjacency, history, target0, window, rng):
    """One target's trial count from its in-edges' sample histories
    (``history[(s, t)]`` is a list, oldest first), drawing (1, M) expert
    uniforms and then (1, E, M) permutation keys."""
    in_positions = np.flatnonzero(adjacency[:, target0])
    buffers = np.array([history[(int(s), target0)][-window:] for s in in_positions], dtype=np.uint8)[None]
    n, num_edges, m = buffers.shape
    cum = np.cumsum(probs)
    draws = np.minimum(np.searchsorted(cum, rng.random((n, m)), side="right"), probs.size - 1)
    order = np.argsort(rng.random(buffers.shape), axis=-1)
    shuffled = np.take_along_axis(buffers, order, axis=-1)
    slot = np.full(probs.size, -1, dtype=np.int64)
    slot[in_positions] = np.arange(num_edges)
    s = slot[draws]
    hit = np.where(s >= 0, shuffled[np.arange(n)[:, None], np.clip(s, 0, None), np.arange(m)[None, :]], 0)
    hit = hit.astype(bool)
    return int(np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, m)[0])


def reference_q_hat(probs, adjacency, state, xi, m, target0):
    in_mask = adjacency[:, target0]
    phat = state.estimates[:, target0]
    return float((probs * (phat + xi / math.sqrt(m)) * in_mask).sum())


def random_digraph(rng, k):
    adjacency = rng.random((k, k)) < rng.uniform(0.1, 0.9)
    np.fill_diagonal(adjacency, True)
    return NominalGraph(adjacency)


def random_targets(rng, k):
    return rng.permutation(k)[: int(rng.integers(0, k + 1))]


def generator_state(rng):
    return repr(rng.bit_generator.state)


# ---------------------------------------------------------------------------
# Differential properties
# ---------------------------------------------------------------------------


GRAPH_KINDS = st.sampled_from(["random", "complete", "bandit"])


def graph_of_kind(rng, kind, k):
    if kind == "complete":
        return NominalGraph.complete(k)
    if kind == "bandit":
        return NominalGraph.bandit(k)
    return random_digraph(rng, k)


def fill(rng, graph, buffers, picks):
    """Record one random round per pick (0-based sources) in ``buffers``;
    returns every edge's sample history, oldest first, and each source's pick count."""
    k = graph.num_experts
    history = {(int(s), int(t)): [] for s, t in zip(*np.nonzero(graph.adjacency))}
    for chosen in picks:
        realized = (rng.random(k) < rng.uniform(0.05, 0.95)) & graph.adjacency[chosen]
        buffers.observe_row(int(chosen) + 1, realized)
        for t in np.flatnonzero(graph.adjacency[chosen]):
            history[(int(chosen), int(t))].append(int(realized[t]))
    return history, np.bincount(np.asarray(picks, dtype=np.int64), minlength=k)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), kind=GRAPH_KINDS, k=st.integers(1, 12), m=st.integers(1, 40),
    spare=st.integers(0, 3), wrap=st.integers(0, 50),
)
def test_batched_resampling_matches_per_expert_calls(seed, kind, k, m, spare, wrap):
    """Counts and generator state equal one reference call per target, for
    windows below the capacity (``spare`` > 0) and rings that have wrapped
    (a source chosen more than ``capacity`` times)."""
    rng = np.random.default_rng(seed)
    graph = graph_of_kind(rng, kind, k)
    capacity = m + spare
    buffers = ResampleBuffer(graph, capacity)
    # Every source is chosen at least M times, each a further ``wrap`` times, some more.
    picks = np.concatenate([np.repeat(np.arange(k), m + wrap), rng.integers(0, k, size=int(rng.integers(0, 4 * m)))])
    history, _ = fill(rng, graph, buffers, rng.permutation(picks))
    pmf = Pmf(rng.dirichlet(np.ones(k)))
    targets = random_targets(rng, k)

    batched_rng = np.random.Generator(np.random.Philox(seed))
    sequential_rng = np.random.Generator(np.random.Philox(seed))
    batched = _resample_targets(pmf.probs.cumsum(), buffers, targets, m, batched_rng)
    sequential = [reference_trials(pmf.probs, graph.adjacency, history, int(t), m, sequential_rng) for t in targets]

    assert batched.tolist() == sequential
    assert generator_state(batched_rng) == generator_state(sequential_rng)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=GRAPH_KINDS, k=st.integers(1, 12), m=st.integers(1, 6),
       over=st.integers(0, 1))
def test_underfull_ring_raises_before_any_draw(seed, kind, k, m, over):
    """The first short edge in block order is named (each target's
    self-loop, then its in-edges by ascending source), and the generator
    is left as it was; a window above the capacity finds every ring short."""
    rng = np.random.default_rng(seed)
    graph = graph_of_kind(rng, kind, k)
    buffers = ResampleBuffer(graph, m)
    _, chosen = fill(rng, graph, buffers, rng.permutation(np.repeat(np.arange(k), rng.integers(0, m + 2, size=k))))
    targets = random_targets(rng, k)
    window = m + over
    block_order = [(s, t) for t in targets.tolist() for s in [t, *np.flatnonzero(graph.adjacency[:, t]).tolist()]]
    short = [(s, t) for s, t in block_order if min(chosen[s], m) < window]
    pmf = Pmf(rng.dirichlet(np.ones(k)))
    draw_rng = np.random.Generator(np.random.Philox(seed))
    before = generator_state(draw_rng)
    if not short:
        assert _resample_targets(pmf.probs.cumsum(), buffers, targets, window, draw_rng).size == targets.size
        return
    s, t = short[0]
    message = rf"^edge \({s + 1}, {t + 1}\) holds {min(chosen[s], m)} samples, needs {window}$"
    with pytest.raises(PhaseOrderError, match=message):
        _resample_targets(pmf.probs.cumsum(), buffers, targets, window, draw_rng)
    assert generator_state(draw_rng) == before


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=GRAPH_KINDS, k=st.integers(1, 12))
def test_per_graph_resampling_tables_match_a_build_from_the_adjacency(seed, kind, k):
    graph = graph_of_kind(np.random.default_rng(seed), kind, k)
    adjacency = graph.adjacency
    buffers = ResampleBuffer(graph, 3)
    edge_id = {}  # row-major order of the adjacency
    for s in range(k):
        for t in range(k):
            if adjacency[s, t]:
                edge_id[(s, t)] = len(edge_id)
    for j in range(k):
        sources = [d for d in range(k) if adjacency[d, j]]
        assert buffers._block_size[j] == 1 + len(sources)  # the draw row, then one row per in-edge
        for d in range(k):
            assert buffers._in_edge[j, d] == adjacency[d, j]
            if adjacency[d, j]:
                assert buffers._block_row[j, d] == 1 + sources.index(d)
                assert buffers._trial_edge[j, d] == edge_id[(d, j)]
            else:  # the self-loop stands in; the in-edge mask hides what it reads
                assert buffers._trial_edge[j, d] == edge_id[(j, j)]


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12), m=st.integers(1, 40))
def test_batched_inflated_probabilities_are_bit_equal(seed, k, m):
    rng = np.random.default_rng(seed)
    graph = random_digraph(rng, k)
    state = ProbabilityEstimatorState(graph)
    state.counts = np.where(graph.adjacency, rng.integers(m, 3 * m + 1, size=(k, k)), 0).astype(np.int64)
    state.sums = rng.integers(0, state.counts + 1).astype(np.int64)
    pmf = Pmf(rng.dirichlet(np.ones(k)))
    xi = float(rng.uniform(1.0, 3.0))
    targets = random_targets(rng, k)

    # The learner's path: check the targets' in-edges, then one divisor row per target.
    _check_in_edges(graph, state.counts, m, targets)
    divisors = _inflated_divisors(graph.adjacency, state.estimates, xi / math.sqrt(m))
    batched = (pmf.probs * divisors[targets]).sum(axis=-1)
    sequential = np.array([reference_q_hat(pmf.probs, graph.adjacency, state, xi, m, int(t)) for t in targets])
    single = np.array([estimated_observation_prob(pmf, graph, state, xi, m, int(t) + 1) for t in targets])

    np.testing.assert_array_equal(batched.view(np.uint64), sequential.view(np.uint64))
    np.testing.assert_array_equal(single.view(np.uint64), sequential.view(np.uint64))


# ---------------------------------------------------------------------------
# exp3-gr snapshot text, pinned from the per-edge deque implementation
# ---------------------------------------------------------------------------


def snapshot_scenario(name):
    if name == "inverse-sqrt":
        adjacency = np.array([[1, 1, 0, 1], [0, 1, 1, 0], [1, 1, 1, 1], [0, 0, 1, 1]], dtype=bool)
        config = LearnerConfig("exp3-gr", InverseSqrtEta(), min_observations=3)
        row_probs = [0.6, 0.35, 0.8, 0.5]
        losses = np.array([0.9, 0.4, 0.6, 0.1])
    else:
        adjacency = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)
        config = LearnerConfig("exp3-gr", DoublingSchedule(), epsilon=1.0)
        row_probs = [0.7, 0.45, 0.9]
        losses = np.array([0.2, 0.8, 0.5])
    graph = NominalGraph(adjacency)
    table = EdgeProbabilityTable.from_probs(graph, np.where(adjacency, np.array(row_probs)[:, None], 0.0))
    return graph, table, config, losses


@pytest.mark.parametrize("name", ["inverse-sqrt", "doubling"])
def test_exp3gr_snapshot_text_and_resume_are_unchanged(name):
    recorded = json.loads(FIXTURE.read_text())[name]
    graph, table, config, losses = snapshot_scenario(name)
    learner = make_learner(config, graph, seed=5)
    feedback_rng = np.random.default_rng(101)
    cut = recorded["round"]
    for t in range(1, cut + 1):
        pick = learner.select(t, graph)
        learner.update(realize_feedback(graph, table, pick, losses, feedback_rng, t=t))
    assert learner.snapshot() == recorded["snapshot"]
    if name == "doubling":  # the buffers have grown, after rings had wrapped
        _, first_capacity = gr_doubling_params(0, 3, learner._dom.size, 1.0)
        assert learner.buffers.capacity > first_capacity

    restored = load_snapshot(recorded["snapshot"], graph)
    picks = []
    for t in range(cut + 1, cut + len(recorded["tail_picks"]) + 1):
        pick = restored.select(t, graph)
        restored.update(realize_feedback(graph, table, pick, losses, feedback_rng, t=t))
        picks.append(pick)
    assert picks == recorded["tail_picks"]
    assert restored.snapshot() == recorded["final_snapshot"]


# ---------------------------------------------------------------------------
# The edge-indexed ring
# ---------------------------------------------------------------------------


class TestResampleRing:
    def test_full_ring_keeps_the_newest_samples_in_order(self):
        g = NominalGraph.bandit(1)
        buffers = ResampleBuffer(g, 3)
        for bit in [1, 0, 0, 1, 1]:
            buffers.observe_row(1, np.array([bool(bit)]))
        assert buffers.samples() == {"1,1": [0, 1, 1]}
        np.testing.assert_array_equal(buffers.edge_matrix(np.array([0]), 2), [[1, 1]])

    def test_grow_after_wrap_keeps_order_and_appends(self):
        g = NominalGraph.bandit(1)
        buffers = ResampleBuffer(g, 3)
        for bit in [1, 0, 0, 1]:
            buffers.observe_row(1, np.array([bool(bit)]))
        buffers.grow(5)
        assert buffers._short == 1  # the one ring holds 3 of 5 samples
        buffers.observe_row(1, np.array([True]))
        assert buffers.samples() == {"1,1": [0, 0, 1, 1]}
        np.testing.assert_array_equal(buffers.edge_matrix(np.array([0]), 4), [[0, 0, 1, 1]])

    def test_storage_follows_samples_held_not_capacity(self):
        g = NominalGraph.complete(4)
        buffers = ResampleBuffer(g, 40_000)
        for _ in range(10):
            buffers.observe_row(2, np.array([True, False, True, True]))
        assert buffers._ring.nbytes <= 16 * 20  # 16 edges, at most twice the samples held per ring

    def test_restore_keeps_only_the_last_capacity_samples(self):
        g = NominalGraph.bandit(2)
        buffers = ResampleBuffer.from_samples(g, 2, {"1,1": [1, 0, 1], "2,2": [0]})
        assert buffers.samples() == {"1,1": [0, 1], "2,2": [0]}
        with pytest.raises(KeyError):
            ResampleBuffer.from_samples(g, 2, {"1,2": [1]})


# ---------------------------------------------------------------------------
# Invariant checks on the batched path
# ---------------------------------------------------------------------------


def explored_learner(algorithm, graph, min_observations=2):
    learner = make_learner(LearnerConfig(algorithm, FixedEta(0.3), min_observations=min_observations), graph)
    table = EdgeProbabilityTable.constant(graph, 0.5)
    feedback_rng = np.random.default_rng(3)
    rounds = graph.num_experts * min_observations
    for t in range(1, rounds + 1):
        pick = learner.select(t, graph)
        learner.update(realize_feedback(graph, table, pick, np.full(graph.num_experts, 0.5), feedback_rng, t=t))
    return learner, rounds + 1


class TestBatchedChecks:
    def test_resampling_needs_a_positive_window(self):
        g = NominalGraph.bandit(1)
        buffers = ResampleBuffer.from_samples(g, 2, {"1,1": [1, 0]})
        with pytest.raises(ValueError, match="min_observations"):
            geometric_resample(1, Pmf(np.array([1.0])), g, buffers, 0, np.random.default_rng(0))

    def test_underfull_window_raises_phase_order_error(self):
        g = NominalGraph.complete(3)
        learner, t = explored_learner("exp3-gr", g)
        learner._store = ResampleBuffer(g, 2)  # windows emptied behind the learner's back
        pick = learner.select(t, g)
        with pytest.raises(PhaseOrderError):
            learner.update(FeedbackEvent(t, pick, ((1, 0.5), (2, 0.5)), 0.5))

    @pytest.mark.parametrize("algorithm", ["exp3-ip", "exp3-up", "exp3-gr"])
    def test_loss_out_of_range_rejected(self, algorithm):
        g = NominalGraph.complete(3)
        if algorithm == "exp3-ip":
            table = EdgeProbabilityTable.constant(g, 0.5)
            learner, t = make_learner(LearnerConfig(algorithm, FixedEta(0.3)), g, probs=table), 1
        else:
            learner, t = explored_learner(algorithm, g)
        pick = learner.select(t, g)
        for bad in (1.5, float("nan")):
            with pytest.raises(ValueError, match="loss must be in"):
                learner.update(FeedbackEvent(t, pick, ((1, 0.2), (3, bad)), 0.2))

    @pytest.mark.parametrize("algorithm", ["exp3-up", "exp3-gr"])
    def test_activation_on_a_non_edge_rejected(self, algorithm):
        g = NominalGraph(np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=bool))
        learner, t = explored_learner(algorithm, g)
        pick = learner.select(t, g)
        non_edge = int(np.flatnonzero(~g.adjacency[pick - 1])[0]) + 1
        with pytest.raises(ContractError, match="non-edge"):
            learner.update(FeedbackEvent(t, pick, ((non_edge, 0.5),), 0.5))
