"""run_episode plays forced-exploration rounds as one block.

* Against the per-round loop (``select``, ``_fire``, ``_observe`` each
  round) kept here as the reference, the block path gives byte-equal
  choices and incurred losses, bit-equal weights and inflated divisors,
  equal per-edge statistics, equal generator states and identical snapshot
  text, under every schedule and across doubling restarts.
* One multi-row ``_record(source, hits[n, d])`` on either sample store
  equals n one-row calls, so capping a run at ``_FEED_BLOCK`` rounds, or
  running it across the loss table's row blocks, changes nothing.
"""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbandit import environment
from graphbandit.environment import (
    FEEDBACK_STREAM,
    LEARNER_STREAM,
    LOSS_STREAM,
    StochasticGapAdversary,
    SwitchingAdversary,
    _fire,
    run_episode,
    substream,
)
from graphbandit.graph import EdgeProbabilityTable, NominalGraph
from graphbandit.policies import (
    LearnerConfig,
    ProbabilityEstimatorState,
    ResampleBuffer,
    _encode_rng_state,
    _inflated_divisors,
    _UninformativeBase,
    make_learner,
)
from graphbandit.schedulers import DoublingSchedule, FixedEta, InverseSqrtEta

SCHEDULES = {"fixed": FixedEta(0.1), "inverse-sqrt": InverseSqrtEta(), "doubling": DoublingSchedule()}


def bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).view(np.uint64).tobytes()


def same_state(rng, other) -> bool:
    return _encode_rng_state(rng) == _encode_rng_state(other)


def per_round_episode(learner, adversary, graph, probs, horizon, seed):
    """run_episode's streams and checks, one select/_fire/_observe round at a
    time; returns the choices, incurred losses and feedback generator."""
    feedback_rng = substream(seed, FEEDBACK_STREAM)
    learner.reseed(np.random.SeedSequence(seed, spawn_key=(LEARNER_STREAM,)))
    table = np.asarray(adversary.materialize(horizon, graph.num_experts, substream(seed, LOSS_STREAM)), dtype=float)
    chosen = np.empty(horizon, dtype=np.int64)
    for t in range(1, horizon + 1):
        pick = learner.select(t, graph)
        fired, hits = _fire(graph, probs, pick, feedback_rng)
        learner._observe(t, pick, fired, table[t - 1, fired], hits)
        chosen[t - 1] = pick
    return chosen, table[np.arange(horizon), chosen - 1], feedback_rng


def block_episode(learner, adversary, graph, probs, horizon, seed):
    """run_episode, also handing back the feedback generator it drew from."""
    made = {}

    def recording_substream(seed_, key):
        made[key] = substream(seed_, key)
        return made[key]

    with mock.patch.object(environment, "substream", recording_substream):
        trace = run_episode(learner, adversary, graph, probs, horizon, seed)
    return trace.chosen, trace.incurred, made[FEEDBACK_STREAM]


def counting_explorations():
    """Patch ``_next_exploration`` to count its calls, as the tracer does."""
    calls = []
    original = _UninformativeBase._next_exploration

    def wrapper(self):
        calls.append(1)
        return original(self)

    return calls, mock.patch.object(_UninformativeBase, "_next_exploration", wrapper)


def assert_same_learner(block, reference) -> None:
    assert bits(block._log_weights) == bits(reference._log_weights)
    assert (block._mixed is None) == (reference._mixed is None)
    if block._mixed is not None:
        assert bits(block._mixed) == bits(reference._mixed)
    assert same_state(block._rng, reference._rng)
    assert block.snapshot() == reference.snapshot()
    adjacency = block._graph.adjacency
    floor = block.min_observations
    if block.algorithm == "exp3-up":
        state, ref = block.estimator_state, reference.estimator_state
        assert np.array_equal(state.counts, ref.counts) and np.array_equal(state.sums, ref.sums)
        assert bits(state._divisors) == bits(ref._divisors)
        rebuilt = _inflated_divisors(adjacency, state.estimates, block.confidence_width / math.sqrt(floor))
        assert bits(state._divisors) == bits(rebuilt)
        assert state._short == ref._short == np.count_nonzero((state.counts < floor) & adjacency)
    else:
        buffers, ref = block.buffers, reference.buffers
        assert buffers.samples() == ref.samples()
        assert np.array_equal(buffers._written, ref._written)
        assert buffers._short == ref._short == np.count_nonzero(buffers._written < buffers.capacity)


@st.composite
def digraphs(draw):
    """K in 2..8 with self-loops (every expert needs one); sometimes expert
    1's only out-edge is its self-loop."""
    k = draw(st.integers(2, 8))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=k, max_size=k), min_size=k, max_size=k))
    adjacency = np.array(rows, dtype=bool)
    if draw(st.booleans()):
        adjacency[0] = False
    np.fill_diagonal(adjacency, True)
    return NominalGraph(adjacency)


@settings(max_examples=60, deadline=None)
@given(
    algorithm=st.sampled_from(["exp3-up", "exp3-gr"]),
    schedule=st.sampled_from(list(SCHEDULES)),
    graph=digraphs(),
    horizon=st.integers(1, 600),
    min_observations=st.integers(1, 5),
    epsilon=st.sampled_from([0.5, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_block_path_equals_the_per_round_loop(algorithm, schedule, graph, horizon, min_observations, epsilon, seed):
    probs = EdgeProbabilityTable.uniform(graph, 0.2, 1.0, np.random.default_rng(seed))
    adversary = StochasticGapAdversary(gap=0.2)
    config = LearnerConfig(algorithm, SCHEDULES[schedule], min_observations=min_observations, epsilon=epsilon)
    block, reference = make_learner(config, graph, seed=seed), make_learner(config, graph, seed=seed)
    first_epoch = block._epoch
    block_calls, patched = counting_explorations()
    with patched:
        chosen, incurred, feedback = block_episode(block, adversary, graph, probs, horizon, seed)
    reference_calls, patched = counting_explorations()
    with patched:
        ref_chosen, ref_incurred, ref_feedback = per_round_episode(reference, adversary, graph, probs, horizon, seed)
    assert chosen.tobytes() == ref_chosen.tobytes()
    assert incurred.tobytes() == ref_incurred.tobytes()
    assert same_state(feedback, ref_feedback)
    assert len(block_calls) == len(reference_calls)
    assert block.rounds_played == reference.rounds_played == horizon
    assert_same_learner(block, reference)
    if schedule == "doubling" and horizon > 2 ** (first_epoch + 1):  # at least one restart
        assert block._epoch > first_epoch


def benchmark_graph(seed: int, k: int = 50) -> NominalGraph:
    """Expert i (0-based) has 1 + (7i mod 9) out-neighbours besides itself."""
    rng = np.random.default_rng([seed, k])
    adjacency = np.eye(k, dtype=bool)
    for i in range(k):
        others = np.delete(np.arange(k), i)
        adjacency[i, rng.choice(others, size=1 + (7 * i) % 9, replace=False)] = True
    return NominalGraph(adjacency)


@pytest.mark.parametrize("algorithm", ["exp3-up", "exp3-gr"])
def test_sparse_k50_doubling_run_matches_the_per_round_loop(algorithm):
    graph = benchmark_graph(1)
    probs = EdgeProbabilityTable.uniform(graph, 0.1, 0.9, np.random.default_rng(2))
    adversary = SwitchingAdversary(gap=0.1, period=2000)
    config = LearnerConfig(algorithm, DoublingSchedule(), epsilon=0.1)
    block, reference = make_learner(config, graph), make_learner(config, graph)
    chosen, incurred, feedback = block_episode(block, adversary, graph, probs, 20_000, 7)
    ref_chosen, ref_incurred, ref_feedback = per_round_episode(reference, adversary, graph, probs, 20_000, 7)
    assert hashlib.sha256(chosen.tobytes()).hexdigest() == hashlib.sha256(ref_chosen.tobytes()).hexdigest()
    assert incurred.tobytes() == ref_incurred.tobytes()  # forced runs cross the loss table's row blocks
    assert same_state(feedback, ref_feedback)
    assert_same_learner(block, reference)


# ---------------------------------------------------------------------------
# The record kernels take a run of rows
# ---------------------------------------------------------------------------


def assert_same_store(store, reference) -> None:
    if isinstance(store, ProbabilityEstimatorState):
        assert np.array_equal(store.counts, reference.counts) and np.array_equal(store.sums, reference.sums)
        assert bits(store._divisors) == bits(reference._divisors)
        adjacency = store._graph.adjacency
        assert store._short == reference._short == np.count_nonzero((store.counts < store._floor) & adjacency)
    else:
        assert np.array_equal(store._ring, reference._ring)  # width included
        assert np.array_equal(store._written, reference._written)
        assert store.samples() == reference.samples()
        assert store._short == reference._short == np.count_nonzero(store._written < store.capacity)


def new_store(kind, graph, size, samples=None):
    """An estimator state tracking the floor ``size``, or a resample buffer
    of capacity ``size`` (restored from ``samples`` when given)."""
    if kind == "estimator":
        state = ProbabilityEstimatorState(graph)
        state._track(size, 0.75)
        return state
    if samples is not None:
        return ResampleBuffer.from_samples(graph, size, samples)
    return ResampleBuffer(graph, size)


def record_both(store, reference, source, hits) -> None:
    """One multi-row call on ``store``, one call per row on ``reference``."""
    store._record(source, hits)
    for row in hits:
        reference._record(source, row)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["estimator", "buffer"]),
    graph=digraphs(),
    size=st.integers(1, 6),
    restored=st.booleans(),
    data=st.data(),
)
def test_one_run_call_equals_one_call_per_row(kind, graph, size, restored, data):
    k = graph.num_experts
    samples = None
    if kind == "buffer" and restored:  # rings of unequal lengths within one source
        keys = [f"{s + 1},{t + 1}" for s, t in zip(*np.nonzero(graph.adjacency))]
        samples = {key: data.draw(st.lists(st.integers(0, 1), max_size=8)) for key in keys}
    store, reference = new_store(kind, graph, size, samples), new_store(kind, graph, size, samples)
    for _ in range(data.draw(st.integers(1, 4))):
        source = data.draw(st.integers(0, k - 1))
        degree = graph.out_positions[source].size
        n = data.draw(st.integers(1, 3 * size + 2))
        hits = np.array(data.draw(st.lists(st.booleans(), min_size=n * degree, max_size=n * degree)))
        record_both(store, reference, source, hits.reshape(n, degree))
        assert_same_store(store, reference)


@pytest.mark.parametrize(
    "kind, size, before, n",
    [
        ("buffer", 3, 0, 7),  # from width 0, past the capacity within one call: the ring wraps
        ("buffer", 8, 0, 5),  # widens from 0 past one doubling
        ("buffer", 4, 2, 2),  # reaches the capacity exactly
        ("buffer", 4, 5, 3),  # already full, wraps again
        ("estimator", 3, 1, 4),  # crosses the floor
        ("estimator", 3, 0, 3),  # reaches the floor exactly
        ("estimator", 3, 4, 2),  # already past it
    ],
)
def test_run_crossings(kind, size, before, n):
    graph = NominalGraph(np.array([[1, 1, 0, 1], [0, 1, 0, 0], [1, 1, 1, 1], [0, 0, 1, 1]], dtype=bool))
    store, reference = new_store(kind, graph, size), new_store(kind, graph, size)
    rng = np.random.default_rng([size, before, n])
    for source in range(graph.num_experts):
        degree = graph.out_positions[source].size
        if before:
            record_both(store, reference, source, rng.random((before, degree)) < 0.5)
        short = store._short
        record_both(store, reference, source, rng.random((n, degree)) < 0.5)
        assert_same_store(store, reference)
        if before < size <= before + n:  # every out-edge of the source crossed
            assert store._short == short - degree
