"""The per-round invariant checks reject exactly what they rejected before.

``Pmf``, ``WeightVector``, ``exp_weight_update``, ``realize_feedback``, both
``observe_row``s and ``sample_index`` validate their inputs with O(1)
reductions.  The reference functions below keep the element-wise checks
they replaced; the properties assert the same exception type and message,
and bit-equal results for every accepted input.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphbandit.environment import FeedbackEvent, realize_feedback
from graphbandit.errors import ContractError, InvariantError
from graphbandit.estimator import PMF_TOLERANCE, Pmf, WeightVector, _invert_cdf, exp_weight_update, sample_index
from graphbandit.graph import EdgeProbabilityTable, NominalGraph
from graphbandit.policies import ProbabilityEstimatorState, ResampleBuffer

ULP_ABOVE_ONE = float(np.nextafter(1.0, 2.0))
SPECIALS = (
    math.nan,
    math.inf,
    -math.inf,
    -0.0,
    0.0,
    -PMF_TOLERANCE / 2,  # negative, inside the tolerance
    -PMF_TOLERANCE,  # on the tolerance
    float(np.nextafter(-PMF_TOLERANCE, -1.0)),  # just outside it
    -2 * PMF_TOLERANCE,
    -5e-324,
    1e308,  # finite, but two of them overflow a sum
    -1e308,
    ULP_ABOVE_ONE,
)
SETTINGS = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# The checks as they were, entry by entry
# ---------------------------------------------------------------------------


def reference_pmf(probs):
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or probs.size < 1:
        raise ValueError("pmf must be a non-empty 1-d vector")
    if not np.isfinite(probs).all():
        raise InvariantError("pmf contains non-finite entries")
    if probs.min() < -PMF_TOLERANCE:
        raise InvariantError(f"pmf has a negative entry: {probs.min()}")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if abs(total - 1.0) > PMF_TOLERANCE:
        raise InvariantError(f"pmf sums to {total}, expected 1 within {PMF_TOLERANCE}")
    return probs / total


def reference_log_weights(lw):
    lw = np.asarray(lw, dtype=float)
    if lw.ndim != 1 or lw.size < 1:
        raise ValueError("log_weights must be a non-empty 1-d vector")
    if not np.isfinite(lw).all():
        raise InvariantError("log-weights must be finite")
    return lw - lw.max()


def reference_update(log_weights, eta, estimates):
    est = np.asarray(estimates, dtype=float)
    if est.shape != log_weights.shape:
        raise ValueError(f"expected {log_weights.size} estimates, got shape {est.shape}")
    if not np.isfinite(est).all():
        raise InvariantError("loss estimates must be finite")
    if (est < 0).any():
        raise ValueError("loss estimates must be non-negative")
    if not (np.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be positive and finite, got {eta}")
    return reference_log_weights(log_weights - eta * est)


def reference_realize(graph, probs, chosen, losses, rng, t=0):
    losses = np.asarray(losses, dtype=float)
    if not np.isfinite(losses).all() or (losses < 0).any() or (losses > 1).any():
        raise ContractError("losses must lie in [0, 1]")
    out = np.flatnonzero(graph.adjacency[chosen - 1])
    fired = rng.random(out.size) < probs.probs[chosen - 1, out]
    observed = tuple((int(j + 1), float(losses[j])) for j in out[fired])
    return FeedbackEvent(t=t, chosen=chosen, observed=observed, incurred_loss=float(losses[chosen - 1]))


def reference_non_edge(graph, chosen, realized):
    if (realized & ~graph.adjacency[chosen - 1]).any():
        raise ContractError("activation reported for a non-edge")


def outcome(fn, *args):
    """(exception type, message) when ``fn`` raises, else ("ok", result)."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return "ok", fn(*args)
        except Exception as exc:  # compared below, type and message
            return type(exc), str(exc)


def same_state(a, b) -> bool:
    return repr(a.bit_generator.state) == repr(b.bit_generator.state)


def assert_same(new, old):
    assert new[0] == old[0], (new, old)
    if new[0] == "ok":
        a, b = np.asarray(new[1], dtype=float), np.asarray(old[1], dtype=float)
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), (a, b)
    else:
        assert new[1] == old[1]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


@st.composite
def vectors(draw, low=0.01, high=1.0, normalize=True, max_specials=3):
    """A base vector (normalized when asked) with up to ``max_specials``
    entries from SPECIALS inserted at random positions."""
    base = np.array(draw(st.lists(st.floats(low, high), min_size=1, max_size=10)))
    if normalize:
        base = base / base.sum()
    values = base.tolist()
    for special in draw(st.lists(st.sampled_from(SPECIALS), max_size=max_specials)):
        values.insert(draw(st.integers(0, len(values))), special)
    return np.array(values)


@st.composite
def graphs(draw, max_experts=8):
    k = draw(st.integers(1, max_experts))
    bits = draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k))
    adj = np.array(bits, dtype=bool).reshape(k, k)
    np.fill_diagonal(adj, True)
    return NominalGraph(adj)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@SETTINGS
@given(vectors())
@example(np.array([math.inf, -math.inf, 0.5, 0.5]))
@example(np.array([1e308, 1e308]))
@example(np.array([0.5, 0.5, -0.0]))
@example(np.array([-0.0]))
@example(np.array([1.0, -PMF_TOLERANCE / 2]))
@example(np.array([1.0, float(np.nextafter(-PMF_TOLERANCE, -1.0))]))
def test_pmf_rejects_what_it_rejected(probs):
    assert_same(outcome(lambda p: Pmf(p).probs, probs), outcome(reference_pmf, probs))


@SETTINGS
@given(vectors(low=-50.0, high=0.0, normalize=False))
@example(np.array([1e308, 1e308]))
@example(np.array([-1e308, -1e308]))
@example(np.array([math.inf, -math.inf]))
@example(np.array([-math.inf, 0.0]))
def test_weight_vector_rejects_what_it_rejected(lw):
    assert_same(outcome(lambda v: WeightVector(v).log_weights, lw), outcome(reference_log_weights, lw))


ETAS = (0.3, 1.0, 1e-300, 0.0, -0.5, math.nan, math.inf, -math.inf)


@SETTINGS
@given(vectors(low=0.0, high=100.0, normalize=False), st.sampled_from(ETAS), st.integers(0, 2**32 - 1))
@example(np.array([1e308, 1e308]), 1.0, 0)
@example(np.array([math.inf, -math.inf]), 0.3, 0)
@example(np.array([-0.0, 1.0]), 0.3, 0)
@example(np.array([-5e-324, 1.0]), 0.3, 0)
@example(np.array([1.0, math.nan]), math.nan, 0)
def test_exp_weight_update_rejects_what_it_rejected(estimates, eta, seed):
    log_weights = np.random.default_rng(seed).uniform(-5, 0, estimates.size)
    weights = WeightVector(log_weights)
    assert_same(
        outcome(lambda: exp_weight_update(weights, eta, estimates).log_weights),
        outcome(reference_update, weights.log_weights, eta, estimates),
    )


LOSS_SPECIALS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1.0, ULP_ABOVE_ONE, -5e-324)


@SETTINGS
@given(graphs(), st.data(), st.integers(0, 2**32 - 1))
def test_realize_feedback_rejects_what_it_rejected(graph, data, seed):
    k = graph.num_experts
    losses = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
    for position in data.draw(st.lists(st.integers(0, k - 1), max_size=2)):
        losses[position] = data.draw(st.sampled_from(LOSS_SPECIALS))
    chosen = data.draw(st.integers(1, k))
    probs = EdgeProbabilityTable.uniform(graph, 0.1, 0.9, np.random.default_rng(seed))
    rng_new, rng_old = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
    new = outcome(realize_feedback, graph, probs, chosen, losses, rng_new, 3)
    old = outcome(reference_realize, graph, probs, chosen, losses, rng_old, 3)
    assert new == old
    if new[0] == "ok":
        assert [type(v) for pair in new[1].observed for v in pair] == [int, float] * len(new[1].observed)
    assert same_state(rng_new, rng_old)


@SETTINGS
@given(graphs(), st.data())
def test_estimator_observe_row_rejects_what_it_rejected(graph, data):
    k = graph.num_experts
    chosen = data.draw(st.integers(1, k))
    realized = np.array(data.draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    state = ProbabilityEstimatorState(graph)
    state.counts[:] = data.draw(st.integers(0, 5))
    state.sums[:] = state.counts // 2
    counts, sums = state.counts.copy(), state.sums.copy()
    new = outcome(state.observe_row, chosen, realized)
    assert new[0] == outcome(reference_non_edge, graph, chosen, realized)[0]
    if new[0] == "ok":
        row = graph.adjacency[chosen - 1]
        counts[chosen - 1, row] += 1
        sums[chosen - 1, row] += realized[row]
    else:
        assert new[1] == "activation reported for a non-edge"
    assert np.array_equal(state.counts, counts) and np.array_equal(state.sums, sums)


@SETTINGS
@given(graphs(), st.data())
def test_resample_buffer_observe_row_rejects_what_it_rejected(graph, data):
    k = graph.num_experts
    capacity = data.draw(st.integers(1, 6))
    buffers, reference = ResampleBuffer(graph, capacity), ResampleBuffer(graph, capacity)
    for _ in range(data.draw(st.integers(0, 8))):
        chosen = data.draw(st.integers(1, k))
        realized = np.array(data.draw(st.lists(st.booleans(), min_size=k, max_size=k))) & graph.adjacency[chosen - 1]
        buffers.observe_row(chosen, realized)
        reference.observe_row(chosen, realized)
    chosen = data.draw(st.integers(1, k))
    realized = np.array(data.draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    new = outcome(buffers.observe_row, chosen, realized)
    old = outcome(reference_non_edge, graph, chosen, realized)
    assert new[0] == old[0]
    if new[0] == "ok":  # the row-mask write it replaced
        row = graph.adjacency[chosen - 1]
        edges = reference._edge_id[chosen - 1, row]
        cols = reference._written[edges] % capacity
        reference._widen(int(cols.max()) + 1)
        reference._ring[edges, cols] = realized[row]
        reference._written[edges] += 1
    else:
        assert new[1] == old[1]
    assert buffers.samples() == reference.samples()


@SETTINGS
@given(vectors(max_specials=0), st.integers(0, 2**32 - 1))
def test_sample_index_draws_as_before(probs, seed):
    pmf = Pmf(probs)
    rng_new, rng_old = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
    drawn = [sample_index(pmf, rng_new) for _ in range(5)]
    cum = np.cumsum(pmf.probs)
    before = [int(np.minimum(np.searchsorted(cum, rng_old.random(1), side="right"), cum.size - 1)[0]) + 1 for _ in range(5)]
    assert drawn == before
    assert all(type(i) is int for i in drawn)
    assert same_state(rng_new, rng_old)


@SETTINGS
@given(
    st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), min_size=1, max_size=10).filter(any),
    st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20),
)
def test_cdf_inversion_matches_the_clipped_search(weights, uniforms):
    """Zero-mass experts give flat steps; the last three uniforms sit at and
    above the top of the running sum."""
    cum = Pmf(np.array(weights) / sum(weights)).probs.cumsum()
    uniforms = np.array(uniforms + [cum[-1], np.nextafter(cum[-1], 2.0), 1.0])
    expected = np.minimum(np.searchsorted(cum, uniforms, side="right"), cum.size - 1)
    assert np.array_equal(_invert_cdf(cum, uniforms), expected)
    assert [int(_invert_cdf(cum, u)) for u in uniforms.tolist()] == expected.tolist()


def test_out_positions_are_built_once_and_read_only():
    graph = NominalGraph(np.array([[1, 0, 1], [1, 1, 0], [0, 0, 1]], dtype=bool))
    rows = graph.out_positions
    assert graph.out_positions is rows
    assert [r.tolist() for r in rows] == [[0, 2], [0, 1], [2]]
    with pytest.raises(ValueError):
        rows[0][0] = 1
