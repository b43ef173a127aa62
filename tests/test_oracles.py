"""The oracle suite's blocked draws against the whole-array loops they replace."""

import copy
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import graphbandit

from graphbandit.estimator import Pmf, WeightVector, _invert_cdf, sample_positions
from graphbandit.graph import EdgeProbabilityTable, NominalGraph, greedy_dominating_set
from graphbandit import oracles
from graphbandit.oracles import (
    _SKIP_BLOCK,
    _TRIAL_BLOCK,
    _moment,
    _skip_doubles,
    _trial_counts,
    ip_estimator_checks,
    resampling_checks,
)
from graphbandit.policies import (
    ResampleBuffer,
    _first_success,
    _resample_targets,
    _trial_slots,
    exp3ip_pmf,
    observation_probs,
)


def state_of(rng):
    """The generator's state dict with its arrays as lists, for ==."""
    return json.loads(json.dumps(rng.bit_generator.state, default=lambda a: a.tolist()))


# ---------------------------------------------------------------------------
# Reference: each chunk's random arrays drawn whole, as the suite did before
# it drew them in blocks.


def reference_ip_estimator_checks(graph, probs, pmf, losses, draws, rng, chunk=200_000):
    losses = np.asarray(losses, dtype=float)
    k = graph.num_experts
    q = observation_probs(pmf, graph, probs)
    ratio = losses / q
    sums = np.zeros(k)
    sums_sq = np.zeros(k)
    sums_4 = np.zeros(k)
    done = 0
    while done < draws:
        m = min(chunk, draws - done)
        chosen = sample_positions(pmf, rng, m)
        fired = rng.random((m, k)) < probs.probs[chosen]
        observed = fired & graph.adjacency[chosen]
        est = observed * ratio
        sums += est.sum(axis=0)
        est *= est
        sums_sq += est.sum(axis=0)
        est *= est
        sums_4 += est.sum(axis=0)
        done += m
    checks = []
    for i in range(k):
        checks.append(_moment(f"mean estimate, arm {i + 1}", sums[i], sums_sq[i], draws, losses[i]))
        expected_second = losses[i] ** 2 / q[i]
        checks.append(_moment(f"second moment, arm {i + 1}", sums_sq[i], sums_4[i], draws, expected_second))
    return checks


def reference_resampling_checks(q, window, loss, draws, rng, chunk=200_000):
    cum = np.array([1.0])
    sum_q = sum_q2 = 0.0
    sum_l = sum_l2 = 0.0
    done = 0
    while done < draws:
        m = min(chunk, draws - done)
        windows = (rng.random((m, window)) < q).astype(np.uint8)
        uniforms = rng.random((m, window))
        keys = rng.random((m, window))
        trials = np.empty(m)
        for lo in range(0, m, 16_384):
            block = slice(lo, lo + 16_384)
            row_of = np.arange(keys[block].shape[0])[:, None]  # repetition i reads window row i
            rows = row_of[row_of, _invert_cdf(cum, uniforms[block])]  # as the learner maps its expert draws
            trials[block] = _first_success(rows >= 0, windows[block][rows, _trial_slots(keys[block], rows)])
        observed = rng.random(m) < q
        est = trials * loss * observed
        sum_q += trials.sum()
        sum_q2 += (trials * trials).sum()
        sum_l += est.sum()
        sum_l2 += (est * est).sum()
        done += m
    hit = 1.0 - (1.0 - q) ** window
    trial_check = _moment(f"mean trial count (q={q}, M={window})", sum_q, sum_q2, draws, hit / q)
    loss_check = _moment(f"mean resampled loss (q={q}, M={window})", sum_l, sum_l2, draws, hit * loss)
    return trial_check, loss_check


# ---------------------------------------------------------------------------


class TestSkipDoubles:
    """``_skip_doubles(rng, n)`` leaves the state ``rng.random(n)`` leaves."""

    SKIPS = [*range(10), 13, _SKIP_BLOCK - 1, _SKIP_BLOCK, _SKIP_BLOCK + 1, 4 * _SKIP_BLOCK + 7]

    @pytest.mark.parametrize("bitgen", [np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64])
    @pytest.mark.parametrize("half_word", [False, True], ids=["", "cached-32-bit-half"])
    def test_matches_sequential_draws(self, bitgen, half_word):
        for start in range(9):
            for n in self.SKIPS:
                drawn = np.random.Generator(bitgen(11))
                if half_word:  # a 32-bit draw caches the other half of its word
                    drawn.integers(0, 7, dtype=np.int32)
                drawn.random(start)
                skipped = copy.deepcopy(drawn)
                drawn.random(n)
                _skip_doubles(skipped, n)
                assert state_of(skipped) == state_of(drawn), (start, n)
                assert skipped.random() == drawn.random(), (start, n)


def suite_ip_inputs(k):
    graph = NominalGraph.complete(k)
    probs = EdgeProbabilityTable.constant(graph, 0.25)
    pmf = exp3ip_pmf(WeightVector.uniform(k), 0.3, graph, probs, greedy_dominating_set(graph))
    return graph, probs, pmf, np.linspace(0.9, 0.1, k)


def sparse_ip_inputs():
    rng = np.random.default_rng(7)
    adjacency = rng.random((6, 6)) < 0.3
    np.fill_diagonal(adjacency, True)
    graph = NominalGraph(adjacency)
    probs = EdgeProbabilityTable.uniform(graph, 0.1, 0.9, rng)
    return graph, probs, Pmf(rng.dirichlet(np.ones(6))), rng.random(6)


GENERATORS = {"philox": np.random.Philox, "pcg64": np.random.PCG64}
# (draws, chunk): one draw, either side of one and of two blocks, past one
# default chunk; chunks smaller than a block, and draws not a multiple of the
# chunk.  The suite's chunk is ``oracles._CHUNK``, patched for each shape.
SHAPES = [
    (1, 200_000),
    (_TRIAL_BLOCK - 1, 200_000),
    (_TRIAL_BLOCK + 1, 200_000),
    (4_095, 200_000),
    (4_097, 200_000),
    (250_001, 200_000),
    (4_097, 1_000),
    (9_000, _TRIAL_BLOCK + 3),
]


class TestBlockedDrawsMatchWholeArrays:
    @pytest.mark.parametrize("draws, chunk", SHAPES)
    @pytest.mark.parametrize("generator", GENERATORS)
    @pytest.mark.parametrize("inputs", [*(f"complete-{k}" for k in range(1, 6)), "sparse-6"])
    def test_ip_estimator_checks(self, monkeypatch, inputs, generator, draws, chunk):
        monkeypatch.setattr(oracles, "_CHUNK", chunk)
        args = sparse_ip_inputs() if inputs == "sparse-6" else suite_ip_inputs(int(inputs.split("-")[1]))
        rng, ref = (np.random.Generator(GENERATORS[generator](3)) for _ in range(2))
        for g in (rng, ref):
            g.random(3)  # start mid-way through a Philox buffer
        assert ip_estimator_checks(*args, draws, rng) == reference_ip_estimator_checks(
            *args, draws, ref, chunk=chunk
        )
        assert state_of(rng) == state_of(ref)

    @pytest.mark.parametrize("draws, chunk", SHAPES)
    @pytest.mark.parametrize("generator", GENERATORS)
    @pytest.mark.parametrize("q, window", [(0.5, 5), (0.1, 1)])
    def test_resampling_checks(self, monkeypatch, q, window, generator, draws, chunk):
        monkeypatch.setattr(oracles, "_CHUNK", chunk)
        rng, ref = (np.random.Generator(GENERATORS[generator](4)) for _ in range(2))
        for g in (rng, ref):
            g.random(1)
        assert resampling_checks(q, window, 0.8, draws, rng) == reference_resampling_checks(
            q, window, 0.8, draws, ref, chunk=chunk
        )
        assert state_of(rng) == state_of(ref)


class StackedRows:
    """A generator stand-in whose one ``random`` call returns its rows stacked."""

    def __init__(self, *rows):
        self.rows = np.vstack(rows)

    def random(self, shape):
        assert shape == self.rows.shape
        return self.rows


@pytest.mark.parametrize("q, window", [(0.1, 5), (0.9, 25), (0.5, 1)])
def test_trial_counts_are_exp3_gr_counts(q, window):
    """The oracle's trial counts are those exp3-gr's kernel computes on a
    one-expert graph from each repetition's window and keys: its block for the
    one target is a row of expert draws, then the self-loop's row of keys."""
    draws = 300
    rng = np.random.Generator(np.random.Philox(6))
    regions = copy.deepcopy(rng)
    trial_check, _ = resampling_checks(q, window, 0.8, draws, rng)
    samples, uniforms, keys = (regions.random((draws, window)) for _ in range(3))
    graph = NominalGraph.complete(1)
    counts = np.empty(draws)
    for i in range(draws):
        buffers = ResampleBuffer(graph, window)
        buffers._record(0, (samples[i] < q)[:, None])  # the window oldest first
        g = StackedRows(uniforms[i], keys[i])
        counts[i] = _resample_targets(np.array([1.0]), buffers, np.array([0]), window, g)[0]
    hit = 1.0 - (1.0 - q) ** window
    # Sums of integers: the summation order cannot change them.
    assert _moment(trial_check.name, counts.sum(), (counts * counts).sum(), draws, hit / q) == trial_check


@pytest.mark.parametrize("window", [1, 2, 5, 25])
@pytest.mark.parametrize("n", [1, 2, 5, 25])
def test_trial_counts_on_tied_keys_are_argsort_counts(monkeypatch, n, window):
    """Keys from a grid of 4M values tie often.  Every count equals the
    argsort kernel's, and the tied-row branch ran on some rows, not all."""
    tied_rows = []

    def spy(in_edge, samples):
        tied_rows.append(samples.shape[0])
        return _first_success(in_edge, samples)

    monkeypatch.setattr(oracles, "_first_success", spy)
    rng = np.random.default_rng(window * 100 + n)
    blocks = 400 // n
    for _ in range(blocks):
        samples = rng.random((n, window)) < 0.3
        keys = rng.integers(0, 4 * window, (n, window)) / (4 * window)
        rows = np.arange(n)[:, None]
        expected = _first_success(True, samples[rows, _trial_slots(keys, rows)])
        np.testing.assert_array_equal(_trial_counts(samples, keys), expected)
    if window == 1:  # one key per row cannot tie
        assert not tied_rows
    else:
        assert 0 < sum(tied_rows) < blocks * n


def traced_peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    """Traced peaks at the suite's shapes; whole-chunk arrays took 95.9 and 17.7 MB."""

    def test_resampling_checks_peak(self):
        rng = np.random.Generator(np.random.Philox(1))
        assert traced_peak_mb(lambda: resampling_checks(0.5, 25, 0.8, 200_000, rng)) <= 16

    def test_ip_estimator_checks_peak(self):
        rng = np.random.Generator(np.random.Philox(1))
        args = suite_ip_inputs(5)
        assert traced_peak_mb(lambda: ip_estimator_checks(*args, 200_000, rng)) <= 8


BAD_ARGUMENT_SCRIPT = """
import json, sys
import numpy as np
from graphbandit.graph import EdgeProbabilityTable, NominalGraph
from graphbandit.estimator import Pmf
from graphbandit.oracles import ip_estimator_checks, resampling_checks

check, overrides = sys.argv[1], json.loads(sys.argv[2])
rng = np.random.Generator(np.random.Philox(1))
before = rng.bit_generator.state["state"]["counter"].tolist()
if check == "resampling":
    kwargs = dict(q=0.5, window=5, loss=0.5, draws=10, rng=rng)
    kwargs.update(overrides)
    call = lambda: resampling_checks(**kwargs)
else:
    graph = NominalGraph.complete(2)
    kwargs = dict(losses=[0.1, 0.2], draws=10)
    kwargs.update(overrides)
    call = lambda: ip_estimator_checks(graph, EdgeProbabilityTable.constant(graph, 0.5), Pmf(np.array([0.5, 0.5])),
                                       rng=rng, **kwargs)
try:
    call()
except ValueError as exc:
    print(json.dumps({"message": str(exc), "drew": rng.bit_generator.state["state"]["counter"].tolist() != before}))
"""


# What each argument must be, where it is not a size.
KINDS = {"q": "a number in (0, 1]", "loss": "a number in [0, 1]", "loss 1": "a number in [0, 1]",
         "loss 2": "a number in [0, 1]"}


@pytest.mark.parametrize(
    "check, overrides, name",
    [
        ("resampling", {"draws": 0}, "draws"),
        ("resampling", {"draws": -3}, "draws"),
        ("resampling", {"window": 0}, "window"),
        ("ip", {"draws": 0}, "draws"),
        ("resampling", {"draws": 10.5}, "draws"),
        ("resampling", {"window": 2.5}, "window"),
        ("resampling", {"draws": True}, "draws"),
        ("ip", {"draws": True}, "draws"),
        ("resampling", {"q": True}, "q"),
        ("resampling", {"q": "0.5"}, "q"),
        ("resampling", {"loss": float("nan")}, "loss"),
        ("resampling", {"loss": 2.0}, "loss"),
        ("resampling", {"loss": "0.5"}, "loss"),
        ("resampling", {"loss": True}, "loss"),
        ("ip", {"losses": [float("nan"), 0.2]}, "loss 1"),
        ("ip", {"losses": [0.1, 3.0]}, "loss 2"),
        ("ip", {"losses": [True, 0.2]}, "loss 1"),
        ("ip", {"losses": ["0.5", 0.2]}, "loss 1"),
    ],
    ids=["resampling-draws-0", "resampling-draws-negative", "resampling-window-0",
         "ip-draws-0", "resampling-draws-fractional", "resampling-window-fractional",
         "resampling-draws-bool", "ip-draws-bool", "resampling-q-bool",
         "resampling-q-string", "resampling-loss-nan", "resampling-loss-2", "resampling-loss-string",
         "resampling-loss-bool", "ip-loss-nan", "ip-loss-3", "ip-loss-bool", "ip-loss-string"],
)
def test_bad_argument_rejected_before_any_draw(check, overrides, name):
    # In a subprocess with a timeout: a bad size must not loop forever.
    src = str(Path(graphbandit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", BAD_ARGUMENT_SCRIPT, check, json.dumps(overrides)],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["message"].startswith(f"{name} must be {KINDS.get(name, 'an integer >= 1')}")
    assert not result["drew"]


@pytest.mark.parametrize(
    "losses, shape", [([[0.1, 0.2], [0.3]], "ragged"), ([0.1], "(1,)"), ([[0.1, 0.2]], "(1, 2)")]
)
def test_losses_of_the_wrong_shape_rejected_before_any_draw(losses, shape):
    graph, rng = NominalGraph.complete(2), np.random.Generator(np.random.Philox(1))
    before = rng.bit_generator.state["state"]["counter"].tolist()
    with pytest.raises(ValueError, match=rf"^need 2 losses, got shape {re.escape(shape)}$"):
        ip_estimator_checks(graph, EdgeProbabilityTable.constant(graph, 0.5), Pmf(np.array([0.5, 0.5])), losses, 10, rng)
    assert rng.bit_generator.state["state"]["counter"].tolist() == before


def test_numpy_integer_sizes_accepted():
    graph = NominalGraph.complete(2)
    checks = ip_estimator_checks(graph, EdgeProbabilityTable.constant(graph, 0.5), Pmf(np.array([0.5, 0.5])),
                                 [0.1, 0.2], draws=np.int64(10), rng=np.random.default_rng(1))
    checks += resampling_checks(0.5, np.int64(5), 0.5, draws=np.int64(10), rng=np.random.default_rng(1))
    assert [type(check.draws) for check in checks] == [int] * len(checks)


def test_single_precision_arguments_give_double_expectations():
    q, loss = np.float32(0.3), np.float32(0.8)
    single = resampling_checks(q, 5, loss, 1000, np.random.default_rng(1))
    double = resampling_checks(float(q), 5, float(loss), 1000, np.random.default_rng(1))
    assert single == double
    assert [type(check.expected) for check in single] == [float, float]


@pytest.mark.parametrize("size", [4, 2])
def test_table_for_another_graph_refused_before_any_draw(size):
    graph = NominalGraph.from_edges(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)])
    other = EdgeProbabilityTable.constant(NominalGraph.complete(size), 0.5)
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=rf"shape \({size}, {size}\), the graph has 3 experts"):
        ip_estimator_checks(graph, other, Pmf(np.full(3, 1 / 3)), [0.1, 0.2, 0.3], draws=10, rng=rng)
    assert rng.bit_generator.state == state
