"""An episode streams its (T, K) loss table in row blocks and never holds it.

* The gap and switching adversaries hand out row blocks of ``_TABLE_BLOCK``
  doubles, each drawn when asked for; ``materialize`` fills one table from
  them, and the table and the generator's final state equal the one-shot
  formulas kept here as the reference.
* The harness hashes the blocks and sums the experts' losses at the
  checkpoints in one pass, carrying each block's last sums: the digest is
  the whole table's, and the sums equal ``np.cumsum``'s bit for bit, signed
  zeros included.
* ``RunTrace.loss_table`` is the adversary's table on a fresh loss stream.
* ``run_experiment`` on K = 50, T = 200,000 peaks at under 0.1 tables above
  its entry; bad tables and bad adversary arguments still stop an episode
  before round 1.
* A numpy-integer horizon plays as the ``int`` one.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_forced_runs import same_state

from graphbandit.environment import (
    _TABLE_BLOCK,
    LOSS_STREAM,
    FixedTableAdversary,
    StochasticGapAdversary,
    SwitchingAdversary,
    _loss_blocks,
    run_episode,
    substream,
)
from graphbandit.errors import ContractError
from graphbandit.graph import EdgeProbabilityTable, NominalGraph
from graphbandit.harness import ExperimentConfig, _checkpoint_sums, checkpoint_rounds, run_experiment
from graphbandit.policies import LearnerConfig, make_learner

GENERATORS = {
    "philox": lambda: np.random.Generator(np.random.Philox(7)),
    "default_rng": lambda: np.random.default_rng(7),
}


def one_shot_gap(adversary, horizon, num_experts, rng):
    """``StochasticGapAdversary.materialize`` as one draw of the whole table."""
    means = np.full(num_experts, adversary.base)
    means[adversary.best_arm - 1] = adversary.base - adversary.gap
    return (rng.random((horizon, num_experts)) < means).astype(float)


def one_shot_switching(adversary, horizon, num_experts, rng):
    """``SwitchingAdversary.materialize`` as one draw of the whole table."""
    blocks = np.arange(horizon) // adversary.period
    best = blocks % num_experts
    means = np.full((horizon, num_experts), adversary.base)
    means[np.arange(horizon), best] = adversary.base - adversary.gap
    return (rng.random((horizon, num_experts)) < means).astype(float)


ADVERSARIES = {
    "gap": (StochasticGapAdversary(gap=0.2, best_arm=1), one_shot_gap),
    "switching": (SwitchingAdversary(gap=0.3, period=13), one_shot_switching),
}


HORIZONS = {  # from the rows of one drawn block
    "1": lambda block: 1,
    "block-1": lambda block: block - 1,
    "block": lambda block: block,
    "block+1": lambda block: block + 1,
    "3*block+7": lambda block: 3 * block + 7,
}


@pytest.mark.parametrize("generator", list(GENERATORS))
@pytest.mark.parametrize("horizon_name", list(HORIZONS))
@pytest.mark.parametrize("num_experts", [1, 10, 50])
@pytest.mark.parametrize("kind", list(ADVERSARIES))
def test_block_draws_equal_one_shot_table(kind, num_experts, horizon_name, generator):
    adversary, reference = ADVERSARIES[kind]
    horizon = HORIZONS[horizon_name](_TABLE_BLOCK // num_experts)
    rng, reference_rng = GENERATORS[generator](), GENERATORS[generator]()
    table = adversary.materialize(horizon, num_experts, rng)
    expected = reference(adversary, horizon, num_experts, reference_rng)
    assert table.dtype == expected.dtype and table.shape == expected.shape
    assert table.tobytes() == expected.tobytes()
    assert same_state(rng, reference_rng)


@pytest.mark.parametrize(
    "adversary", [StochasticGapAdversary(gap=0.25, base=1), SwitchingAdversary(gap=0.25, period=10_000, base=1)]
)
def test_integer_base_keeps_the_gap(adversary):
    # The one-shot formulas filled an integer array for an integer base, so
    # base - gap truncated to 0 and the best arm never lost.
    means = adversary.materialize(4_000, 3, np.random.default_rng(1)).mean(axis=0)
    assert means[0] == pytest.approx(0.75, abs=0.05) and means[1:].tolist() == [1.0, 1.0]


def row_blocks(table):
    """``table``'s C-ordered row blocks of ``_TABLE_BLOCK`` doubles, as the adversaries hand them out."""
    step = max(1, _TABLE_BLOCK // table.shape[1])
    return [table[lo : lo + step] for lo in range(0, table.shape[0], step)]


@settings(max_examples=50, deadline=None)
@given(
    num_experts=st.sampled_from([1, 3, 50]),
    offset=st.integers(-2, 2),
    blocks=st.integers(0, 2),
    negative_zeros=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
    spaced=st.booleans(),
)
def test_carried_sums_equal_cumsum(num_experts, offset, blocks, negative_zeros, seed, spaced):
    rng = np.random.default_rng(seed)
    horizon = max(1, blocks * (_TABLE_BLOCK // num_experts) + offset)
    table = rng.random((horizon, num_experts))
    table[rng.random(table.shape) < negative_zeros] = -0.0
    if spaced:
        checkpoints = checkpoint_rounds(horizon)
    else:
        checkpoints = np.unique(rng.integers(1, horizon + 1, size=rng.integers(1, 20)))
    expected = np.cumsum(table, axis=0)[checkpoints - 1]
    assert _checkpoint_sums(row_blocks(table), checkpoints, hashlib.sha256()).tobytes() == expected.tobytes()


def test_carried_sums_keep_negative_zero():
    table = np.full((3 * (_TABLE_BLOCK // 4) + 1, 4), -0.0)
    checkpoints = checkpoint_rounds(table.shape[0])
    assert np.signbit(_checkpoint_sums(row_blocks(table), checkpoints, hashlib.sha256())).all()


DIGEST_ADVERSARIES = {
    "gap": lambda horizon, k: StochasticGapAdversary(gap=0.2, best_arm=k),
    "switching": lambda horizon, k: SwitchingAdversary(gap=0.3, period=13),
    "fixed": lambda horizon, k: FixedTableAdversary(np.random.default_rng([horizon, k]).random((horizon + 3, k))),
    "fixed-fortran": lambda horizon, k: FixedTableAdversary(
        np.asfortranarray(np.random.default_rng(k).random((horizon, k)))
    ),
}


@pytest.mark.parametrize("horizon_name", ["1", "block-1", "3*block+7"])
@pytest.mark.parametrize("num_experts", [1, 7, 50])
@pytest.mark.parametrize("kind", list(DIGEST_ADVERSARIES))
def test_block_fed_digest_is_the_whole_table_digest(kind, num_experts, horizon_name):
    horizon = HORIZONS[horizon_name](_TABLE_BLOCK // num_experts)
    adversary, seed = DIGEST_ADVERSARIES[kind](horizon, num_experts), (3, 1)
    table = adversary.materialize(horizon, num_experts, substream(seed, LOSS_STREAM))
    digest, checkpoints = hashlib.sha256(), checkpoint_rounds(horizon)
    sums = _checkpoint_sums(_loss_blocks(adversary, horizon, num_experts, seed), checkpoints, digest)
    assert digest.hexdigest() == hashlib.sha256(np.ascontiguousarray(table)).hexdigest()
    assert sums.tobytes() == np.cumsum(table, axis=0)[checkpoints - 1].tobytes()


@pytest.mark.parametrize("kind", ["gap", "switching", "fixed"])
def test_trace_loss_table_is_the_adversarys_table(kind):
    graph = NominalGraph.complete(7)
    probs = EdgeProbabilityTable.constant(graph, 0.5)
    horizon = 3 * (_TABLE_BLOCK // 7) + 7
    adversary = DIGEST_ADVERSARIES[kind](horizon, 7)
    trace = run_episode(make_learner(LearnerConfig("exp3-gr"), graph), adversary, graph, probs, horizon, seed=11)
    table = adversary.materialize(horizon, 7, substream(11, LOSS_STREAM))
    assert trace.loss_table.tobytes() == table.tobytes()
    assert trace.incurred.tobytes() == table[np.arange(horizon), trace.chosen - 1].tobytes()


BAD_LOSSES = [np.nan, np.inf, -np.inf, -0.01, 1.01]


class _BadAdversary:
    """A custom adversary, which no constructor checks: one bad entry in its last row."""

    def __init__(self, value):
        self.value = value

    def materialize(self, horizon, num_experts, rng):
        table = np.full((horizon, num_experts), 0.5)
        table[-1, -1] = self.value
        return table


def test_episode_holds_no_loss_table():
    horizon, num_experts = 200_000, 50
    cfg = ExperimentConfig(
        algorithms=("exp3",),
        graph=NominalGraph.complete(num_experts),
        prob_generator=("equal", 0.5),
        adversary=SwitchingAdversary(gap=0.1, period=2000),
        horizon=horizon,
        runs=1,
        seed=1,
    )
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        if started:
            tracemalloc.stop()
    assert peak <= 0.1 * horizon * num_experts * 8, f"peak {peak / (horizon * num_experts * 8):.2f} tables"

    graph = NominalGraph.complete(3)
    probs = EdgeProbabilityTable.constant(graph, 0.5)
    for value in BAD_LOSSES:
        table = np.full((5, 3), 0.5)
        table[4, 2] = value
        with pytest.raises(ValueError, match=r"^losses must lie in \[0, 1\]$"):
            FixedTableAdversary(table)
        learner = make_learner(LearnerConfig("exp3"), graph)
        with pytest.raises(ContractError, match=r"^adversary produced losses outside \[0, 1\] or non-finite$"):
            run_episode(learner, _BadAdversary(value), graph, probs, 5, seed=0)
        assert learner.rounds_played == 0


@pytest.mark.parametrize("algorithm", ["exp3", "exp3-gr"])
def test_bad_adversary_stops_the_episode_before_round_1(algorithm):
    graph = NominalGraph.complete(3)
    probs = EdgeProbabilityTable.constant(graph, 0.5)
    horizon = 3 * _TABLE_BLOCK
    learner = make_learner(LearnerConfig(algorithm), graph)
    with pytest.raises(ValueError, match=r"^best arm 4 out of range 1\.\.3$"):
        run_episode(learner, StochasticGapAdversary(gap=0.2, best_arm=4), graph, probs, horizon, seed=0)
    assert learner.rounds_played == 0
    for value in BAD_LOSSES:  # in the last row of a table longer than a block, served whole
        with pytest.raises(ContractError, match=r"^adversary produced losses outside \[0, 1\] or non-finite$"):
            run_episode(learner, _BadAdversary(value), graph, probs, horizon, seed=0)
        assert learner.rounds_played == 0
    with pytest.raises(ContractError, match=r"^adversary produced shape \(5, 3\), expected \(6, 3\)$"):
        run_episode(learner, FixedShape(np.full((5, 3), 0.5)), graph, probs, 6, seed=0)
    assert learner.rounds_played == 0


class FixedShape:
    """A custom adversary that serves one table whatever the horizon."""

    def __init__(self, table):
        self.table = table

    def materialize(self, horizon, num_experts, rng):
        return self.table


@pytest.mark.parametrize("algorithm", ["exp3-up", "exp3-gr"])
def test_numpy_integer_horizon_snapshots_as_int(algorithm):
    graph = NominalGraph.complete(3)
    probs = EdgeProbabilityTable.constant(graph, 0.5)
    snapshots = []
    for horizon in (4, np.int64(4)):
        learner = make_learner(LearnerConfig(algorithm, min_observations=2), graph)
        run_episode(learner, StochasticGapAdversary(gap=0.2), graph, probs, horizon, seed=3)
        assert type(learner.rounds_played) is int
        snapshots.append(learner.snapshot())
    assert snapshots[0] == snapshots[1]
