"""Every check of a learner-round still fires, on both paths.

``run_episode`` checks its loss table before round 1, so on that path the
estimate kernels check only q or the trial counts, and the weight step
checks its result with one sum.  ``update`` keeps every check.  Each bad
value below goes through ``run_episode`` and through ``update`` and must
raise the error type and message it always raised:

* a loss outside [0, 1]: the table check before round 1, or the estimate
  kernel's check in ``update``;
* an estimate that overflows to inf (a subnormal q): the weight step's
  ``InvariantError``;
* a trial count outside [1, M]: exp3-gr's ``ContractError``;
* a non-finite selection vector: ``_normalized``'s ``InvariantError``,
  raised from ``select`` on both paths.
"""

import contextlib
import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

from graphbandit import policies
from graphbandit.environment import FeedbackEvent, StochasticGapAdversary, run_episode
from graphbandit.errors import ContractError, InvariantError
from graphbandit.estimator import _exp_weight_step
from graphbandit.graph import EdgeProbabilityTable, NominalGraph
from graphbandit.policies import ALGORITHMS, LearnerConfig, ProbabilityEstimatorState, make_learner
from graphbandit.schedulers import FixedEta

GRAPH = NominalGraph.complete(4)
PROBS = EdgeProbabilityTable.constant(GRAPH, 0.7)
MIN_OBS = 3
EXPLORE = GRAPH.num_experts * MIN_OBS  # forced rounds of exp3-up and exp3-gr
SUBNORMAL = 1e-310  # 1.0 / SUBNORMAL overflows to inf

pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")


def new_learner(algorithm):
    config = LearnerConfig(algorithm, FixedEta(0.2), min_observations=MIN_OBS)
    return make_learner(config, GRAPH, probs=PROBS if algorithm == "exp3-ip" else None, seed=3)


def played(algorithm):
    """A learner about to play a pmf-driven round, and that round's number."""
    learner = new_learner(algorithm)
    if algorithm not in ("exp3-up", "exp3-gr"):
        return learner, 1
    run_episode(learner, StochasticGapAdversary(gap=0.2), GRAPH, PROBS, EXPLORE, seed=4)
    assert not learner._exploring()
    return learner, EXPLORE + 1


def update_with(learner, t, loss):
    """Play round ``t`` through ``update``, every expert's loss revealed as ``loss``."""
    pick = learner.select(t, GRAPH)
    observed = tuple((j, loss) for j in range(1, GRAPH.num_experts + 1))
    learner.update(FeedbackEvent(t, pick, observed, loss))


class BadTable:
    def __init__(self, value):
        self.value = value

    def materialize(self, horizon, num_experts, rng):
        table = np.full((horizon, num_experts), 0.5)
        table[-1, -1] = self.value
        return table


BAD_LOSSES = [math.nan, math.inf, -math.inf, 1.5, -0.25, float(np.nextafter(1.0, 2.0))]


@pytest.mark.parametrize("value", BAD_LOSSES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_bad_loss_table_is_rejected_before_round_1(algorithm, value):
    learner = new_learner(algorithm)
    with mock.patch.object(type(learner), "select", side_effect=AssertionError("a round was played")):
        with pytest.raises(ContractError, match=r"^adversary produced losses outside \[0, 1\] or non-finite$"):
            run_episode(learner, BadTable(value), GRAPH, PROBS, 30, seed=1)
    assert learner.rounds_played == 0


@pytest.mark.parametrize("value", BAD_LOSSES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_bad_loss_through_update(algorithm, value):
    learner, t = played(algorithm)
    with pytest.raises(ValueError, match=rf"^loss must be in \[0, 1\], got {value}$"):
        update_with(learner, t, value)


def subnormal_q(learner):
    """Make every observation probability ``learner`` divides by subnormal:
    the informed learners' table, or exp3-up's divisors after each record."""
    if learner.algorithm != "exp3-up":
        masked = np.where(learner._table.masked > 0, SUBNORMAL, 0.0)
        learner._table = dataclasses.replace(learner._table, masked=masked)
        return contextlib.nullcontext()
    original = ProbabilityEstimatorState._record

    def record(self, source, hits):
        original(self, source, hits)
        self._divisors[self._divisors > 0] = SUBNORMAL

    learner._state._divisors[learner._state._divisors > 0] = SUBNORMAL
    return mock.patch.object(ProbabilityEstimatorState, "_record", record)


OVERFLOWING = ["exp3", "exp3-dom", "exp3-ip", "exp3-up"]


@pytest.mark.parametrize("algorithm", OVERFLOWING)
def test_infinite_estimate_through_run_episode(algorithm):
    learner = new_learner(algorithm)
    with subnormal_q(learner), pytest.raises(InvariantError, match="^loss estimates must be finite$"):
        run_episode(learner, StochasticGapAdversary(gap=0.2), GRAPH, PROBS, 200, seed=1)


@pytest.mark.parametrize("algorithm", OVERFLOWING)
def test_infinite_estimate_through_update(algorithm):
    learner, t = played(algorithm)
    with subnormal_q(learner), pytest.raises(InvariantError, match="^loss estimates must be finite$"):
        update_with(learner, t, 1.0)


@pytest.mark.parametrize("bad", [0, MIN_OBS + 1])
def test_trial_count_outside_range_through_run_episode(bad):
    learner = new_learner("exp3-gr")
    first_success = mock.patch.object(policies, "_first_success", lambda rows, samples: np.full(rows.shape[0], bad))
    with first_success, pytest.raises(ContractError, match=rf"^trial count {bad} outside \[1, {MIN_OBS}\]$"):
        run_episode(learner, StochasticGapAdversary(gap=0.2), GRAPH, PROBS, 200, seed=1)
    assert learner.rounds_played == EXPLORE


@pytest.mark.parametrize("bad", [0, MIN_OBS + 1])
def test_trial_count_outside_range_through_update(bad):
    learner, t = played("exp3-gr")
    first_success = mock.patch.object(policies, "_first_success", lambda rows, samples: np.full(rows.shape[0], bad))
    with first_success, pytest.raises(ContractError, match=rf"^trial count {bad} outside \[1, {MIN_OBS}\]$"):
        update_with(learner, t, 0.5)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_non_finite_selection_vector_through_run_episode_and_select(algorithm):
    nan_weights = np.array([0.0, math.nan, 0.0, 0.0])
    learner = new_learner(algorithm)
    learner._log_weights = nan_weights
    with pytest.raises(InvariantError, match="^pmf contains non-finite entries$"):
        run_episode(learner, StochasticGapAdversary(gap=0.2), GRAPH, PROBS, 200, seed=1)
    learner, t = played(algorithm)
    learner._log_weights = nan_weights
    with pytest.raises(InvariantError, match="^pmf contains non-finite entries$"):
        learner.select(t, GRAPH)


def test_weight_step_whose_sum_overflows_takes_the_full_step():
    """Finite stepped entries whose sum overflows: the fallback step, as before."""
    learner = new_learner("exp3-dom")
    learner._log_weights = np.array([0.0, -1e308, -1e308, -1.0])
    fired, values = np.array([1, 2]), np.array([3.0, 4.0])
    estimates = np.zeros(4)
    estimates[fired] = values
    expected = _exp_weight_step(learner._log_weights, 0.2, estimates)
    learner._exp_update(0.2, fired, values)
    assert np.isfinite(learner._log_weights).all()
    assert learner._log_weights.tobytes() == expected.tobytes()
