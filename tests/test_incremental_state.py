"""The uninformative learners keep their per-edge statistics incrementally.

exp3-up's inflated divisors D = ((p_hat + xi/sqrt(M)) * A)^T and both
counters of edges below the sample floor (the estimator state's and the
resample buffer's) equal a from-scratch recount after every round, under
every schedule, across doubling restarts and across a snapshot/restore, for
feedback handed over as run_episode hands it and through ``update``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbandit.environment import FeedbackEvent, StochasticGapAdversary, _fire
from graphbandit.graph import EdgeProbabilityTable, NominalGraph
from graphbandit.policies import LearnerConfig, _inflated_divisors, load_snapshot, make_learner
from graphbandit.schedulers import DoublingSchedule, FixedEta, InverseSqrtEta

SCHEDULES = {"fixed": FixedEta(0.1), "inverse-sqrt": InverseSqrtEta(), "doubling": DoublingSchedule()}


def random_graph(seed: int, k: int) -> NominalGraph:
    rng = np.random.default_rng([seed, k])
    adjacency = rng.random((k, k)) < rng.uniform(0.2, 0.8)
    np.fill_diagonal(adjacency, True)
    return NominalGraph(adjacency)


def bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).view(np.uint64).tobytes()


def assert_statistics_recounted(learner) -> None:
    adjacency = learner._graph.adjacency
    floor = learner.min_observations
    if learner.algorithm == "exp3-up":
        state = learner.estimator_state
        inflation = learner.confidence_width / math.sqrt(floor)
        rebuilt = _inflated_divisors(adjacency, state.estimates, inflation)
        assert bits(state._divisors) == bits(rebuilt)
        assert state._short == np.count_nonzero((state.counts < floor) & adjacency)
    else:
        buffers = learner.buffers
        assert buffers._short == np.count_nonzero(buffers._written < buffers.capacity)


@settings(max_examples=60, deadline=None)
@given(
    algorithm=st.sampled_from(["exp3-up", "exp3-gr"]),
    schedule=st.sampled_from(list(SCHEDULES)),
    k=st.integers(2, 8),
    seed=st.integers(0, 2**16),
    restore_at=st.integers(1, 399),
    through_update=st.booleans(),
)
def test_incremental_statistics_equal_a_recount(algorithm, schedule, k, seed, restore_at, through_update):
    horizon = 400
    graph = random_graph(seed, k)
    probs = EdgeProbabilityTable.uniform(graph, 0.2, 1.0, np.random.default_rng(seed))
    table = StochasticGapAdversary(gap=0.2).materialize(horizon, k, np.random.default_rng(seed + 1))
    config = LearnerConfig(algorithm, SCHEDULES[schedule], min_observations=3, epsilon=0.5)
    learner = make_learner(config, graph, seed=seed)
    feedback_rng = np.random.default_rng(seed + 2)
    first_epoch = learner._epoch
    assert_statistics_recounted(learner)
    for t in range(1, horizon + 1):
        pick = learner.select(t, graph)
        fired, hits = _fire(graph, probs, pick, feedback_rng)
        losses = table[t - 1, fired]
        if through_update:  # update rebuilds the hit mask from the fired positions
            event = FeedbackEvent(t, pick, tuple(zip((fired + 1).tolist(), losses.tolist())), 0.0)
            learner.update(event)
        else:  # as run_episode hands the round over
            learner._observe(t, pick, fired, losses, hits)
        assert_statistics_recounted(learner)
        if t == restore_at:
            learner = load_snapshot(learner.snapshot(), graph)
            assert_statistics_recounted(learner)
    if schedule == "doubling":  # the floor rose at least once
        assert learner._epoch > first_epoch
