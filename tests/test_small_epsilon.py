"""Edge probabilities near 0 over a long horizon.

With every edge probability at epsilon, exp3-ip's observation probabilities
are on the epsilon scale, so each estimate it applies is on the 1/epsilon
scale.  The log-domain weights must stay finite and canonical (largest entry
exactly 0) for every informed learner, under both non-doubling schedules.
"""

import numpy as np
import pytest

from graphbandit.environment import StochasticGapAdversary, run_episode
from graphbandit.graph import EdgeProbabilityTable, NominalGraph
from graphbandit.policies import LearnerConfig, make_learner
from graphbandit.schedulers import parse_schedule

HORIZON = 20_000


def seeded_sparse_graph(k: int = 8) -> NominalGraph:
    rng = np.random.default_rng([2024, k])
    adjacency = rng.random((k, k)) < 0.3
    np.fill_diagonal(adjacency, True)
    return NominalGraph(adjacency)


GRAPHS = {"complete-5": NominalGraph.complete(5), "sparse-8": seeded_sparse_graph()}


def final_log_weights(algorithm, schedule, graph, told, environment):
    """Run ``algorithm`` for HORIZON rounds; exp3-ip is told the table ``told``
    and the environment reveals losses at the table ``environment``."""
    config = LearnerConfig(algorithm, parse_schedule(schedule))
    learner = make_learner(config, graph, probs=told if algorithm == "exp3-ip" else None)
    run_episode(learner, StochasticGapAdversary(gap=0.1), graph, environment, HORIZON, seed=77)
    return learner.weights.log_weights


def assert_canonical(log_weights):
    assert np.isfinite(log_weights).all()
    assert log_weights.max() == 0.0


@pytest.mark.parametrize("graph_name", list(GRAPHS))
@pytest.mark.parametrize("schedule", ["inverse-sqrt", "fixed:0.5"])
@pytest.mark.parametrize("epsilon", [1e-3, 1e-6])
def test_log_weights_stay_canonical_at_small_epsilon(graph_name, schedule, epsilon):
    graph = GRAPHS[graph_name]
    table = EdgeProbabilityTable.constant(graph, epsilon)
    for algorithm in ("exp3-ip", "exp3-dom", "exp3"):
        assert_canonical(final_log_weights(algorithm, schedule, graph, table, table))
    # At epsilon = 1e-6 the table above reveals about 0.1 losses in 20,000
    # rounds.  To apply 1/epsilon-scale estimates every round, exp3-ip is told
    # epsilon while the environment reveals each edge with probability 1/2.
    revealing = EdgeProbabilityTable.constant(graph, 0.5)
    log_weights = final_log_weights("exp3-ip", schedule, graph, table, revealing)
    assert_canonical(log_weights)
    assert log_weights.min() < -200
