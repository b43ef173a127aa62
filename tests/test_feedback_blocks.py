"""run_episode reads the feedback stream in blocks of ``_FEED_BLOCK``
doubles through a copy of the generator, then moves the generator past
the doubles it used.  Against the per-round loop of ``test_forced_runs``
(one ``_fire`` call per round on the generator itself), at horizons whose
draws span more than two blocks, on a complete graph and on a seeded
sparse graph of varying out-degree, for every learner and schedule: equal
choices and incurred losses, equal snapshot text and an equal final
feedback-generator state.
"""

import numpy as np
import pytest
from test_forced_runs import SCHEDULES, block_episode, per_round_episode, same_state

from graphbandit.environment import _FEED_BLOCK, StochasticGapAdversary
from graphbandit.graph import EdgeProbabilityTable, NominalGraph
from graphbandit.policies import ALGORITHMS, LearnerConfig, make_learner


def sparse_graph(seed: int, k: int = 7) -> NominalGraph:
    """Expert i (0-based) has 1 + (i mod 4) out-neighbours besides itself."""
    rng = np.random.default_rng([seed, k])
    adjacency = np.eye(k, dtype=bool)
    for i in range(k):
        adjacency[i, rng.choice(np.delete(np.arange(k), i), size=1 + i % 4, replace=False)] = True
    return NominalGraph(adjacency)


# K <= 7 keeps the informed learners' first doubling rate, sqrt(ln K / 2), at or below 1.
GRAPHS = {"complete": NominalGraph.complete(6), "sparse": sparse_graph(11)}


def outcome(episode, algorithm, schedule, graph, probs, horizon):
    config = LearnerConfig(algorithm, SCHEDULES[schedule], min_observations=4, epsilon=0.5)
    learner = make_learner(config, graph, probs=probs if algorithm == "exp3-ip" else None, seed=5)
    try:
        chosen, incurred, feedback = episode(learner, StochasticGapAdversary(gap=0.2), graph, probs, horizon, 9)
    except Exception as exc:  # the same error, raised in the same round, is equal too
        return (type(exc).__name__, str(exc), learner.rounds_played)
    return chosen, incurred, feedback, learner.snapshot()


@pytest.mark.parametrize("graph_name", list(GRAPHS))
@pytest.mark.parametrize("schedule", list(SCHEDULES))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_block_reads_equal_per_round_draws(algorithm, schedule, graph_name):
    graph = GRAPHS[graph_name]
    probs = EdgeProbabilityTable.uniform(graph, 0.2, 1.0, np.random.default_rng(3))
    degree = graph.adjacency.sum(axis=1)
    horizon = 2 * _FEED_BLOCK // int(degree.min()) + 1  # every round draws at least the smallest out-degree
    block = outcome(block_episode, algorithm, schedule, graph, probs, horizon)
    reference = outcome(per_round_episode, algorithm, schedule, graph, probs, horizon)
    assert len(block) == len(reference) == 4, (block, reference)
    chosen, incurred, feedback, snapshot = block
    assert degree[chosen - 1].sum() > 2 * _FEED_BLOCK
    assert chosen.tobytes() == reference[0].tobytes()
    assert incurred.tobytes() == reference[1].tobytes()
    assert same_state(feedback, reference[2])
    assert snapshot == reference[3]
