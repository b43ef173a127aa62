"""The public select/update protocol and snapshots are views of the array
round that run_episode drives.

* Driving ``select`` -> ``realize_feedback`` -> ``update`` by hand, with the
  streams run_episode derives from the seed, gives bit-identical choices,
  incurred losses, weights, last pmf and snapshot text.
* A snapshot taken at any round and resumed gives the same run, bit for
  bit, as the uninterrupted one, under every schedule.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbandit.environment import (
    FEEDBACK_STREAM,
    LEARNER_STREAM,
    LOSS_STREAM,
    StochasticGapAdversary,
    realize_feedback,
    run_episode,
    substream,
)
from graphbandit.graph import EdgeProbabilityTable, NominalGraph
from graphbandit.policies import ALGORITHMS, LearnerConfig, load_snapshot, make_learner
from graphbandit.schedulers import DoublingSchedule, FixedEta, InverseSqrtEta

SCHEDULES = {"fixed": FixedEta(0.1), "inverse-sqrt": InverseSqrtEta(), "doubling": DoublingSchedule()}
HORIZON = 300


def sparse_graph(seed: int, k: int) -> NominalGraph:
    """A seeded digraph with self-loops and about half the other edges."""
    rng = np.random.default_rng([seed, k])
    adjacency = rng.random((k, k)) < 0.5
    np.fill_diagonal(adjacency, True)
    return NominalGraph(adjacency)


def environment_for(name: str):
    if name == "complete-5":
        graph = NominalGraph.complete(5)
        return graph, EdgeProbabilityTable.constant(graph, 0.5)
    graph = sparse_graph(11, 7)
    return graph, EdgeProbabilityTable.uniform(graph, 0.3, 0.9, np.random.default_rng(12))


def new_learner(algorithm, schedule, graph, probs):
    config = LearnerConfig(algorithm, schedule, min_observations=3, epsilon=0.5)
    return make_learner(config, graph, probs=probs if algorithm == "exp3-ip" else None)


def bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).view(np.uint64).tobytes()


@pytest.mark.parametrize("env", ["complete-5", "sparse-7"])
@pytest.mark.parametrize("schedule", list(SCHEDULES))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_hand_driven_protocol_matches_run_episode(algorithm, schedule, env):
    graph, probs = environment_for(env)
    adversary = StochasticGapAdversary(gap=0.2)
    seed = (3, 1)

    episode_learner = new_learner(algorithm, SCHEDULES[schedule], graph, probs)
    trace = run_episode(episode_learner, adversary, graph, probs, HORIZON, seed=seed)

    learner = new_learner(algorithm, SCHEDULES[schedule], graph, probs)
    learner.reseed(np.random.SeedSequence(seed, spawn_key=(LEARNER_STREAM,)))
    table = adversary.materialize(HORIZON, graph.num_experts, substream(seed, LOSS_STREAM))
    feedback_rng = substream(seed, FEEDBACK_STREAM)
    chosen, incurred = [], []
    for t in range(1, HORIZON + 1):
        pick = learner.select(t, graph)
        event = realize_feedback(graph, probs, pick, table[t - 1], feedback_rng, t=t)
        learner.update(event)
        chosen.append(pick)
        incurred.append(event.incurred_loss)

    assert np.array(chosen, dtype=np.int64).tobytes() == trace.chosen.tobytes()
    assert bits(incurred) == bits(trace.incurred)
    assert bits(learner.weights.log_weights) == bits(episode_learner.weights.log_weights)
    assert (learner.last_pmf is None) == (episode_learner.last_pmf is None)
    if learner.last_pmf is not None:
        assert bits(learner.last_pmf.probs) == bits(episode_learner.last_pmf.probs)
    assert learner.snapshot() == episode_learner.snapshot()
    assert learner.rounds_played == episode_learner.rounds_played == HORIZON


def drive(learner, graph, probs, table, feedback_rng, first, last):
    picks = []
    for t in range(first, last + 1):
        pick = learner.select(t, graph)
        learner.update(realize_feedback(graph, probs, pick, table[t - 1], feedback_rng, t=t))
        picks.append(pick)
    return picks


@settings(max_examples=60, deadline=None)
@given(
    algorithm=st.sampled_from(ALGORITHMS),
    schedule=st.sampled_from(list(SCHEDULES)),
    k=st.integers(2, 7),
    graph_seed=st.integers(0, 2**16),
    resume_at=st.integers(1, 159),
)
def test_resume_at_a_random_round_is_bit_exact(algorithm, schedule, k, graph_seed, resume_at):
    horizon = 160
    graph = sparse_graph(graph_seed, k)
    probs = EdgeProbabilityTable.uniform(graph, 0.5, 0.95, np.random.default_rng(graph_seed))
    learner_probs = probs if algorithm == "exp3-ip" else None
    table = StochasticGapAdversary(gap=0.2).materialize(horizon, k, np.random.default_rng(graph_seed + 1))

    whole = new_learner(algorithm, SCHEDULES[schedule], graph, probs)
    whole_picks = drive(whole, graph, probs, table, np.random.default_rng(7), 1, horizon)

    first = new_learner(algorithm, SCHEDULES[schedule], graph, probs)
    feedback_rng = np.random.default_rng(7)
    head = drive(first, graph, probs, table, feedback_rng, 1, resume_at)
    resumed = load_snapshot(first.snapshot(), graph, probs=learner_probs)
    tail = drive(resumed, graph, probs, table, feedback_rng, resume_at + 1, horizon)

    assert head + tail == whole_picks
    assert bits(resumed.weights.log_weights) == bits(whole.weights.log_weights)
    assert resumed.snapshot() == whole.snapshot()
