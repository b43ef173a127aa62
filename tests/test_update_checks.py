"""The checks ``update`` runs on feedback that no episode drew.

* exp3-up and exp3-gr check an event in the order they did when every
  round was recorded through ``observe_row``: on a pmf-driven round, a bad
  loss before a non-edge activation; on an exploration round, only the
  activations.  ``reference_update_outcome`` keeps that order.
* exp3 rejects a bad loss anywhere in the feedback, as exp3-dom does, with
  the same message for the first bad entry in feedback order.
* Every learner rejects an index outside 1..K or a repeated one before any
  other check, and a rejected event leaves the learner as it was.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbandit.environment import FeedbackEvent, StochasticGapAdversary, run_episode
from graphbandit.errors import ContractError
from graphbandit.graph import EdgeProbabilityTable, NominalGraph
from graphbandit.policies import ALGORITHMS, LearnerConfig, make_learner
from graphbandit.schedulers import FixedEta

SPARSE = NominalGraph(
    np.array(
        [
            [1, 1, 0, 0],
            [0, 1, 1, 0],
            [1, 0, 1, 0],
            [0, 1, 1, 1],
        ],
        dtype=bool,
    )
)
BAD_LOSSES = (math.nan, math.inf, -math.inf, 1.5, -0.25, float(np.nextafter(1.0, 2.0)))


def reference_update_outcome(graph, exploring, chosen, observed):
    """What exp3-up and exp3-gr raised on ``update`` when every round's
    activations were recorded through ``observe_row``: a pmf-driven round
    first estimated the losses (the first loss outside [0, 1] in feedback
    order raises), then recorded the round (an activation on a non-edge
    raises); an exploration round only recorded it."""
    if not exploring:
        for _, loss in observed:
            if not 0 <= loss <= 1:
                return ("ValueError", f"loss must be in [0, 1], got {loss}")
    if any(not graph.adjacency[chosen - 1, j - 1] for j, _ in observed):
        return ("ContractError", "activation reported for a non-edge")
    return ("ok", None)


def outcome(fn, *args):
    try:
        fn(*args)
    except (ValueError, ContractError) as exc:
        return (type(exc).__name__, str(exc))
    return ("ok", None)


def learner_at(algorithm, exploring):
    """A learner about to play its first round, or its first round after
    forced exploration (run by run_episode)."""
    learner = make_learner(LearnerConfig(algorithm, FixedEta(0.2), min_observations=2), SPARSE, seed=3)
    if exploring:
        return learner, 1
    explore = SPARSE.num_experts * 2
    probs = EdgeProbabilityTable.constant(SPARSE, 0.7)
    run_episode(learner, StochasticGapAdversary(gap=0.2), SPARSE, probs, explore, seed=4)
    assert not learner._exploring()
    return learner, explore + 1


@settings(max_examples=60, deadline=None)
@given(
    algorithm=st.sampled_from(["exp3-up", "exp3-gr"]),
    exploring=st.booleans(),
    data=st.data(),
)
def test_update_checks_in_the_reference_order(algorithm, exploring, data):
    learner, t = learner_at(algorithm, exploring)
    pick = learner.select(t, SPARSE)
    targets = data.draw(st.lists(st.integers(1, SPARSE.num_experts), unique=True, max_size=4))
    losses = [data.draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(BAD_LOSSES))) for _ in targets]
    observed = tuple(zip(targets, losses))
    expected = reference_update_outcome(SPARSE, exploring, pick, observed)
    assert outcome(learner.update, FeedbackEvent(t, pick, observed, 0.5)) == expected


@pytest.mark.parametrize("algorithm", ["exp3-up", "exp3-gr"])
@pytest.mark.parametrize("exploring", [True, False])
def test_bad_loss_and_non_edge_together(algorithm, exploring):
    learner, t = learner_at(algorithm, exploring)
    pick = learner.select(t, SPARSE)
    non_edge = int(np.flatnonzero(~SPARSE.adjacency[pick - 1])[0]) + 1
    observed = ((pick, math.nan), (non_edge, 0.5))
    with pytest.raises((ContractError, ValueError)) as raised:
        learner.update(FeedbackEvent(t, pick, observed, 0.5))
    expected = reference_update_outcome(SPARSE, exploring, pick, observed)
    assert (type(raised.value).__name__, str(raised.value)) == expected
    assert expected[0] == ("ContractError" if exploring else "ValueError")


# ---------------------------------------------------------------------------
# exp3 checks every loss it is given
# ---------------------------------------------------------------------------


EXP3_EVENTS = {
    "nan-other-first": lambda pick, other: ((other, math.nan), (pick, 0.5)),
    "out-of-range-other-last": lambda pick, other: ((pick, 0.5), (other, 1.5)),
    "two-bad-other-first": lambda pick, other: ((other, -0.25), (pick, math.nan)),
    "inf-other-only": lambda pick, other: ((other, math.inf),),
    "all-good": lambda pick, other: ((other, 0.25), (pick, 0.5)),
}


@pytest.mark.parametrize("observed_of", list(EXP3_EVENTS.values()), ids=list(EXP3_EVENTS))
def test_exp3_rejects_the_losses_exp3_dom_rejects(observed_of):
    graph = NominalGraph.complete(3)
    results = {}
    for algorithm in ("exp3", "exp3-dom"):
        learner = make_learner(LearnerConfig(algorithm, FixedEta(0.2)), graph, seed=1)
        pick = learner.select(1, graph)
        observed = observed_of(pick, pick % 3 + 1)
        results[algorithm] = outcome(learner.update, FeedbackEvent(1, pick, observed, 0.5))
    assert results["exp3"] == results["exp3-dom"]


def test_exp3_rejects_a_nan_loss_of_another_expert():
    graph = NominalGraph.complete(3)
    learner = make_learner(LearnerConfig("exp3", FixedEta(0.2)), graph, seed=1)
    pick = learner.select(1, graph)
    other = pick % 3 + 1
    with pytest.raises(ValueError, match=r"loss must be in \[0, 1\], got nan"):
        learner.update(FeedbackEvent(1, pick, ((other, math.nan), (pick, 0.5)), 0.5))


# ---------------------------------------------------------------------------
# Indices are checked first, and a rejected event changes nothing
# ---------------------------------------------------------------------------


# Complete, so an index that wrapped around would land on an out-edge.
COMPLETE = NominalGraph.complete(4)


def twins(algorithm, exploring):
    """Two equal learners about to play the same round, and its number: the
    first round, or the first after eight played by run_episode (exp3-up's
    and exp3-gr's forced exploration, with M = 2)."""
    probs = EdgeProbabilityTable.constant(COMPLETE, 0.7)
    pair = []
    for _ in range(2):
        config = LearnerConfig(algorithm, FixedEta(0.2), min_observations=2)
        learner = make_learner(config, COMPLETE, probs=probs if algorithm == "exp3-ip" else None, seed=3)
        if not exploring:
            run_episode(learner, StochasticGapAdversary(gap=0.2), COMPLETE, probs, 8, seed=4)
        assert getattr(learner, "_exploring", lambda: False)() == exploring
        pair.append(learner)
    return pair, 1 if exploring else 9


def good_feedback(data, k, min_size=0):
    targets = data.draw(st.lists(st.integers(1, k), unique=True, min_size=min_size, max_size=k))
    return tuple((j, data.draw(st.floats(0.0, 1.0))) for j in targets)


@pytest.mark.parametrize(
    "algorithm, exploring", [(a, False) for a in ALGORITHMS] + [("exp3-up", True), ("exp3-gr", True)]
)
@pytest.mark.parametrize("bad", ["zero", "minus-one", "past-k", "fractional", "repeated"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_bad_index_rejected_and_the_learner_left_unchanged(algorithm, exploring, bad, data):
    (learner, twin), t = twins(algorithm, exploring)
    pick = learner.select(t, COMPLETE)
    assert twin.select(t, COMPLETE) == pick
    k = COMPLETE.num_experts
    good = good_feedback(data, k, min_size=1 if bad == "repeated" else 0)
    if bad == "repeated":
        index = data.draw(st.sampled_from([j for j, _ in good]))
    else:
        index = {"zero": 0, "minus-one": -1, "past-k": k + 1, "fractional": 1.5}[bad]
    # The index check comes first, so a bad loss beside it changes nothing.
    entry = (index, data.draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(BAD_LOSSES))))
    at = data.draw(st.integers(0, len(good)))
    with pytest.raises(ContractError, match="observed indices must be distinct"):
        learner.update(FeedbackEvent(t, pick, good[:at] + (entry,) + good[at:], 0.5))
    for each in (learner, twin):
        each.update(FeedbackEvent(t, pick, good, 0.5))
    assert learner.snapshot() == twin.snapshot()


@settings(max_examples=20, deadline=None)
@given(bad_loss=st.sampled_from(BAD_LOSSES), data=st.data())
def test_rejected_loss_leaves_exp3_gr_generator_alone(bad_loss, data):
    (learner, twin), t = twins("exp3-gr", exploring=False)
    pick = learner.select(t, COMPLETE)
    assert twin.select(t, COMPLETE) == pick
    good = good_feedback(data, COMPLETE.num_experts, min_size=1)
    at = data.draw(st.integers(0, len(good) - 1))
    bad = good[:at] + ((good[at][0], bad_loss),) + good[at + 1 :]
    with pytest.raises(ValueError, match=r"loss must be in \[0, 1\]"):
        learner.update(FeedbackEvent(t, pick, bad, 0.5))
    for each in (learner, twin):
        each.update(FeedbackEvent(t, pick, good, 0.5))
    assert learner.snapshot() == twin.snapshot()
