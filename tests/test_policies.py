import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from graphbandit.environment import (
    FeedbackEvent,
    StochasticGapAdversary,
    realize_feedback,
    run_episode,
)
from graphbandit.errors import ConfigError, ContractError, PhaseOrderError, ProtocolError
from graphbandit.estimator import Pmf, WeightVector, _normalized, _softmax, sample_index
from graphbandit.graph import EdgeProbabilityTable, NominalGraph, VertexSet, greedy_dominating_set
from graphbandit.oracles import resampling_checks
from graphbandit.policies import (
    _REGISTRY,
    ALGORITHMS,
    Exp3GR,
    Exp3IP,
    Exp3UP,
    LearnerConfig,
    ProbabilityEstimatorState,
    ResampleBuffer,
    _resampled_estimates,
    _mix,
    estimated_observation_prob,
    exp3ip_pmf,
    geometric_resample,
    load_snapshot,
    make_learner,
    observation_probs,
)
from graphbandit.schedulers import DoublingSchedule, FixedEta, InverseSqrtEta

CHI2_99_9_DOF2 = 13.815510557964274


def constant_table(graph, value):
    return EdgeProbabilityTable.constant(graph, value)


def uniform_mix_pmf(log_weights, eta, dominating):
    """The uninformative learners' selection pmf for 1-based dominating-set members."""
    return _normalized(_mix(np.asarray(log_weights, dtype=float), eta, np.array(dominating) - 1, None))


class TestSelectionPmfs:
    def test_informed_pmf_pure_exploitation(self):
        g = NominalGraph.complete(3)
        pmf = exp3ip_pmf(WeightVector.uniform(3), 0.0, g, constant_table(g, 0.5), VertexSet((1,)))
        np.testing.assert_allclose(pmf.probs, 1 / 3)

    def test_informed_pmf_pure_exploration(self):
        g = NominalGraph.complete(2)
        pmf = exp3ip_pmf(WeightVector.uniform(2), 1.0, g, constant_table(g, 0.5), VertexSet((1,)))
        np.testing.assert_array_equal(pmf.probs, [1.0, 0.0])

    def test_informed_pmf_hand_value(self):
        g = NominalGraph.complete(2)
        pmf = exp3ip_pmf(WeightVector.uniform(2), 0.5, g, constant_table(g, 0.5), VertexSet((1,)))
        np.testing.assert_allclose(pmf.probs, [0.75, 0.25])

    def test_uniform_mix_pmf_pure_exploitation(self):
        pmf = uniform_mix_pmf(np.log([3.0, 1.0]), 0.0, (1, 2))
        np.testing.assert_allclose(pmf, [0.75, 0.25])

    def test_uniform_mix_pmf_pure_exploration(self):
        pmf = uniform_mix_pmf(np.zeros(3), 1.0, (2,))
        np.testing.assert_array_equal(pmf, [0.0, 1.0, 0.0])

    def test_uniform_mix_pmf_hand_value(self):
        pmf = uniform_mix_pmf(np.log([3.0, 1.0]), 0.5, (1, 2))
        np.testing.assert_allclose(pmf, [0.625, 0.375])

    def test_emitted_pmfs_always_valid(self):
        # 1e4 random states per pmf constructor: entries >= 0, sum == 1.
        rng = np.random.default_rng(23)
        for _ in range(10_000):
            k = int(rng.integers(2, 8))
            adj = rng.random((k, k)) < rng.uniform(0.1, 0.9)
            np.fill_diagonal(adj, True)
            g = NominalGraph(adj)
            p = EdgeProbabilityTable.uniform(g, 0.05, 1.0, rng)
            w = WeightVector(rng.normal(scale=5.0, size=k))
            eta = float(rng.uniform(0, 1))
            dom = greedy_dominating_set(g)
            for probs in (exp3ip_pmf(w, eta, g, p, dom).probs, uniform_mix_pmf(w.log_weights, eta, dom.members)):
                assert (probs >= 0).all()
                assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_weight_scaling_leaves_pmf_bits_unchanged(self):
        # Log shifts on a dyadic grid are float-exact, so the canonical
        # max-normalized form must make the emitted pmf bit-identical.
        rng = np.random.default_rng(29)
        g = NominalGraph.complete(4)
        p = constant_table(g, 0.4)
        dom = greedy_dominating_set(g)
        grid = 2.0**-20
        for _ in range(200):
            lw = rng.integers(-10 * 2**20, 0, size=4) * grid
            shift = float(rng.integers(0, 500 * 2**20)) * grid
            a = exp3ip_pmf(WeightVector(lw), 0.3, g, p, dom)
            b = exp3ip_pmf(WeightVector(lw + shift), 0.3, g, p, dom)
            np.testing.assert_array_equal(a.probs, b.probs)

    def test_linear_weight_scaling_is_invariant_to_float_precision(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            w = rng.uniform(0.1, 5.0, size=5)
            scale = float(rng.uniform(1e-6, 1e6))
            a = uniform_mix_pmf(WeightVector(np.log(w)).log_weights, 0.2, (1, 2, 3, 4, 5))
            b = uniform_mix_pmf(WeightVector(np.log(scale * w)).log_weights, 0.2, (1, 2, 3, 4, 5))
            np.testing.assert_allclose(a, b, rtol=1e-12)

    @pytest.mark.parametrize("algorithm", ["exp3-up", "exp3-gr"])
    def test_uniform_exploration_split_is_eta_over_the_set_size(self, algorithm):
        # On |D| = 5 at eta = 0.1, eta / |D| is 0.02 but eta * (1 / |D|) is 0.020000000000000004.
        g = NominalGraph.bandit(5)
        learner = make_learner(LearnerConfig(algorithm, FixedEta(0.1), min_observations=1), g, seed=3)
        run_episode(learner, StochasticGapAdversary(gap=0.2), g, constant_table(g, 0.5), 20, seed=3)
        expected = (1.0 - 0.1) * _softmax(learner._log_weights)
        learner.select(21, g)
        assert learner.last_pmf is not None  # a pmf round, not a forced one
        expected += 0.1 / 5  # every expert of the bandit graph is in D
        assert learner._mixed.tobytes() == expected.tobytes()


class TestObservationProb:
    def test_bandit_with_certain_self_loops(self):
        g = NominalGraph.bandit(3)
        pmf = Pmf(np.array([0.2, 0.3, 0.5]))
        p = constant_table(g, 1.0)
        for i in range(1, 4):
            assert observation_probs(pmf, g, p)[i - 1] == pmf.probs[i - 1]

    def test_hand_sum(self):
        g = NominalGraph.complete(2)
        pmf = Pmf(np.array([0.75, 0.25]))
        assert observation_probs(pmf, g, constant_table(g, 0.5))[0] == pytest.approx(0.5)

    def test_certain_complete_graph_always_observes(self):
        g = NominalGraph.complete(4)
        pmf = Pmf(np.array([0.1, 0.2, 0.3, 0.4]))
        q = observation_probs(pmf, g, constant_table(g, 1.0))
        np.testing.assert_allclose(q, 1.0)


def forced_choices(algorithm, k, m, rounds):
    """The first ``rounds`` choices of a learner with floor ``m`` on the
    complete K-graph, each round fed back with nothing observed, and the
    learner after them."""
    g = NominalGraph.complete(k)
    learner = make_learner(LearnerConfig(algorithm, FixedEta(0.1), min_observations=m), g)
    picks = []
    for t in range(1, rounds + 1):
        picks.append(learner.select(t, g))
        learner.update(FeedbackEvent(t, picks[-1], (), 0.5))
    return picks, learner


class TestForcedExplorationOrder:
    @pytest.mark.parametrize("algorithm", ["exp3-up", "exp3-gr"])
    def test_examples(self, algorithm):
        picks, learner = forced_choices(algorithm, 4, 2, 5)
        assert picks == [1, 2, 3, 4, 1]
        assert learner.last_pmf is None

    @pytest.mark.parametrize("algorithm", ["exp3-up", "exp3-gr"])
    def test_each_expert_exactly_m_times(self, algorithm):
        k, m = 5, 7
        picks, _ = forced_choices(algorithm, k, m, k * m)
        assert all(picks.count(i) == m for i in range(1, k + 1))

    @pytest.mark.parametrize("algorithm", ["exp3-up", "exp3-gr"])
    def test_no_forced_round_after_the_phase(self, algorithm):
        k, m = 4, 2
        _, learner = forced_choices(algorithm, k, m, k * m)
        assert not learner._exploring()
        learner.select(k * m + 1)
        assert learner.last_pmf is not None  # drawn from the selection distribution


class TestProbabilityEstimation:
    def test_single_sample(self):
        g = NominalGraph.complete(2)
        state = ProbabilityEstimatorState(g)
        state.observe_row(1, np.array([True, True]))
        assert state.counts[0, 0] == 1
        assert state.estimates[0, 1] == 1.0

    def test_sample_mean(self):
        g = NominalGraph.bandit(1)
        state = ProbabilityEstimatorState(g)
        for x in (1, 0, 1, 1):
            state.observe_row(1, np.array([bool(x)]))
        assert state.estimates[0, 0] == pytest.approx(0.75)

    def test_monte_carlo_convergence(self):
        # 1e4 i.i.d. Bernoulli(0.3) samples: the estimate lands in [0.28, 0.32]
        # (a > 4-sigma band).
        g = NominalGraph.bandit(1)
        state = ProbabilityEstimatorState(g)
        rng = np.random.default_rng(37)
        for _ in range(10_000):
            state.observe_row(1, np.array([rng.random() < 0.3]))
        assert 0.28 <= state.estimates[0, 0] <= 0.32

    def test_non_edge_activation_rejected(self):
        g = NominalGraph.bandit(2)
        state = ProbabilityEstimatorState(g)
        with pytest.raises(ContractError):
            state.observe_row(1, np.array([True, True]))


class TestEstimatedObservationProb:
    @staticmethod
    def _state_with(graph, counts, phat):
        state = ProbabilityEstimatorState(graph)
        state.counts = counts.astype(np.int64)
        state.sums = np.round(phat * counts).astype(np.int64)
        return state

    def test_hand_value(self):
        g = NominalGraph.complete(2)
        state = ProbabilityEstimatorState(g)
        state.counts = np.full((2, 2), 25, dtype=np.int64)
        state.sums = np.array([[10, 0], [15, 0]], dtype=np.int64)  # into expert 1: 0.4 and 0.6
        pmf = Pmf(np.array([0.5, 0.5]))
        assert estimated_observation_prob(pmf, g, state, 1.0, 25, 1) == pytest.approx(0.7)

    def test_bandit_inflation(self):
        g = NominalGraph.bandit(3)
        state = ProbabilityEstimatorState(g)
        state.counts = np.eye(3, dtype=np.int64) * 25
        state.sums = np.eye(3, dtype=np.int64) * 25  # estimates exactly 1
        pmf = Pmf(np.array([0.2, 0.3, 0.5]))
        for i in range(1, 4):
            expected = 1.2 * pmf.probs[i - 1]  # xi/sqrt(M) = 0.2
            assert estimated_observation_prob(pmf, g, state, 1.0, 25, i) == pytest.approx(expected)

    def test_all_zero_estimates_still_positive(self):
        g = NominalGraph.complete(2)
        state = ProbabilityEstimatorState(g)
        state.counts = np.full((2, 2), 25, dtype=np.int64)
        pmf = Pmf(np.array([0.5, 0.5]))
        value = estimated_observation_prob(pmf, g, state, 1.0, 25, 1)
        assert value == pytest.approx(0.2)  # inflation term alone
        assert value > 0

    def test_phase_order_error_before_enough_samples(self):
        g = NominalGraph.complete(2)
        state = ProbabilityEstimatorState(g)
        state.observe_row(1, np.array([True, False]))
        with pytest.raises(PhaseOrderError):
            estimated_observation_prob(Pmf(np.array([0.5, 0.5])), g, state, 1.0, 25, 1)

    def test_inputs_from_another_graph_rejected(self):
        # Every edge of complete K=3 holds M=4 samples, one of them a hit: 0.25 + 1/sqrt(4) per in-edge.
        g = NominalGraph.complete(3)
        state = self._state_with(g, np.full((3, 3), 4), np.full((3, 3), 0.25))
        pmf = Pmf(np.full(3, 1 / 3))
        assert estimated_observation_prob(pmf, g, state, 1.0, 4, 1) == pytest.approx(0.75)
        with pytest.raises(ValueError, match="the ProbabilityEstimatorState belongs to a different graph"):
            estimated_observation_prob(pmf, NominalGraph.bandit(3), state, 1.0, 4, 1)
        for n in (2, 4):
            with pytest.raises(ValueError, match=f"the pmf has {n} entries, the graph 3 experts"):
                estimated_observation_prob(Pmf(np.full(n, 1 / n)), g, state, 1.0, 4, 1)

    def test_can_exceed_one_and_is_never_clamped(self):
        g = NominalGraph.bandit(1)
        state = ProbabilityEstimatorState(g)
        state.counts = np.array([[4]], dtype=np.int64)
        state.sums = np.array([[4]], dtype=np.int64)
        value = estimated_observation_prob(Pmf(np.array([1.0])), g, state, 3.0, 4, 1)
        assert value == pytest.approx(2.5)

    def test_estimator_dominates_truth_under_small_errors(self):
        # Whenever every in-edge estimate is within xi/sqrt(M) of the truth,
        # the inflated estimate must be at least the exact probability.
        rng = np.random.default_rng(41)
        hits = 0
        for _ in range(500):
            k = int(rng.integers(2, 7))
            adj = rng.random((k, k)) < 0.6
            np.fill_diagonal(adj, True)
            g = NominalGraph(adj)
            p = EdgeProbabilityTable.uniform(g, 0.1, 0.95, rng)
            m = int(rng.integers(5, 60))
            xi = float(rng.uniform(1.0, 2.5))
            state = ProbabilityEstimatorState(g)
            state.counts = np.where(g.adjacency, m, 0).astype(np.int64)
            state.sums = np.round(
                np.clip(p.probs + rng.uniform(-1, 1, size=(k, k)) * xi / math.sqrt(m), 0, 1) * m
            ).astype(np.int64) * g.adjacency
            pmf = Pmf(rng.dirichlet(np.ones(k)))
            margin = xi / math.sqrt(m)
            for i in range(1, k + 1):
                mask = g.adjacency[:, i - 1]
                errors = np.abs(state.estimates[:, i - 1] - p.probs[:, i - 1])[mask]
                if (errors <= margin).all():
                    hits += 1
                    q_hat = estimated_observation_prob(pmf, g, state, xi, m, i)
                    assert q_hat >= observation_probs(pmf, g, p)[i - 1]
        assert hits > 100  # the premise actually fired


class TestGeometricResample:
    @staticmethod
    def _filled_buffer(graph, capacity, value):
        buffers = ResampleBuffer(graph, capacity)
        row = np.asarray(value, dtype=bool)
        for _ in range(capacity):
            for chosen in range(1, graph.num_experts + 1):
                buffers.observe_row(chosen, row & graph.adjacency[chosen - 1])
        return buffers

    def test_all_ones_gives_one_trial(self):
        g = NominalGraph.complete(3)
        buffers = self._filled_buffer(g, 4, np.ones(3))
        rng = np.random.default_rng(0)
        pmf = Pmf(np.array([0.2, 0.5, 0.3]))
        for i in range(1, 4):
            assert geometric_resample(i, pmf, g, buffers, 4, rng) == 1

    def test_all_zeros_gives_cap(self):
        g = NominalGraph.complete(3)
        buffers = self._filled_buffer(g, 4, np.zeros(3))
        rng = np.random.default_rng(0)
        pmf = Pmf(np.array([0.2, 0.5, 0.3]))
        for i in range(1, 4):
            assert geometric_resample(i, pmf, g, buffers, 4, rng) == 4

    def test_inputs_from_another_graph_rejected(self):
        g = NominalGraph.complete(3)
        buffers = self._filled_buffer(g, 4, np.ones(3))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="the ResampleBuffer belongs to a different graph"):
            geometric_resample(1, Pmf(np.full(3, 1 / 3)), NominalGraph.bandit(3), buffers, 4, rng)
        for n in (2, 4, 6):
            with pytest.raises(ValueError, match=f"the pmf has {n} entries, the graph 3 experts"):
                geometric_resample(1, Pmf(np.full(n, 1 / n)), g, buffers, 4, rng)

    def test_underfull_buffer_rejected(self):
        g = NominalGraph.bandit(2)
        buffers = ResampleBuffer(g, 5)
        buffers.observe_row(1, np.array([True, False]))
        with pytest.raises(PhaseOrderError):
            geometric_resample(1, Pmf(np.array([0.5, 0.5])), g, buffers, 5, np.random.default_rng(0))

    def test_half_full_fixed_buffer_mean(self):
        # Buffer [1, 0] on a single self-loop: the fresh permutation makes
        # Q = 1 or 2 with equal probability, so the mean is 1.5.
        g = NominalGraph.bandit(1)
        buffers = ResampleBuffer(g, 2)
        buffers.observe_row(1, np.array([True]))
        buffers.observe_row(1, np.array([False]))
        rng = np.random.default_rng(43)
        pmf = Pmf(np.array([1.0]))
        draws = np.array([geometric_resample(1, pmf, g, buffers, 2, rng) for _ in range(20_000)])
        assert abs(draws.mean() - 1.5) <= 4 * 0.5 / math.sqrt(draws.size)

    def test_in_neighbor_slot_mapping(self):
        # Complete K=2: edge (1,1) always fires in the buffer, edge (2,1)
        # never does, so Q for expert 1 is geometric(pi_1) capped at M.
        g = NominalGraph.complete(2)
        buffers = ResampleBuffer(g, 5)
        for _ in range(5):
            buffers.observe_row(1, np.array([True, True]))
            buffers.observe_row(2, np.array([False, False]))
        pmf = Pmf(np.array([0.3, 0.7]))
        rng = np.random.default_rng(47)
        draws = np.array([geometric_resample(1, pmf, g, buffers, 5, rng) for _ in range(20_000)])
        expected = (1 - 0.7**5) / 0.3
        sigma = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - expected) <= 4 * sigma

    def test_expected_trials_hand_value(self):
        # q=0.5, M=2: E[Q] = 0.5 + 0.5 + 0.5 = 1.5, confirmed by a 1e6-draw
        # Monte Carlo through the shared trial kernel.
        rng = np.random.default_rng(53)
        trial_check, _ = resampling_checks(0.5, 2, loss=1.0, draws=1_000_000, rng=rng)
        assert trial_check.expected == pytest.approx(1.5)
        assert trial_check.passed(4.0), trial_check.describe()

    def test_resampled_loss_estimate(self):
        # The learners estimate only the observed losses: trials * loss each.
        estimates = _resampled_estimates(np.array([0.5, 1.0]), np.array([3, 1]), 3)
        np.testing.assert_allclose(estimates, [1.5, 1.0])
        with pytest.raises(ContractError):
            _resampled_estimates(np.array([0.5]), np.array([0]), 5)
        with pytest.raises(ContractError):
            _resampled_estimates(np.array([0.5]), np.array([6]), 5)

    def test_resampled_mean_matches_capped_hit_rate(self):
        # One module-scale check of E[l_tilde] = (1 - (1-q)^M) * l.
        rng = np.random.default_rng(59)
        _, loss_check = resampling_checks(0.5, 25, loss=0.8, draws=400_000, rng=rng)
        assert loss_check.passed(4.0), loss_check.describe()


def drive(learner, graph, probs, losses, rounds, seed=0):
    """Manually run select/update against a fixed per-round loss vector."""
    fb_rng = np.random.default_rng(seed)
    events = []
    for t in range(1, rounds + 1):
        pick = learner.select(t, graph)
        event = realize_feedback(graph, probs, pick, losses, fb_rng, t=t)
        learner.update(event)
        events.append(event)
    return events


class TestLearnerConfig:
    def test_confidence_width_floor(self):
        with pytest.raises(ConfigError, match="confidence_width"):
            LearnerConfig("exp3-up", FixedEta(0.3), confidence_width=0.5)

    def test_sample_floor_positive(self):
        with pytest.raises(ConfigError, match="min_observations"):
            LearnerConfig("exp3-gr", FixedEta(0.3), min_observations=0)

    @pytest.mark.parametrize("floor", [2.5, 3.0, True, np.bool_(True), "3"])
    def test_sample_floor_must_be_an_integer(self, floor):
        with pytest.raises(ConfigError, match="min_observations must be an integer >= 1"):
            LearnerConfig("exp3-up", FixedEta(0.3), min_observations=floor)

    @pytest.mark.parametrize("algorithm", ["exp3-up", "exp3-gr"])
    def test_numpy_integer_sample_floor_stored_as_int(self, algorithm):
        config = LearnerConfig(algorithm, FixedEta(0.3), min_observations=np.int64(3))
        assert type(config.min_observations) is int
        g = NominalGraph.complete(3)
        learner = make_learner(config, g, seed=1)
        drive(learner, g, constant_table(g, 0.5), np.full(3, 0.5), 12)
        text = learner.snapshot()
        assert load_snapshot(text, g).snapshot() == text

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            LearnerConfig("exp4", FixedEta(0.3))

    def test_epsilon_range(self):
        with pytest.raises(ConfigError, match="epsilon"):
            LearnerConfig("exp3-gr", FixedEta(0.3), epsilon=1.5)

    @pytest.mark.parametrize("flag", [True, np.bool_(True)])
    def test_confidence_width_must_not_be_a_bool(self, flag):
        with pytest.raises(ConfigError, match="confidence_width must be a number"):
            LearnerConfig("exp3-up", confidence_width=flag)

    @pytest.mark.parametrize("flag", [True, np.bool_(True)])
    def test_epsilon_must_not_be_a_bool(self, flag):
        with pytest.raises(ConfigError, match="epsilon must be a number"):
            LearnerConfig("exp3-gr", DoublingSchedule(), epsilon=flag)

    def test_resampling_doubling_needs_epsilon_in_the_config(self):
        with pytest.raises(ConfigError, match=r"^exp3-gr with the doubling schedule needs epsilon"):
            LearnerConfig("exp3-gr", DoublingSchedule())


class TestSettingsRows:
    """Each algorithm name is a row of settings on one of three classes."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_make_learner_builds_the_registered_class(self, algorithm):
        g = NominalGraph.complete(3)
        config = LearnerConfig(algorithm, FixedEta(0.3))
        learner = make_learner(config, g, probs=constant_table(g, 0.5) if algorithm == "exp3-ip" else None)
        assert type(learner) is _REGISTRY[algorithm]
        assert learner.algorithm == config.algorithm

    @pytest.mark.parametrize("schedule", [InverseSqrtEta(), DoublingSchedule()])
    @pytest.mark.parametrize("algorithm", ["exp3", "exp3-dom"])
    def test_informed_view_built_directly_matches_make_learner(self, algorithm, schedule):
        g = NominalGraph.from_edges(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)])
        config = LearnerConfig(algorithm, schedule)
        texts = []
        for learner in (Exp3IP(config, g, seed=4), make_learner(config, g, seed=4)):
            run_episode(learner, StochasticGapAdversary(gap=0.1), g, constant_table(g, 0.6), 200, seed=9)
            texts.append(learner.snapshot())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize(
        "cls, algorithm",
        [(Exp3UP, name) for name in ALGORITHMS if name != "exp3-up"]
        + [(Exp3GR, name) for name in ALGORITHMS if name != "exp3-gr"]
        + [(Exp3IP, "exp3-up"), (Exp3IP, "exp3-gr")],
    )
    def test_class_rejects_another_familys_config(self, cls, algorithm):
        g = NominalGraph.complete(3)
        with pytest.raises(ConfigError, match=f"config says {algorithm!r} but this learner is {cls.__name__}"):
            cls(LearnerConfig(algorithm, FixedEta(0.3)), g, probs=constant_table(g, 0.5))

    @pytest.mark.parametrize(
        "cls, config, k",
        [(Exp3GR, LearnerConfig("exp3-up", DoublingSchedule()), 3),
         (Exp3GR, LearnerConfig("exp3-up", DoublingSchedule(), epsilon=0.5), 1),
         (Exp3UP, LearnerConfig("exp3-gr", DoublingSchedule(), epsilon=0.5), 3)],
    )
    def test_registry_check_runs_before_the_doubling_checks(self, cls, config, k):
        with pytest.raises(ConfigError, match=f"config says {config.algorithm!r} but this learner is {cls.__name__}"):
            cls(config, NominalGraph.complete(k))


class TestLearnerProtocol:
    def test_double_select_rejected(self):
        g = NominalGraph.complete(2)
        learner = make_learner(LearnerConfig("exp3-ip", FixedEta(0.3)), g, probs=constant_table(g, 0.5))
        learner.select(1, g)
        with pytest.raises(ProtocolError):
            learner.select(2, g)

    def test_update_before_select_rejected(self):
        g = NominalGraph.complete(2)
        learner = make_learner(LearnerConfig("exp3", FixedEta(0.3)), g)
        from graphbandit.environment import FeedbackEvent

        with pytest.raises(ProtocolError):
            learner.update(FeedbackEvent(1, 1, ((1, 0.5),), 0.5))

    def test_mismatched_feedback_rejected(self):
        from graphbandit.environment import FeedbackEvent

        g = NominalGraph.complete(2)
        learner = make_learner(LearnerConfig("exp3-ip", FixedEta(0.3)), g, probs=constant_table(g, 0.5))
        pick = learner.select(1, g)
        other = 1 if pick == 2 else 2
        with pytest.raises(ProtocolError):
            learner.update(FeedbackEvent(1, other, ((other, 0.5),), 0.5))

    def test_wrong_round_number_rejected(self):
        g = NominalGraph.complete(2)
        learner = make_learner(LearnerConfig("exp3", FixedEta(0.3)), g)
        with pytest.raises(ProtocolError):
            learner.select(2, g)

    def test_probability_table_gating(self):
        g = NominalGraph.complete(2)
        table = constant_table(g, 0.5)
        with pytest.raises(ConfigError):
            make_learner(LearnerConfig("exp3-ip", FixedEta(0.3)), g)  # missing table
        for algorithm in ("exp3", "exp3-dom", "exp3-up", "exp3-gr"):
            with pytest.raises(ConfigError):
                make_learner(LearnerConfig(algorithm, FixedEta(0.3)), g, probs=table)

    @pytest.mark.parametrize("algorithm", ["exp3-ip", "exp3-dom", "exp3"])
    def test_activation_on_a_non_edge_rejected(self, algorithm):
        # The 3-cycle with self-loops: 1->2, 2->3, 3->1.
        g = NominalGraph.from_edges(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (3, 1)])
        probs = constant_table(g, 0.5) if algorithm == "exp3-ip" else None
        learner = make_learner(LearnerConfig(algorithm, FixedEta(0.3)), g, probs=probs)
        pick = learner.select(1, g)
        non_edge = (pick + 1) % 3 + 1
        with pytest.raises(ContractError, match="activation reported for a non-edge"):
            learner.update(FeedbackEvent(1, pick, ((non_edge, 0.5),), 0.5))
        assert learner.weights.log_weights.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_static_graph_enforced(self, algorithm):
        g = NominalGraph.complete(3)
        probs = constant_table(g, 0.5) if algorithm == "exp3-ip" else None

        def fresh():
            return make_learner(LearnerConfig(algorithm, FixedEta(0.3), min_observations=2), g, probs=probs)

        for other in (NominalGraph.bandit(3), NominalGraph.complete(4)):
            with pytest.raises(ProtocolError, match="static"):
                fresh().select(1, other)
            # The forced-exploration block of run_episode makes the same check.
            with pytest.raises(ProtocolError, match="static"):
                run_episode(fresh(), StochasticGapAdversary(gap=0.2), other, constant_table(other, 0.5), 10, seed=3)
        assert fresh().select(1) in (1, 2, 3)
        assert fresh().select(1, NominalGraph.complete(3)) in (1, 2, 3)  # an equal graph is the same graph


class TestLearnerBehavior:
    def test_single_expert_always_selected(self):
        g = NominalGraph.bandit(1)
        learner = make_learner(LearnerConfig("exp3-ip", FixedEta(0.3)), g, probs=constant_table(g, 1.0))
        events = drive(learner, g, constant_table(g, 1.0), np.array([0.4]), 20)
        assert all(ev.chosen == 1 for ev in events)

    def test_estimation_learner_explores_round_robin(self):
        g = NominalGraph.complete(4)
        learner = make_learner(LearnerConfig("exp3-up", FixedEta(0.3), min_observations=3), g)
        events = drive(learner, g, constant_table(g, 0.5), np.full(4, 0.5), 12)
        assert [ev.chosen for ev in events] == [1, 2, 3, 4] * 3
        assert events[2].chosen == 3  # round t=3 picks expert 3

    def test_exploration_counts_exact_for_both_uninformative_learners(self):
        for algorithm in ("exp3-up", "exp3-gr"):
            g = NominalGraph.complete(6)
            learner = make_learner(LearnerConfig(algorithm, FixedEta(0.3), min_observations=10), g)
            events = drive(learner, g, constant_table(g, 0.5), np.full(6, 0.5), 60)
            picks = np.array([ev.chosen for ev in events])
            assert all((picks == i).sum() == 10 for i in range(1, 7))

    def test_resampling_learner_post_exploration_pmf(self):
        # K=3 complete, M=2: at t = KM+1 = 7 the weights are untouched, so the
        # selection pmf is (1-eta)/3 + eta on the dominating vertex.
        g = NominalGraph.complete(3)
        learner = make_learner(
            LearnerConfig("exp3-gr", InverseSqrtEta(), min_observations=2), g
        )
        drive(learner, g, constant_table(g, 0.5), np.full(3, 0.5), 6)
        assert learner.last_pmf is None  # exploration rounds never build a pmf
        learner.select(7, g)
        eta = 1 / math.sqrt(7)
        expected = np.full(3, (1 - eta) / 3)
        expected[0] += eta
        np.testing.assert_allclose(learner.last_pmf.probs, expected, rtol=1e-12)

    def test_post_exploration_selection_distribution(self):
        # Chi-square goodness of fit of 1e5 draws against the hand pmf
        # (99.9% critical value for 2 degrees of freedom).
        g = NominalGraph.complete(3)
        learner = make_learner(LearnerConfig("exp3-gr", InverseSqrtEta(), min_observations=2), g)
        drive(learner, g, constant_table(g, 0.5), np.full(3, 0.5), 6)
        learner.select(7, g)
        pmf = learner.last_pmf
        rng = np.random.default_rng(61)
        n = 100_000
        counts = np.bincount([sample_index(pmf, rng) for _ in range(n)], minlength=4)[1:]
        expected = pmf.probs * n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < CHI2_99_9_DOF2

    def test_phase_order_errors_before_exploration_completes(self):
        g = NominalGraph.complete(3)
        up = make_learner(LearnerConfig("exp3-up", FixedEta(0.3), min_observations=4), g)
        drive(up, g, constant_table(g, 0.5), np.full(3, 0.5), 5)
        pmf = Pmf(np.full(3, 1 / 3))
        with pytest.raises(PhaseOrderError):
            estimated_observation_prob(pmf, g, up.estimator_state, 1.0, 4, 1)
        gr = make_learner(LearnerConfig("exp3-gr", FixedEta(0.3), min_observations=4), g)
        drive(gr, g, constant_table(g, 0.5), np.full(3, 0.5), 5)
        with pytest.raises(PhaseOrderError):
            geometric_resample(1, pmf, g, gr.buffers, 4, np.random.default_rng(0))


class TestReductionToClassicExp3:
    def test_identical_trajectories_on_certain_bandit_graph(self):
        g = NominalGraph.bandit(4)
        ones = constant_table(g, 1.0)
        adv = StochasticGapAdversary(gap=0.2)
        chosen = {}
        for algorithm in ("exp3", "exp3-dom", "exp3-ip"):
            probs = ones if algorithm == "exp3-ip" else None
            learner = make_learner(LearnerConfig(algorithm, InverseSqrtEta()), g, probs=probs)
            chosen[algorithm] = run_episode(learner, adv, g, ones, 300, seed=17).chosen
        np.testing.assert_array_equal(chosen["exp3"], chosen["exp3-dom"])
        np.testing.assert_array_equal(chosen["exp3"], chosen["exp3-ip"])

    def test_uninformative_mixing_matches_classic_form_on_bandit(self):
        # On the self-loop graph the dominating set is everyone, so the
        # uninformative pmf reduces to (1-eta) w/W + eta/K.
        w = WeightVector(np.array([0.3, -0.9, 0.0]))
        dom = greedy_dominating_set(NominalGraph.bandit(3))
        pmf = uniform_mix_pmf(w.log_weights, 0.25, dom.members)
        linear = np.exp(w.log_weights)
        np.testing.assert_allclose(pmf, 0.75 * linear / linear.sum() + 0.25 / 3, rtol=1e-15)


class TestDoublingIntegration:
    def test_informed_restart_resets_weights(self):
        g = NominalGraph.complete(3)
        learner = make_learner(LearnerConfig("exp3-ip", DoublingSchedule()), g, probs=constant_table(g, 0.5))
        drive(learner, g, constant_table(g, 0.5), np.array([0.9, 0.1, 0.5]), 1)
        # first round's load 1 + K/(2*q-ish) always overflows 2^0 -> restart
        np.testing.assert_array_equal(learner.weights.log_weights, np.zeros(3))
        assert learner._doubling.epoch >= 1

    def test_estimation_learner_epoch_advance(self):
        g = NominalGraph.complete(2)
        learner = make_learner(LearnerConfig("exp3-up", DoublingSchedule()), g)
        drive(learner, g, constant_table(g, 0.9), np.array([0.2, 0.8]), 40)
        # by round 40 the epoch must have advanced past the start epoch of 1
        assert learner._epoch >= 4
        from graphbandit.schedulers import up_doubling_params

        eta, m, xi = up_doubling_params(learner._epoch, 2)
        assert learner.min_observations == m
        assert learner.confidence_width == xi

    def test_resampling_learner_epoch_advance_and_topup(self):
        # With K=2 the sample floor grows from 2 to 170 across epochs; the
        # learner alternates top-up exploration with pmf-driven rounds and by
        # t=400 has caught up with the epoch-8 floor.
        g = NominalGraph.complete(2)
        cfg = LearnerConfig("exp3-gr", DoublingSchedule(), epsilon=0.5)
        learner = make_learner(cfg, g, seed=1)
        drive(learner, g, constant_table(g, 0.9), np.array([0.2, 0.8]), 400, seed=1)
        assert learner._epoch == 8
        assert learner.min_observations == 170
        assert learner.buffers.capacity == learner.min_observations
        assert not learner._exploring()
        assert learner.buffers._short == 0  # every ring holds the epoch's M samples
        assert (learner.buffers._written >= learner.buffers.capacity).all()
        assert learner.last_pmf is not None

    def test_resampling_doubling_requires_epsilon(self):
        g = NominalGraph.complete(2)
        with pytest.raises(ConfigError, match="epsilon"):
            make_learner(LearnerConfig("exp3-gr", DoublingSchedule()), g)

    def test_topup_exploration_rounds_exactly_k_times_deficit(self):
        # Raising the sample floor from 2 to 5 on K=2 forces exactly 6 more
        # deterministic exploration rounds, round-robin.
        g = NominalGraph.complete(2)
        learner = make_learner(LearnerConfig("exp3-gr", FixedEta(0.3), min_observations=2), g)
        table = constant_table(g, 0.9)
        drive(learner, g, table, np.array([0.2, 0.8]), 10)
        # A restart that raises the floor: enter it, and reset the weights as _advance_epochs does.
        learner.config = dataclasses.replace(learner.config, min_observations=5)
        learner._enter_epoch(None)
        learner._log_weights = np.zeros(2)
        assert learner.buffers.capacity == 5
        np.testing.assert_array_equal(learner.weights.log_weights, np.zeros(2))
        events = drive_from(learner, g, table, np.array([0.2, 0.8]), start=11, rounds=6)
        assert [ev.chosen for ev in events] == [1, 2, 1, 2, 1, 2]
        # exploration rounds never touch the weights
        np.testing.assert_array_equal(learner.weights.log_weights, np.zeros(2))
        assert not learner._exploring()
        drive_from(learner, g, table, np.array([0.2, 0.8]), start=17, rounds=1)
        assert learner.last_pmf is not None  # round 17 was pmf-driven again

    def test_no_topup_when_floor_unchanged(self):
        g = NominalGraph.complete(2)
        learner = make_learner(LearnerConfig("exp3-up", FixedEta(0.3), min_observations=2), g)
        drive(learner, g, constant_table(g, 0.9), np.array([0.2, 0.8]), 6)
        learner._enter_epoch(None)
        assert not learner._exploring()


def drive_from(learner, graph, probs, losses, start, rounds, seed=99):
    fb_rng = np.random.default_rng(seed)
    events = []
    for t in range(start, start + rounds):
        pick = learner.select(t, graph)
        event = realize_feedback(graph, probs, pick, losses, fb_rng, t=t)
        learner.update(event)
        events.append(event)
    return events


class TestSnapshots:
    @pytest.mark.parametrize("algorithm", ["exp3", "exp3-dom", "exp3-ip", "exp3-up", "exp3-gr"])
    def test_tail_replay_is_identical(self, algorithm):
        g = NominalGraph.complete(4)
        table = constant_table(g, 0.35)
        losses = np.array([0.9, 0.4, 0.6, 0.1])
        probs = table if algorithm == "exp3-ip" else None
        cfg = LearnerConfig(algorithm, InverseSqrtEta(), min_observations=3)
        learner = make_learner(cfg, g, probs=probs, seed=5)

        fb_rng = np.random.default_rng(101)
        for t in range(1, 61):
            pick = learner.select(t, g)
            learner.update(realize_feedback(g, table, pick, losses, fb_rng, t=t))
        snap = learner.snapshot()
        fb_state = fb_rng.bit_generator.state

        tail = []
        for t in range(61, 121):
            pick = learner.select(t, g)
            learner.update(realize_feedback(g, table, pick, losses, fb_rng, t=t))
            tail.append(pick)

        restored = load_snapshot(snap, g, probs=probs)
        fb_rng2 = np.random.default_rng()
        fb_rng2.bit_generator.state = fb_state
        replay = []
        for t in range(61, 121):
            pick = restored.select(t, g)
            restored.update(realize_feedback(g, table, pick, losses, fb_rng2, t=t))
            replay.append(pick)
        assert replay == tail
        np.testing.assert_array_equal(restored.weights.log_weights, learner.weights.log_weights)

    def test_snapshot_mid_round_rejected(self):
        g = NominalGraph.complete(2)
        learner = make_learner(LearnerConfig("exp3", FixedEta(0.2)), g)
        learner.select(1, g)
        with pytest.raises(ProtocolError):
            learner.snapshot()

    def test_fresh_learner_required_semantics(self):
        # Restored learners resume from their recorded round counter.
        g = NominalGraph.complete(2)
        learner = make_learner(LearnerConfig("exp3", FixedEta(0.2)), g)
        drive(learner, g, constant_table(g, 1.0), np.array([0.3, 0.7]), 5)
        restored = load_snapshot(learner.snapshot(), g)
        assert restored.rounds_played == 5
        with pytest.raises(ProtocolError):
            restored.select(1, g)


def snapshot_payload(algorithm, k=4, rounds=40):
    """A learner's snapshot after ``rounds`` rounds, as a dict; an algorithm
    name ending in ``+doubling`` runs the doubling schedule."""
    algorithm, _, doubling = algorithm.partition("+")
    g = NominalGraph.complete(k)
    probs = constant_table(g, 0.5)
    if doubling:
        config = LearnerConfig(algorithm, DoublingSchedule(), min_observations=3, epsilon=0.5)
    else:
        config = LearnerConfig(algorithm, InverseSqrtEta(), min_observations=3)
    learner = make_learner(config, g, probs=probs if algorithm == "exp3-ip" else None, seed=5)
    drive(learner, g, probs, np.linspace(0.1, 0.9, k), rounds)
    return json.loads(learner.snapshot())


def set_first_sample(extra, value):
    extra["buffers"]["1,1"][0] = value


def set_sums(extra, value):
    extra["sums"][0][0] = value


def set_doubling(extra, **fields):
    extra["doubling"].update(fields)


def load_on_k4(payload):
    """load_snapshot on the complete K=4 graph of ``snapshot_payload``."""
    g = NominalGraph.complete(4)
    probs = constant_table(g, 0.5) if payload["algorithm"] == "exp3-ip" else None
    return load_snapshot(json.dumps(payload), g, probs=probs)


class TestSnapshotValidation:
    """load_snapshot rejects a snapshot that does not fit the graph, naming the field."""

    @pytest.mark.parametrize("algorithm", ["exp3", "exp3-ip", "exp3-up", "exp3-gr"])
    def test_snapshot_from_a_smaller_graph_rejected(self, algorithm):
        text = json.dumps(snapshot_payload(algorithm))
        g = NominalGraph.complete(5)
        with pytest.raises(ValueError, match="'log_weights' has shape \\(4,\\), expected \\(5,\\)"):
            load_snapshot(text, g, probs=constant_table(g, 0.5) if algorithm == "exp3-ip" else None)

    @pytest.mark.parametrize(
        "algorithm, tamper, field",
        [
            ("exp3-up", lambda extra: extra["explore_counts"].pop(), "explore_counts"),
            ("exp3-gr", lambda extra: extra["explore_counts"].append(0), "explore_counts"),
            ("exp3-up", lambda extra: extra["counts"].pop(), "counts"),
            ("exp3-up", lambda extra: extra["sums"][1].append(0), "sums"),
            ("exp3-up", lambda extra: set_sums(extra, 999), "sums"),
            ("exp3-up", lambda extra: set_sums(extra, -1), "sums"),
            ("exp3-gr", lambda extra: set_first_sample(extra, 2), "buffers"),
            ("exp3-gr", lambda extra: set_first_sample(extra, -1), "buffers"),
            ("exp3-up", lambda extra: extra.update(explore_cursor=9), "explore_cursor"),
            ("exp3-gr", lambda extra: extra.update(explore_cursor=4), "explore_cursor"),
            ("exp3-up", lambda extra: extra.update(explore_cursor=-1), "explore_cursor"),
            ("exp3-gr", lambda extra: extra.update(explore_cursor=-1), "explore_cursor"),
            ("exp3-up", lambda extra: extra.update(min_observations=0), "min_observations"),
            ("exp3-gr", lambda extra: extra.update(min_observations=0), "min_observations"),
            ("exp3-up", lambda extra: extra["explore_counts"].__setitem__(0, -14), "explore_counts"),
            ("exp3-gr", lambda extra: extra["explore_counts"].__setitem__(0, -14), "explore_counts"),
            ("exp3-up+doubling", lambda extra: extra.update(epoch=-3), "epoch"),
            ("exp3-gr+doubling", lambda extra: extra.update(epoch=-3), "epoch"),
            ("exp3-up+doubling", lambda extra: extra.update(epoch=1), "epoch"),  # up_start_epoch(4) is 2
            ("exp3-gr+doubling", lambda extra: extra.update(epoch=2.5), "epoch"),
            ("exp3-up+doubling", lambda extra: extra.update(epoch=None, eta_value=None), "epoch"),
            ("exp3-gr", lambda extra: extra.update(epoch=3, eta_value=0.5), "epoch"),
            ("exp3-up+doubling", lambda extra: extra.update(eta_value=2.0), "eta_value"),
            ("exp3-gr+doubling", lambda extra: extra.update(eta_value=2.0), "eta_value"),
            ("exp3-up+doubling", lambda extra: extra.update(eta_value=math.nan), "eta_value"),
            ("exp3-gr+doubling", lambda extra: extra.update(eta_value=math.nan), "eta_value"),
            ("exp3-gr+doubling", lambda extra: extra.update(eta_value=-0.1), "eta_value"),
            ("exp3-gr+doubling", lambda extra: extra.update(eta_value=None), "eta_value"),
            ("exp3-up", lambda extra: extra.update(eta_value=0.5), "eta_value"),
            ("exp3-gr+doubling", lambda extra: extra.update(eta_value=0.5), "eta_value"),  # in [0, 1], off schedule
            ("exp3-up+doubling", lambda extra: extra.update(epoch=5000), "epoch"),  # 2.0 ** 5001 overflows
            ("exp3-gr", lambda extra: extra.update(capacity=2), "capacity"),  # every pmf round would raise
            ("exp3-gr", lambda extra: extra.update(capacity=9), "capacity"),
            ("exp3-gr+doubling", lambda extra: extra.update(capacity=extra["min_observations"] + 1), "capacity"),
            ("exp3-ip", lambda extra: extra.update(doubling={"epoch": 1, "accumulated": 2.0}), "doubling"),
            ("exp3", lambda extra: extra.update(doubling={"epoch": 0, "accumulated": 0.0}), "doubling"),
            ("exp3-ip+doubling", lambda extra: extra.update(doubling=None), "doubling"),
            ("exp3-dom+doubling", lambda extra: extra.update(doubling=None), "doubling"),
            ("exp3-ip+doubling", lambda extra: set_doubling(extra, epoch=-3), "epoch"),
            ("exp3+doubling", lambda extra: set_doubling(extra, epoch=-1), "epoch"),
            ("exp3-dom+doubling", lambda extra: set_doubling(extra, epoch=1.7), "epoch"),
            ("exp3-ip+doubling", lambda extra: set_doubling(extra, epoch=5000), "epoch"),  # 2.0 ** 5001 overflows
            ("exp3-ip+doubling", lambda extra: set_doubling(extra, accumulated=math.nan), "accumulated"),
            ("exp3+doubling", lambda extra: set_doubling(extra, accumulated=-0.5), "accumulated"),
            ("exp3-dom+doubling", lambda extra: set_doubling(extra, accumulated=math.inf), "accumulated"),
            ("exp3-ip+doubling", lambda extra: set_doubling(extra, accumulated=2.0 ** extra["doubling"]["epoch"] + 1),
             "accumulated"),
            ("exp3-up", lambda extra: extra.update(min_observations=2), "min_observations"),  # the config says 3
            ("exp3-gr", lambda extra: extra.update(min_observations=2, capacity=2), "min_observations"),
            ("exp3-up", lambda extra: extra.update(confidence_width=0.5), "confidence_width"),
            ("exp3-up", lambda extra: extra.update(confidence_width=math.nan), "confidence_width"),
            ("exp3-up", lambda extra: extra.update(confidence_width=1e9), "confidence_width"),
            ("exp3-up+doubling", lambda extra: extra.update(confidence_width=1.0), "confidence_width"),
            ("exp3-up", lambda payload: payload.update(round=-5), "round"),
            ("exp3-gr", lambda payload: payload.update(round=2.7), "round"),
            ("exp3-ip", lambda payload: payload.update(round="7"), "round"),
            ("exp3", lambda payload: payload.update(round=True), "round"),
            ("exp3-gr", lambda extra: extra.update(explore_cursor=1.9), "explore_cursor"),
            ("exp3-up", lambda extra: extra["counts"][0].__setitem__(0, extra["counts"][0][0] + 0.5), "counts"),
            ("exp3-up", lambda extra: extra.pop("sums"), "sums"),
            ("exp3-gr", lambda extra: extra.pop("capacity"), "capacity"),
            ("exp3-gr", lambda payload: payload.pop("extra"), "extra"),
            ("exp3-ip+doubling", lambda extra: set_doubling(extra, accumulated="x"), "accumulated"),
            ("exp3-gr+doubling", lambda payload: payload["config"].update(epsilon="x"), "epsilon"),
            ("exp3-gr+doubling", lambda payload: payload["config"].update(epsilon=True), "epsilon"),
            ("exp3-up", lambda payload: payload["config"].update(schedule=5), "schedule"),
            ("exp3", lambda payload: payload.update(rng=5), "rng"),
            ("exp3-ip", lambda payload: payload["rng"].pop("state"), "rng"),
            ("exp3-up", lambda payload: payload["rng"]["state"].update(counter="7"), "rng"),
            ("exp3-gr", lambda payload: payload["rng"]["state"]["counter"]["__array__"].__setitem__(0, -1), "rng"),
            ("exp3-ip", lambda payload: payload["rng"]["state"]["key"]["__array__"].__setitem__(0, 2**64), "rng"),
            ("exp3-gr", lambda extra: extra.update(buffers=[1, 2]), "buffers"),
            ("exp3-gr", lambda extra: extra["buffers"].update({"5,1": [1]}), "buffers"),
            ("exp3-gr", lambda extra: extra["buffers"].update({"1,1": [[1]]}), "buffers"),
            ("exp3-gr", lambda extra: extra["buffers"].update({"1,1": [True]}), "buffers"),
            ("exp3-gr", lambda extra: extra["buffers"].update({"1,1": [1.0]}), "buffers"),
            ("exp3-gr", lambda extra: extra["buffers"].update({"1,1": [[1, 0]]}), "buffers"),
            ("exp3-gr", lambda extra: extra["buffers"]["1,1"].append(0), "buffers"),  # 4 samples, capacity 3
            ("exp3", lambda payload: payload.update(version=True), "version"),
            ("exp3", lambda payload: payload.update(version=1.0), "version"),
            ("exp3-up", lambda payload: payload.update(version="1"), "version"),
            ("exp3-ip", lambda payload: payload.update(version=2), "version"),
            ("exp3", lambda payload: payload.pop("version"), "version"),
            ("exp3", lambda payload: payload.update(junk=1), "junk"),
            ("exp3-up", lambda payload: payload["config"].update(junk=1), "junk"),
            ("exp3-gr", lambda payload: payload["extra"].update(junk=1), "junk"),
            ("exp3-ip", lambda payload: payload["extra"].update(junk=1), "junk"),
            ("exp3-ip+doubling", lambda payload: payload["extra"]["doubling"].update(junk=1), "junk"),
            ("exp3-up", lambda payload: payload.update(config=[]), "config"),
            ("exp3", lambda payload: payload.update(extra=[]), "extra"),
            ("exp3-up", lambda payload: payload.update(algorithm=3), "algorithm"),
            ("exp3-up", lambda payload: payload["config"].update(schedule="fixed:0.50"), "schedule"),
            ("exp3-gr", lambda extra: extra.update(capacity=3.0), "capacity"),
            ("exp3", lambda payload: payload["rng"]["state"]["counter"].update(dtype="float64"), "rng"),
            ("exp3", lambda payload: payload["rng"]["state"]["counter"]["__array__"].__setitem__(0, 1.5), "rng"),
            ("exp3-ip", lambda payload: payload["rng"]["state"]["key"]["__array__"].__setitem__(1, True), "rng"),
            ("exp3-up", lambda payload: payload["rng"]["buffer"]["__array__"].__setitem__(0, "7"), "rng"),
            ("exp3", lambda payload: payload["rng"].update(buffer_pos=True), "rng"),
            ("exp3-gr", lambda payload: payload["rng"].update(buffer_pos=4.0), "rng"),
            ("exp3", lambda payload: payload["rng"].update(uinteger=1.5), "rng"),
            ("exp3", lambda payload: payload["rng"]["state"]["counter"].update({"__array__": []}), "rng"),
        ],
        ids=["up-short-explore", "gr-long-explore", "counts-rows", "sums-ragged", "sums-above-counts",
             "sums-negative", "ring-sample-2", "ring-sample-negative", "up-cursor-past-k", "gr-cursor-at-k",
             "up-cursor-negative", "gr-cursor-negative", "up-floor-zero", "gr-floor-zero",
             "up-explore-negative", "gr-explore-negative", "up-epoch-negative", "gr-epoch-negative",
             "up-epoch-before-start", "gr-epoch-fractional", "up-epoch-null-under-doubling",
             "gr-epoch-without-doubling", "up-eta-above-1", "gr-eta-above-1", "up-eta-nan", "gr-eta-nan",
             "gr-eta-negative", "gr-eta-null-with-epoch", "up-eta-without-epoch", "gr-eta-off-schedule",
             "up-epoch-overflow", "gr-capacity-below-floor", "gr-capacity-above-floor",
             "gr-capacity-off-floor-under-doubling", "ip-doubling-without-schedule", "exp3-doubling-without-schedule",
             "ip-doubling-null-under-doubling", "dom-doubling-null-under-doubling", "ip-epoch-negative",
             "exp3-epoch-negative", "dom-epoch-fractional", "ip-epoch-overflow", "ip-accumulated-nan",
             "exp3-accumulated-negative", "dom-accumulated-inf", "ip-accumulated-above-bound", "up-floor-below-config",
             "gr-floor-and-capacity-below-config", "up-xi-below-config", "up-xi-nan", "up-xi-huge",
             "up-xi-off-schedule", "round-negative", "round-fractional", "round-string", "round-bool",
             "gr-cursor-fractional", "counts-fractional", "sums-missing", "capacity-missing", "extra-missing",
             "ip-accumulated-string", "epsilon-string", "epsilon-bool", "schedule-number", "rng-number",
             "rng-without-state", "rng-string-counter", "rng-negative-counter", "rng-key-above-uint64",
             "buffers-list", "buffers-unknown-edge", "ring-nested", "ring-bool", "ring-float", "ring-nested-pair",
             "ring-above-capacity", "version-bool",
             "version-float", "version-string", "version-2", "version-missing", "top-level-junk", "config-junk",
             "up-extra-junk", "ip-extra-junk", "doubling-junk", "config-not-an-object", "extra-not-an-object",
             "algorithm-number", "schedule-not-canonical", "capacity-float", "rng-float-dtype",
             "rng-fractional-counter", "rng-bool-key", "rng-string-buffer", "rng-bool-buffer-pos",
             "rng-float-buffer-pos", "rng-fractional-uinteger", "rng-empty-counter"],
    )
    def test_tampered_field_rejected(self, algorithm, tamper, field):
        payload = snapshot_payload(algorithm)
        top_level = ("round", "extra", "epsilon", "schedule", "rng", "version", "junk", "config", "algorithm")
        tamper(payload if field in top_level else payload["extra"])
        with pytest.raises(ValueError, match=f"'{field}'"):
            load_on_k4(payload)

    @pytest.mark.parametrize(
        "algorithm",
        ["exp3-up", "exp3-gr", "exp3-up+doubling", "exp3-gr+doubling", "exp3", "exp3-dom", "exp3-ip",
         "exp3+doubling", "exp3-dom+doubling", "exp3-ip+doubling"],
    )
    def test_untampered_snapshot_text_round_trips(self, algorithm):
        payload = snapshot_payload(algorithm)
        assert load_on_k4(payload).snapshot() == json.dumps(payload)

    @pytest.mark.parametrize("algorithm", ["exp3", "exp3-dom", "exp3-ip"])
    def test_doubling_state_survives_the_round_trip(self, algorithm):
        payload = snapshot_payload(f"{algorithm}+doubling", rounds=60)
        state = load_on_k4(payload)._doubling
        assert state.epoch == payload["extra"]["doubling"]["epoch"] > 0
        assert 0 < state.accumulated <= 2.0**state.epoch

    @pytest.mark.parametrize("rounds", [0, 1, 2])
    @pytest.mark.parametrize("k", [8, 50])
    @pytest.mark.parametrize("algorithm", ["exp3-up+doubling", "exp3-gr+doubling"])
    def test_early_doubling_snapshot_round_trips_at_large_k(self, algorithm, k, rounds):
        # exp3-gr's epoch-0 learning rate, sqrt(ln K / 2), is above 1 from K = 8 on.
        payload = snapshot_payload(algorithm, k=k, rounds=rounds)
        text = json.dumps(payload)
        assert load_snapshot(text, NominalGraph.complete(k)).snapshot() == text


SNAPSHOT_FIXTURE = Path(__file__).parent / "fixtures" / "learner_snapshots.json"
SCHEDULES = {"inverse-sqrt": InverseSqrtEta(), "doubling": DoublingSchedule()}


@pytest.mark.parametrize("name", json.loads(SNAPSHOT_FIXTURE.read_text()))
def test_snapshot_text_and_resume_are_unchanged(name):
    """Snapshot text at an early round and at a later round past the doubling
    restarts, and the resume from the early one, against text recorded from
    the implementation that stored and checked each derived field on its own."""
    recorded = json.loads(SNAPSHOT_FIXTURE.read_text())[name]
    algorithm, _, schedule = name.partition("+")
    adjacency = np.array([[1, 1, 0, 1], [0, 1, 1, 0], [1, 1, 1, 1], [0, 0, 1, 1]], dtype=bool)
    graph = NominalGraph(adjacency)
    table = EdgeProbabilityTable.from_probs(graph, np.where(adjacency, np.array([0.6, 0.35, 0.8, 0.5])[:, None], 0.0))
    losses = np.array([0.9, 0.4, 0.6, 0.1])
    probs = table if algorithm == "exp3-ip" else None
    config = LearnerConfig(algorithm, SCHEDULES[schedule], min_observations=3)
    learner = make_learner(config, graph, probs=probs, seed=5)
    feedback_rng = np.random.default_rng(101)
    early, late = recorded["early"], recorded["late"]
    for t in range(1, late + 1):
        if t == early + 1:  # resume from the recorded text, not from the learner
            assert learner.snapshot() == recorded["snapshots"][str(early)]
            learner = load_snapshot(recorded["snapshots"][str(early)], graph, probs=probs)
        pick = learner.select(t, graph)
        learner.update(realize_feedback(graph, table, pick, losses, feedback_rng, t=t))
    assert learner.snapshot() == recorded["snapshots"][str(late)]


class TestTableForAnotherGraph:
    """exp3-ip's table must be its graph's: a table for 4 or 2 experts on a
    3-expert graph is refused naming both sizes, not broadcast or indexed."""

    GRAPH = NominalGraph.from_edges(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)])

    @pytest.mark.parametrize("size", [4, 2])
    def test_make_learner(self, size):
        other = constant_table(NominalGraph.complete(size), 0.5)
        with pytest.raises(ValueError, match=rf"shape \({size}, {size}\), the graph has 3 experts"):
            make_learner(LearnerConfig("exp3-ip"), self.GRAPH, probs=other)

    @pytest.mark.parametrize("size", [4, 2])
    def test_load_snapshot(self, size):
        text = make_learner(LearnerConfig("exp3-ip"), self.GRAPH, probs=constant_table(self.GRAPH, 0.5)).snapshot()
        other = constant_table(NominalGraph.complete(size), 0.5)
        with pytest.raises(ValueError, match=rf"shape \({size}, {size}\), the graph has 3 experts"):
            load_snapshot(text, self.GRAPH, probs=other)

    @pytest.mark.parametrize("size", [4, 2])
    def test_views(self, size):
        other = constant_table(NominalGraph.complete(size), 0.5)
        pmf = Pmf(np.full(3, 1 / 3))
        with pytest.raises(ValueError, match=rf"shape \({size}, {size}\), the graph has 3 experts"):
            observation_probs(pmf, self.GRAPH, other)
        with pytest.raises(ValueError, match=rf"shape \({size}, {size}\), the graph has 3 experts"):
            exp3ip_pmf(WeightVector(np.zeros(3)), 0.1, self.GRAPH, other, greedy_dominating_set(self.GRAPH))
