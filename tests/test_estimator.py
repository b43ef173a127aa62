import math

import numpy as np
import pytest

from graphbandit.errors import InvariantError
from graphbandit.estimator import (
    Pmf,
    WeightVector,
    _invert_cdf,
    _normalized,
    _softmax,
    exp_weight_update,
    importance_loss_estimate,
    sample_index,
)
from graphbandit.graph import EdgeProbabilityTable, NominalGraph, greedy_dominating_set
from graphbandit.oracles import _moment, ip_estimator_checks
from graphbandit.policies import _first_success, _inflated_divisors, _trial_slots, exp3ip_pmf, observation_probs


class TestPmf:
    def test_small_drift_renormalized(self):
        p = Pmf(np.array([0.5, 0.5 + 2e-10]))
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_large_drift_rejected(self):
        with pytest.raises(InvariantError, match="sums to"):
            Pmf(np.array([0.5, 0.6]))

    def test_negative_entry_rejected(self):
        with pytest.raises(InvariantError, match="negative"):
            Pmf(np.array([1.1, -0.1]))

    def test_immutability(self):
        p = Pmf(np.array([0.25, 0.75]))
        with pytest.raises(ValueError):
            p.probs[0] = 0.5


def distribution(weights):
    """The normalized distribution the learners draw from when exploration is off."""
    return _normalized(_softmax(weights.log_weights))


class TestExpWeightUpdate:
    def test_zero_estimates_leave_weights(self):
        w = WeightVector.uniform(2)
        out = exp_weight_update(w, 0.37, np.zeros(2))
        np.testing.assert_array_equal(out.log_weights, w.log_weights)

    def test_single_zero_estimate(self):
        w = WeightVector(np.log([2.0]))
        out = exp_weight_update(w, 0.5, np.zeros(1))
        np.testing.assert_array_equal(distribution(out), [1.0])

    def test_unit_loss_unit_rate(self):
        w = WeightVector.uniform(2)
        out = exp_weight_update(w, 1.0, np.array([1.0, 0.0]))
        ratio = np.exp(out.log_weights[0] - out.log_weights[1])
        assert ratio == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_equal_estimates_preserve_distribution(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            w = WeightVector(rng.normal(size=5))
            shift = float(rng.uniform(0, 3))
            out = exp_weight_update(w, 0.4, np.full(5, shift))
            assert np.argmax(out.log_weights) == np.argmax(w.log_weights)
            np.testing.assert_allclose(distribution(out), distribution(w), rtol=1e-12)

    def test_rejects_negative_estimates_and_bad_eta(self):
        w = WeightVector.uniform(2)
        with pytest.raises(ValueError):
            exp_weight_update(w, 0.5, np.array([-0.1, 0.0]))
        with pytest.raises(ValueError):
            exp_weight_update(w, 0.0, np.zeros(2))
        with pytest.raises(InvariantError):
            exp_weight_update(w, 0.5, np.array([np.inf, 0.0]))

    def test_log_domain_matches_naive_updates(self):
        # Naive linear-domain products must agree with the log representation
        # to 1e-10 relative over short horizons.
        rng = np.random.default_rng(5)
        for _ in range(1000):
            k = int(rng.integers(2, 6))
            horizon = int(rng.integers(1, 101))
            eta = float(rng.uniform(0.01, 0.9))
            w = WeightVector.uniform(k)
            naive = np.ones(k)
            for _ in range(horizon):
                est = rng.uniform(0, 2, size=k)
                w = exp_weight_update(w, eta, est)
                naive = naive * np.exp(-eta * est)
            np.testing.assert_allclose(distribution(w), naive / naive.sum(), rtol=1e-10)

    def test_survives_long_horizons_that_underflow_linear_weights(self):
        # 2e5 rounds of unit loss at eta=0.1 drives linear weights to e^-20000.
        w = WeightVector.uniform(2)
        for _ in range(2000):
            w = exp_weight_update(w, 0.1, np.array([100.0, 0.0]))
        dist = distribution(w)
        assert np.isfinite(dist).all() and dist[1] == pytest.approx(1.0)


class TestImportanceLossEstimate:
    def test_unit_probability_identity(self):
        assert importance_loss_estimate(0.7, 1.0, True) == pytest.approx(0.7)

    def test_hand_division(self):
        assert importance_loss_estimate(0.5, 0.25, True) == pytest.approx(2.0)

    def test_unobserved_is_zero(self):
        assert importance_loss_estimate(0.9, 0.1, False) == 0.0

    def test_observed_with_bad_q_raises(self):
        with pytest.raises(InvariantError):
            importance_loss_estimate(0.5, 0.0, True)


class TestSampleIndex:
    def test_point_masses(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert sample_index(Pmf(np.array([1.0, 0.0, 0.0])), rng) == 1
            assert sample_index(Pmf(np.array([0.0, 0.0, 1.0])), rng) == 3

    def test_fair_coin_frequency(self):
        # 3-sigma band for Bernoulli(0.5) with 1e6 draws.
        rng = np.random.default_rng(42)
        pmf = Pmf(np.array([0.5, 0.5]))
        draws = 1_000_000
        ones = sum(sample_index(pmf, rng) == 1 for _ in range(draws))
        assert 0.4985 <= ones / draws <= 0.5015


class TestEstimatePipelineMoments:
    def test_unbiased_and_second_moment(self):
        # Full select -> observe -> estimate pipeline, 1e6 rounds: the mean
        # estimate must sit within 4 standard errors of the true loss, and the
        # mean squared estimate within 4 standard errors of loss^2 / q.
        graph = NominalGraph.complete(5)
        probs = EdgeProbabilityTable.constant(graph, 0.25)
        pmf = exp3ip_pmf(WeightVector.uniform(5), 0.3, graph, probs, greedy_dominating_set(graph))
        losses = np.array([0.9, 0.7, 0.5, 0.3, 0.1])
        rng = np.random.default_rng(2024)
        for check in ip_estimator_checks(graph, probs, pmf, losses, 1_000_000, rng):
            assert check.passed(4.0), check.describe()

    @pytest.mark.parametrize("k", range(3, 9))
    def test_identities_on_random_sparse_graphs(self, k):
        # A seeded sparse digraph per K (each off-diagonal edge kept with
        # probability 0.3), independent edge probabilities in [0.1, 0.9] and
        # a random pmf, half Dirichlet and half uniform so that every
        # observation probability is at least 0.05 / K.
        rng = np.random.default_rng(1000 + k)
        adjacency = rng.random((k, k)) < 0.3
        np.fill_diagonal(adjacency, True)
        graph = NominalGraph(adjacency)
        probs = EdgeProbabilityTable.uniform(graph, 0.1, 0.9, rng)
        pmf = Pmf(0.5 * rng.dirichlet(np.ones(k)) + 0.5 / k)
        losses = rng.random(k)
        for check in ip_estimator_checks(graph, probs, pmf, losses, 200_000, rng):
            assert check.passed(4.0), check.describe()


def erdos_renyi(rng, k, density):
    """G(K, density) with self-loops: each off-diagonal edge kept independently."""
    adjacency = rng.random((k, k)) < density
    np.fill_diagonal(adjacency, True)
    return NominalGraph(adjacency)


# (K, edge density, the one edge probability p), as in Kocak, Neu & Valko (2016).
ERDOS_RENYI = [(4, 0.3, 0.2), (6, 0.5, 0.5), (8, 0.2, 0.8)]


class TestErdosRenyiIdentities:
    """The estimator identities on Erdos-Renyi graphs whose edges all fire
    with one probability p, so q_j = p * (selection mass of j's in-neighbours)."""

    @staticmethod
    def inputs(k, density, p):
        rng = np.random.default_rng(2000 + k)
        graph = erdos_renyi(rng, k, density)
        pmf = Pmf(0.5 * rng.dirichlet(np.ones(k)) + 0.5 / k)
        return rng, graph, EdgeProbabilityTable.constant(graph, p), pmf

    @pytest.mark.parametrize("k, density, p", ERDOS_RENYI)
    def test_importance_estimates_unbiased(self, k, density, p):
        rng, graph, probs, pmf = self.inputs(k, density, p)
        for check in ip_estimator_checks(graph, probs, pmf, rng.random(k), 200_000, rng):
            assert check.passed(4.0), check.describe()

    @pytest.mark.parametrize("window", [5, 25])
    @pytest.mark.parametrize("k, density, p", ERDOS_RENYI)
    def test_capped_trial_count_mean(self, k, density, p, window):
        """E[Q] = (1 - (1 - q)^M) / q per target, each repetition reading
        fresh windows of M Bernoulli(p) samples per in-edge."""
        rng, graph, probs, pmf = self.inputs(k, density, p)
        q = observation_probs(pmf, graph, probs)
        n = 10_000
        for j in range(k):
            sources = np.flatnonzero(graph.adjacency[:, j])
            slot = np.full(k, -1)
            slot[sources] = np.arange(sources.size)
            row_of = np.where(slot >= 0, np.arange(n)[:, None] * sources.size + slot, -1)
            windows = (rng.random((n * sources.size, window)) < p).astype(np.uint8)
            keys = rng.random((n * sources.size, window))
            rows = row_of[np.arange(n)[:, None], _invert_cdf(np.cumsum(pmf.probs), rng.random((n, window)))]
            trials = _first_success(rows >= 0, windows[rows, _trial_slots(keys, rows)])  # a -1 row reads the last row
            expected = (1 - (1 - q[j]) ** window) / q[j]
            check = _moment(f"mean trial count, arm {j + 1}", trials.sum(), (trials * trials).sum(), n, expected)
            assert check.passed(4.0), check.describe()

    @pytest.mark.parametrize("samples", [5, 25])
    @pytest.mark.parametrize("k, density, p", ERDOS_RENYI)
    def test_inflated_estimate_dominates(self, k, density, p, samples):
        """exp3-up's q-hat, from M samples per edge and inflation xi / sqrt(M),
        falls below q with probability at most exp(-2 xi^2) (Hoeffding over
        the pmf-weighted sample means), for every target."""
        rng, graph, probs, pmf = self.inputs(k, density, p)
        q = observation_probs(pmf, graph, probs)
        xi, reps = 1.0, 2_000
        below, raw_below = np.zeros(k), np.zeros(k)
        for _ in range(reps):
            phat = rng.binomial(samples, p, size=(k, k)) / samples
            below += pmf.probs @ _inflated_divisors(graph.adjacency, phat, xi / math.sqrt(samples)).T < q
            raw_below += pmf.probs @ _inflated_divisors(graph.adjacency, phat, 0.0).T < q
        rate = math.exp(-2 * xi * xi)
        assert (below / reps <= rate + 4 * math.sqrt(rate * (1 - rate) / reps)).all(), below / reps
        assert (raw_below / reps > rate).all()  # the plain sample means do not dominate: the check can fail
