import re

import numpy as np
import pytest

from graphbandit.environment import (
    FixedTableAdversary,
    StochasticGapAdversary,
    SwitchingAdversary,
    empirical_regret,
    realize_feedback,
    run_episode,
    substream,
)
from graphbandit.errors import ContractError, IngestError
from graphbandit.estimator import Pmf, sample_index
from graphbandit.graph import EdgeProbabilityTable, NominalGraph


class StubLearner:
    """Plays a fixed index (or draws from a fixed pmf) and ignores feedback."""

    def __init__(self, index=None, pmf=None):
        self.index = index
        self.pmf = pmf
        self.rng = None
        self.events = []

    def reseed(self, seed):
        self.rng = np.random.Generator(np.random.Philox(seed))

    def select(self, t, graph=None):
        if self.index is not None:
            return self.index
        return sample_index(self.pmf, self.rng)

    def update(self, feedback):
        self.events.append(feedback)


class TestRealizeFeedback:
    def test_certain_edges_reveal_full_out_neighborhood(self):
        g = NominalGraph.from_edges(4, [(1, 1), (1, 2), (1, 3), (2, 2), (3, 3), (4, 4)])
        p = EdgeProbabilityTable.constant(g, 1.0)
        rng = np.random.default_rng(0)
        event = realize_feedback(g, p, 1, np.array([0.1, 0.2, 0.3, 0.4]), rng, t=5)
        assert event.observed == ((1, 0.1), (2, 0.2), (3, 0.3))
        assert event.incurred_loss == 0.1
        assert event.t == 5

    def test_cross_edge_fires_at_its_probability(self):
        # Lone cross edge at probability 0.05; the empirical inclusion rate
        # over 1e5 rounds must sit within 4 sigma.
        eps = 0.05
        g = NominalGraph.from_edges(2, [(1, 1), (1, 2), (2, 2)])
        p = EdgeProbabilityTable.from_probs(g, np.array([[1.0, eps], [0.0, 1.0]]), epsilon=eps)
        rng = np.random.default_rng(7)
        n = 100_000
        hits = sum(2 in dict(ev.observed) for ev in (realize_feedback(g, p, 1, np.array([0.5, 0.5]), rng) for _ in range(n)))
        sigma = np.sqrt(eps * (1 - eps) / n)
        assert abs(hits / n - eps) <= 4 * sigma

    def test_own_loss_observed_at_self_loop_rate(self):
        g = NominalGraph.bandit(3)
        p = EdgeProbabilityTable.constant(g, 0.5)
        rng = np.random.default_rng(11)
        n = 100_000
        losses = np.array([0.3, 0.6, 0.9])
        hits = sum(1 in dict(ev.observed) for ev in (realize_feedback(g, p, 1, losses, rng) for _ in range(n)))
        sigma = np.sqrt(0.25 / n)
        assert abs(hits / n - 0.5) <= 4 * sigma

    def test_observed_subset_of_out_neighbors(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            k = int(rng.integers(2, 7))
            adj = rng.random((k, k)) < 0.4
            np.fill_diagonal(adj, True)
            g = NominalGraph(adj)
            p = EdgeProbabilityTable.uniform(g, 0.2, 0.9, rng)
            chosen = int(rng.integers(1, k + 1))
            event = realize_feedback(g, p, chosen, rng.random(k), rng)
            assert set(dict(event.observed)) <= set(g.out_positions[chosen - 1] + 1)

    def test_loss_out_of_range_rejected(self):
        g = NominalGraph.bandit(2)
        p = EdgeProbabilityTable.constant(g, 1.0)
        with pytest.raises(ContractError):
            realize_feedback(g, p, 1, np.array([1.5, 0.0]), np.random.default_rng(0))


class TestAdversaries:
    def test_fixed_table_validation(self):
        with pytest.raises(ValueError):
            FixedTableAdversary(np.array([[0.5, 1.2]]))

    def test_fixed_table_csv_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n0.1,0.9\n0.2,0.8\n")
        adv = FixedTableAdversary.from_csv(path)
        np.testing.assert_allclose(adv.table, [[0.1, 0.9], [0.2, 0.8]])

    def test_fixed_table_csv_bad_value(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0.1,0.9\n0.2,oops\n")
        with pytest.raises(IngestError):
            FixedTableAdversary.from_csv(path)

    def test_fixed_table_csv_header_after_blank_lines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\nx,y\n0.1,0.9\n0.2,0.8\n")
        adv = FixedTableAdversary.from_csv(path)
        np.testing.assert_allclose(adv.table, [[0.1, 0.9], [0.2, 0.8]])

    def test_fixed_table_csv_first_row_with_empty_cell(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("0.1,,0.2\n0.2,0.3,0.1\n")
        with pytest.raises(IngestError, match=":1:"):
            FixedTableAdversary.from_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,a\n0.1,0.2\n0.3,0.4\n", "duplicate column name(s) ['a'] in the header"),
            ("a,b\n0.1,0.2,0.3\n0.3,0.4,0.5\n", "the header names 2 columns, the first row has 3"),
            ("a,b,c,d\n0.1,0.2,0.3\n0.3,0.4,0.5\n", "the header names 4 columns, the first row has 3"),
            ("0.1,0.2\n0.3,0.4,0.5\n", "non-numeric or ragged rows at line(s) 2"),
            ("a,b\n", "no data rows"),
            ("\n\n", "empty file"),
            ("0.1,0.2\n0.3,1.5\n", "losses must lie in [0, 1]"),
        ],
        ids=["duplicate-names", "header-narrower", "header-wider", "ragged", "header-only", "blank", "loss-above-one"],
    )
    def test_fixed_table_csv_rejected_naming_the_file_once(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(IngestError) as info:
            FixedTableAdversary.from_csv(path)
        assert str(info.value).count(str(path)) == 1 and message in str(info.value)

    def test_gap_adversary_means(self):
        adv = StochasticGapAdversary(gap=0.2, best_arm=2)
        table = adv.materialize(50_000, 3, np.random.default_rng(3))
        means = table.mean(axis=0)
        assert means[1] == pytest.approx(0.3, abs=0.02)
        assert means[0] == pytest.approx(0.5, abs=0.02)

    def test_switching_adversary_rotates(self):
        adv = SwitchingAdversary(gap=0.5, period=10)
        table = adv.materialize(60, 3, np.random.default_rng(5))
        # blocks of 10 rounds; best arm cycles 1, 2, 3, 1, 2, 3
        block_means = table.reshape(6, 10, 3).mean(axis=1)
        assert np.argmin(block_means, axis=1).tolist() == [0, 1, 2, 0, 1, 2]

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: SwitchingAdversary(0.1, period=2.5), "period must be an integer >= 1, got 2.5"),
            (lambda: SwitchingAdversary(0.1, period=True), "period must be an integer >= 1, got True"),
            (lambda: SwitchingAdversary(0.1, period=0), "period must be an integer >= 1, got 0"),
            (lambda: StochasticGapAdversary(0.1, best_arm=1.5), "best_arm must be an integer >= 1, got 1.5"),
            (lambda: StochasticGapAdversary(0.1, best_arm=True), "best_arm must be an integer >= 1, got True"),
            (lambda: StochasticGapAdversary(0.1, best_arm=0), "best_arm must be an integer >= 1, got 0"),
            (lambda: StochasticGapAdversary(True, base=1), "need 0 < gap <= base <= 1, got gap=True base=1"),
            (lambda: StochasticGapAdversary(0.1, base=True), "need 0 < gap <= base <= 1, got gap=0.1 base=True"),
            (lambda: SwitchingAdversary(np.bool_(True), period=3, base=1), "need 0 < gap <= base"),
            (lambda: SwitchingAdversary(0.1, period=3, base=True), "need 0 < gap <= base"),
        ],
        ids=["period-fraction", "period-bool", "period-zero", "best-arm-fraction", "best-arm-bool", "best-arm-zero",
             "gap-bool", "base-bool", "switching-gap-bool", "switching-base-bool"],
    )
    def test_parameters_checked_by_type_at_construction(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    def test_numpy_integer_parameters_stored_as_int(self):
        switching = SwitchingAdversary(0.1, period=np.int64(4))
        gap = StochasticGapAdversary(0.1, best_arm=np.int32(2))
        assert type(switching.period) is int and switching.period == 4
        assert type(gap.best_arm) is int and gap.best_arm == 2
        assert SwitchingAdversary(0.1, period=4).materialize(40, 3, np.random.default_rng(1)).tobytes() == (
            switching.materialize(40, 3, np.random.default_rng(1)).tobytes()
        )


class TestRunEpisode:
    def test_single_expert_zero_regret(self):
        g = NominalGraph.bandit(1)
        p = EdgeProbabilityTable.constant(g, 1.0)
        trace = run_episode(StubLearner(index=1), FixedTableAdversary(np.full((10, 1), 0.7)), g, p, 10, seed=0)
        assert empirical_regret(trace) == pytest.approx(0.0)

    def test_forced_bad_arm_regret_is_horizon(self):
        g = NominalGraph.bandit(2)
        p = EdgeProbabilityTable.constant(g, 1.0)
        table = np.tile([1.0, 0.0], (10, 1))
        trace = run_episode(StubLearner(index=1), FixedTableAdversary(table), g, p, 10, seed=0)
        assert empirical_regret(trace) == pytest.approx(10.0)

    def test_nan_loss_rejected_before_round_one(self):
        # A custom adversary bypasses FixedTableAdversary's validation; a NaN
        # in the last row must still stop the episode before any round runs.
        class LateNanAdversary:
            def materialize(self, horizon, num_experts, rng):
                table = np.full((horizon, num_experts), 0.5)
                table[-1, 1] = np.nan
                return table

        g = NominalGraph.complete(3)
        p = EdgeProbabilityTable.constant(g, 0.5)
        learner = StubLearner(index=1)
        with pytest.raises(ContractError, match="outside"):
            run_episode(learner, LateNanAdversary(), g, p, 500, seed=0)
        assert learner.events == []

    def test_identical_seeds_identical_traces(self):
        g = NominalGraph.complete(3)
        p = EdgeProbabilityTable.constant(g, 0.5)
        adv = StochasticGapAdversary(gap=0.1)
        pmf = Pmf(np.array([0.2, 0.3, 0.5]))
        t1 = run_episode(StubLearner(pmf=pmf), adv, g, p, 200, seed=123)
        t2 = run_episode(StubLearner(pmf=pmf), adv, g, p, 200, seed=123)
        np.testing.assert_array_equal(t1.chosen, t2.chosen)
        np.testing.assert_array_equal(t1.incurred, t2.incurred)
        np.testing.assert_array_equal(t1.loss_table, t2.loss_table)

    def test_loss_table_depends_only_on_seed(self):
        g = NominalGraph.complete(3)
        p = EdgeProbabilityTable.constant(g, 0.5)
        adv = StochasticGapAdversary(gap=0.1)
        t1 = run_episode(StubLearner(index=1), adv, g, p, 100, seed=9)
        t2 = run_episode(StubLearner(index=3), adv, g, p, 100, seed=9)
        np.testing.assert_array_equal(t1.loss_table, t2.loss_table)

    def test_own_loss_fraction_matches_pmf_weighted_self_loop_rate(self):
        g = NominalGraph.bandit(3)
        diag = np.diag([0.2, 0.5, 0.8])
        p = EdgeProbabilityTable.from_probs(g, diag, epsilon=0.2)
        pmf = Pmf(np.array([0.5, 0.3, 0.2]))
        learner = StubLearner(pmf=pmf)
        trace = run_episode(learner, StochasticGapAdversary(gap=0.1), g, p, 50_000, seed=31)
        seen = np.fromiter(
            (ev.chosen in dict(ev.observed) for ev in learner.events), dtype=bool
        )
        expected = float(pmf.probs @ np.diag(diag))
        sigma = np.sqrt(expected * (1 - expected) / seen.size)
        assert abs(seen.mean() - expected) <= 4 * sigma


class TestEmpiricalRegret:
    def test_identical_losses_zero(self):
        g = NominalGraph.bandit(2)
        p = EdgeProbabilityTable.constant(g, 1.0)
        table = np.full((20, 2), 0.4)
        trace = run_episode(StubLearner(index=2), FixedTableAdversary(table), g, p, 20, seed=0)
        assert empirical_regret(trace) == pytest.approx(0.0)

    def test_uniform_random_learner_on_one_good_arm(self):
        # K=2, one arm at loss 0 and one at loss 1: a uniform learner pays
        # about T/2 with a binomial 4-sigma band.
        g = NominalGraph.bandit(2)
        p = EdgeProbabilityTable.constant(g, 1.0)
        table = np.tile([0.0, 1.0], (1000, 1))
        learner = StubLearner(pmf=Pmf(np.array([0.5, 0.5])))
        trace = run_episode(learner, FixedTableAdversary(table), g, p, 1000, seed=77)
        assert abs(empirical_regret(trace) - 500) <= 4 * np.sqrt(1000 * 0.25)


def test_substreams_are_disjoint():
    a = substream(5, 0).random(8)
    b = substream(5, 1).random(8)
    assert not np.allclose(a, b)


class TestTableForAnotherGraph:
    """A probability table built for another graph is refused where it meets
    the graph, naming both sizes, before any draw."""

    GRAPH = NominalGraph.from_edges(3, [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)])

    @pytest.mark.parametrize("size", [4, 2])
    def test_realize_feedback(self, size):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        other = EdgeProbabilityTable.constant(NominalGraph.complete(size), 0.5)
        with pytest.raises(ValueError, match=rf"shape \({size}, {size}\), the graph has 3 experts"):
            realize_feedback(self.GRAPH, other, 1, np.full(3, 0.5), rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("size", [4, 2])
    def test_run_episode_leaves_the_learner_alone(self, size):
        learner = StubLearner(index=1)
        other = EdgeProbabilityTable.constant(NominalGraph.complete(size), 0.5)
        with pytest.raises(ValueError, match=rf"shape \({size}, {size}\), the graph has 3 experts"):
            run_episode(learner, StochasticGapAdversary(0.1), self.GRAPH, other, 10, seed=0)
        assert learner.rng is None
