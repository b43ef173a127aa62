import csv
import json
import re

import numpy as np
import pytest

from graphbandit.environment import FixedTableAdversary, StochasticGapAdversary, SwitchingAdversary, run_episode
from graphbandit.errors import ConfigError
from graphbandit.experts import DatasetBundle, build_dataset_bundle, train_expert_pool
from graphbandit.graph import EdgeProbabilityTable, NominalGraph
from graphbandit.harness import (
    AggregateResult,
    ExperimentConfig,
    checkpoint_rounds,
    emit_results,
    run_experiment,
)
from graphbandit.policies import LearnerConfig, make_learner
from graphbandit.schedulers import FixedEta, InverseSqrtEta


def small_config(**overrides):
    defaults = dict(
        algorithms=("exp3", "exp3-ip"),
        graph=NominalGraph.complete(3),
        prob_generator=("equal", 0.5),
        adversary=StochasticGapAdversary(gap=0.2),
        horizon=300,
        runs=4,
        schedule=InverseSqrtEta(),
        seed=11,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def dataset_result(predictions, truths, runs=1):
    """run_experiment's dataset-mode result for exp3 over fixed predictions."""
    predictions = np.asarray(predictions, dtype=float)
    loss_table = np.clip((predictions - truths) ** 2, 0.0, 1.0).T
    bundle = DatasetBundle(predictions, np.asarray(truths, dtype=float), loss_table, ("e",) * len(predictions))
    graph = NominalGraph.complete(len(predictions))
    cfg = ExperimentConfig(("exp3",), graph, ("equal", 0.5), bundle=bundle, runs=runs, seed=3)
    return run_experiment(cfg)


class TestRunningMse:
    """Dataset mode reports, at each checkpoint t, the mean over rounds 1..t
    of the chosen expert's squared prediction error, one row per run."""

    def test_perfect_predictions(self):
        truths = np.array([0.2, 0.4, 0.6])
        result = dataset_result(np.tile(truths, (2, 1)), truths, runs=5)
        assert result.metric == "mse"
        assert (result.per_run["exp3"] == 0.0).all()

    def test_constant_error(self):
        result = dataset_result(np.full((2, 10), 0.1), np.zeros(10))
        np.testing.assert_array_equal(result.checkpoints, np.arange(1, 11))
        np.testing.assert_allclose(result.per_run["exp3"][0], 0.01, rtol=1e-12)

    def test_running_mean_of_the_chosen_expert_per_run(self):
        rng = np.random.default_rng(19)
        predictions, truths = rng.random((3, 30)), rng.random(30)
        result = dataset_result(predictions, truths, runs=2)
        graph = NominalGraph.complete(3)
        adversary = FixedTableAdversary(np.clip((predictions - truths) ** 2, 0.0, 1.0).T)
        for run in range(2):
            learner = make_learner(LearnerConfig("exp3"), graph)
            trace = run_episode(learner, adversary, graph, EdgeProbabilityTable.constant(graph, 0.5), 30, (3, run))
            squared = (predictions[trace.chosen - 1, np.arange(30)] - truths) ** 2
            np.testing.assert_allclose(result.per_run["exp3"][run], np.cumsum(squared) / np.arange(1, 31), rtol=1e-12)
        np.testing.assert_array_equal(result.mean("exp3"), result.per_run["exp3"].mean(axis=0))


class TestConfigValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            small_config(algorithms=("exp9",))

    def test_uninformative_blocks_informed_learner(self):
        with pytest.raises(ConfigError, match="informative"):
            small_config(probability_mode="uninformative")

    def test_uninformative_allows_the_rest(self):
        cfg = small_config(algorithms=("exp3", "exp3-dom", "exp3-up", "exp3-gr"),
                           probability_mode="uninformative", horizon=50, runs=1)
        run_experiment(cfg)

    def test_requires_exactly_one_environment(self):
        with pytest.raises(ConfigError, match="exactly one"):
            small_config(adversary=None)

    @pytest.mark.parametrize("seed", [-1, 2.0, "3", (1, 2)])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            small_config(seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert small_config(seed=np.int64(7)).seed == 7

    @pytest.mark.parametrize("floor", [2.5, True, "3", 0])
    def test_sample_floor_must_be_a_positive_integer(self, floor):
        with pytest.raises(ConfigError, match="min_observations"):
            small_config(min_observations=floor)

    @pytest.mark.parametrize(
        "field, value", [("confidence_width", 0.5), ("epsilon", 2.0), ("confidence_width", True), ("epsilon", True)]
    )
    def test_learner_config_checks_run_at_construction(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: value})

    def test_numpy_integer_sample_floor_stored_as_int(self):
        assert type(small_config(min_observations=np.int64(3)).min_observations) is int

    @pytest.mark.parametrize(
        "field, value",
        [("horizon", 10.5), ("horizon", True), ("horizon", "10"), ("runs", 2.5), ("runs", True),
         ("runs", np.bool_(True)), ("seed", True)],
    )
    def test_integer_fields_checked_at_construction(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            small_config(**{field: value})

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: LearnerConfig("exp3-up", confidence_width="2"), ConfigError, "^confidence_width must be a number"),
            (lambda: LearnerConfig("exp3-up", confidence_width=None), ConfigError, "^confidence_width must be a number"),
            (lambda: LearnerConfig("exp3-gr", epsilon="0.5"), ConfigError, "^epsilon must be a number"),
            (lambda: small_config(confidence_width="2"), ConfigError, "^confidence_width must be a number"),
            (lambda: small_config(confidence_width=None), ConfigError, "^confidence_width must be a number"),
            (lambda: small_config(epsilon="0.5"), ConfigError, "^epsilon must be a number"),
            (lambda: FixedEta("0.3"), ConfigError, r"^fixed eta must be in \(0, 1\)"),
            (lambda: FixedEta(None), ConfigError, r"^fixed eta must be in \(0, 1\)"),
            (lambda: StochasticGapAdversary(gap="0.1"), ValueError, "^need 0 < gap <= base <= 1, got gap=0.1 "),
            (lambda: StochasticGapAdversary(gap=None), ValueError, "^need 0 < gap <= base <= 1, got gap=None "),
            (lambda: SwitchingAdversary(0.1, period=3, base="1"), ValueError, "^need 0 < gap <= base <= 1"),
            (lambda: EdgeProbabilityTable.constant(NominalGraph.complete(2), "0.5"), ValueError, "^need 0 < p <= 1"),
            (lambda: EdgeProbabilityTable.from_probs(NominalGraph.complete(2), np.full((2, 2), 0.5), epsilon="0.1"),
             ValueError, r"^epsilon must be in \(0, 1\]"),
            (lambda: EdgeProbabilityTable.uniform(NominalGraph.complete(2), "0.1", 0.5, np.random.default_rng(0)),
             ValueError, "^need 0 < low <= high <= 1"),
        ],
        ids=["width-string", "width-none", "epsilon-string", "experiment-width-string", "experiment-width-none",
             "experiment-epsilon-string", "fixed-eta-string", "fixed-eta-none", "gap-string", "gap-none",
             "base-string", "constant-string", "from-probs-epsilon-string", "uniform-low-string"],
    )
    def test_non_numbers_at_the_numeric_boundaries(self, build, error, message):
        """A value that is not a real number raises the site's own error, naming the field, not a TypeError."""
        with pytest.raises(ValueError, match=message) as raised:
            build()
        assert raised.type is error

    def test_numpy_integer_fields_stored_as_int(self):
        cfg = small_config(horizon=np.int64(20), runs=np.int32(2), seed=np.uint8(3))
        assert [type(value) for value in (cfg.horizon, cfg.runs, cfg.seed)] == [int, int, int]
        json.dumps({"horizon": cfg.horizon, "runs": cfg.runs, "seed": cfg.seed})  # as meta.json writes them
        assert run_experiment(cfg).runs() == 2

    def test_bad_probability_generator(self):
        with pytest.raises(ConfigError):
            small_config(prob_generator=("uniform", 0.5, 0.2))
        with pytest.raises(ConfigError):
            small_config(prob_generator=("equal", 0.0))

    @pytest.mark.parametrize(
        "generator",
        [("equal",), ("uniform", 0.2, 0.5, 0.9), ("equal", "0.5"), ("uniform", 0.2, "0.5"), ("exact", 1.0),
         ("table", np.full((3, 3), 0.5)), (), None, ("equal", float("nan")), ("equal", True),
         ("uniform", True, 1.0), ("uniform", 0.5, True)],
        ids=["equal-no-value", "uniform-three-values", "equal-string", "uniform-string", "unknown-kind",
             "table", "empty", "none", "equal-nan", "equal-bool", "uniform-bool-low", "uniform-bool-high"],
    )
    def test_malformed_probability_generator_rejected_at_construction(self, generator):
        with pytest.raises(ConfigError, match="^bad probability generator"):
            small_config(prob_generator=generator)


class TestDatasetBundleChecks:
    """A bundle that no job could serve fails at construction, not inside the first job."""

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda p, t, table: (p, t, np.where(table == table.max(), 1.5, table)), "losses must lie in [0, 1]"),
            (lambda p, t, table: (p, t, np.hstack([table, table[:, :1]])), "loss table has 4 columns, graph has 3"),
            (lambda p, t, table: (p, t, table[:25]), "loss table has 25 rows, horizon is 30"),
            (lambda p, t, table: (p[:, :25], t, table), "predictions (3, 25)"),
            (lambda p, t, table: (p, t[:, None], table), "truths (30, 1)"),
        ],
        ids=["loss-above-one", "extra-column", "short-table", "short-predictions", "truths-column"],
    )
    def test_rejected_at_construction(self, spoil, message):
        rng = np.random.default_rng(5)
        predictions, truths = rng.random((3, 30)), rng.random(30)
        table = np.clip((predictions - truths) ** 2, 0.0, 1.0).T
        bundle = DatasetBundle(*spoil(predictions, truths, table), ("e",) * 3)
        with pytest.raises(ConfigError, match=f"^bad dataset bundle: .*{re.escape(message)}"):
            ExperimentConfig(("exp3",), NominalGraph.complete(3), ("equal", 0.5), bundle=bundle, runs=1)

    def test_longer_table_and_horizon_cap_accepted(self):
        rng = np.random.default_rng(5)
        predictions, truths = rng.random((3, 30)), rng.random(30)
        table = np.clip((predictions - truths) ** 2, 0.0, 1.0).T
        bundle = DatasetBundle(predictions, truths, np.vstack([table, table]), ("e",) * 3)
        cfg = ExperimentConfig(("exp3",), NominalGraph.complete(3), ("equal", 0.5), bundle=bundle, horizon=20, runs=1)
        assert run_experiment(cfg).checkpoints[-1] == 20


@pytest.mark.parametrize("experts", [2, 9])
def test_bundle_expert_count_named_before_its_shape(experts):
    """A bundle of the wrong expert count names both counts, whatever its length."""
    bundle = DatasetBundle(np.zeros((experts, 1)), np.zeros(1), np.zeros((1, experts)), ("e",) * experts)
    with pytest.raises(ConfigError, match=f"^bad dataset bundle: {experts} experts, the graph has 3$"):
        ExperimentConfig(("exp3",), NominalGraph.complete(3), ("equal", 0.5), bundle=bundle, horizon=5, runs=1)


class TestFixedTableChecks:
    """A given loss table that no job could serve fails at construction, as a bundle's does."""

    @pytest.mark.parametrize(
        "shape, message",
        [((2, 3), "loss table has 2 rows, horizon is 100"), ((100, 2), "loss table has 2 columns, graph has 3")],
        ids=["short", "narrow"],
    )
    def test_rejected_at_construction(self, shape, message):
        adversary = FixedTableAdversary(np.full(shape, 0.5))
        with pytest.raises(ConfigError, match=f"^bad loss table: {re.escape(message)}"):
            small_config(adversary=adversary, horizon=100)

    def test_longer_table_accepted(self):
        cfg = small_config(adversary=FixedTableAdversary(np.full((120, 3), 0.5)), horizon=100, runs=1)
        assert run_experiment(cfg).checkpoints[-1] == 100

    @pytest.mark.parametrize("adversary", [StochasticGapAdversary(gap=0.2), SwitchingAdversary(gap=0.2, period=5)])
    def test_drawn_tables_not_materialized_at_construction(self, monkeypatch, adversary):
        def refuse(*args):
            raise AssertionError("materialized at construction")

        monkeypatch.setattr(type(adversary), "materialize", refuse)
        small_config(adversary=adversary, horizon=10**9)

    @pytest.mark.parametrize("best_arm, accepted", [(3, True), (4, False), (5, False)])
    def test_best_arm_checked_against_the_graph_without_a_draw(self, monkeypatch, best_arm, accepted):
        def refuse(*args):
            raise AssertionError("materialized at construction")

        monkeypatch.setattr(StochasticGapAdversary, "materialize", refuse)
        build = lambda: small_config(adversary=StochasticGapAdversary(0.1, best_arm=best_arm), horizon=10**9)
        if accepted:
            build()
        else:
            with pytest.raises(ConfigError, match=rf"^best_arm {best_arm} exceeds the graph's 3 experts$"):
                build()


class TestCheckpoints:
    def test_small_horizon_every_round(self):
        np.testing.assert_array_equal(checkpoint_rounds(3), [1, 2, 3])

    def test_final_round_always_present(self):
        points = checkpoint_rounds(20_001)
        assert points[-1] == 20_001
        assert points[0] == 101  # ceil(20001/200)


class TestRunExperiment:
    def test_common_random_numbers_across_algorithms(self):
        result = run_experiment(small_config())
        digests = result.loss_digests
        for run in range(4):
            assert digests["exp3"][run] == digests["exp3-ip"][run]

    def test_aggregates_match_recomputation(self):
        result = run_experiment(small_config())
        for algorithm in result.algorithms():
            raw = result.per_run[algorithm]
            np.testing.assert_allclose(result.mean(algorithm), raw.mean(axis=0))
            np.testing.assert_allclose(result.std(algorithm), raw.std(axis=0, ddof=1))

    def test_deterministic_across_calls(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        for algorithm in a.algorithms():
            np.testing.assert_array_equal(a.per_run[algorithm], b.per_run[algorithm])

    def test_uniform_tables_logged_per_run(self):
        cfg = small_config(prob_generator=("uniform", 0.25, 0.5), runs=3, horizon=50)
        result = run_experiment(cfg)
        assert len(result.p_tables) == 3
        for table in result.p_tables:
            edges = table[cfg.graph.adjacency]
            assert (edges >= 0.25).all() and (edges <= 0.5).all()
        assert not np.array_equal(result.p_tables[0], result.p_tables[1])

    def test_dataset_mode_reports_mse(self):
        rng = np.random.default_rng(0)
        x = rng.random((120, 2))
        y = np.clip(0.5 * x[:, 0] + 0.2, 0, 1)
        from graphbandit.experts import Dataset

        data = Dataset(features=x, targets=y, split=0.25)
        bundle = build_dataset_bundle(data, train_expert_pool(data))
        cfg = ExperimentConfig(
            algorithms=("exp3", "exp3-ip"),
            graph=NominalGraph.complete(9),
            prob_generator=("equal", 0.5),
            bundle=bundle,
            runs=3,
            schedule=InverseSqrtEta(),
            seed=5,
        )
        result = run_experiment(cfg)
        assert result.metric == "mse"
        assert result.final_mean("exp3-ip") >= 0
        # recompute the final running MSE from the bundle for one run
        assert result.checkpoints[-1] == bundle.horizon

    def test_more_information_helps(self):
        # Certain observation (p=1) must beat p=0.25 for the informed learner
        # on the identical loss sequences.
        base = dict(
            algorithms=("exp3-ip",),
            graph=NominalGraph.complete(9),
            adversary=StochasticGapAdversary(gap=0.1),
            horizon=5000,
            runs=20,
            schedule=InverseSqrtEta(),
            seed=42,
        )
        sparse = run_experiment(ExperimentConfig(prob_generator=("equal", 0.25), **base))
        certain = run_experiment(ExperimentConfig(prob_generator=("equal", 1.0), **base))
        assert certain.final_mean("exp3-ip") < sparse.final_mean("exp3-ip")


class TestEmitResults:
    def test_header_only_for_empty_result(self, tmp_path):
        empty = AggregateResult(
            checkpoints=np.array([], dtype=np.int64), metric="regret",
            per_run={}, loss_digests={}, p_tables=(),
        )
        emit_results(empty, tmp_path)
        assert (tmp_path / "results.csv").read_bytes() == b"t,algorithm,metric,mean,std\r\n"

    def test_row_count(self, tmp_path):
        cfg = small_config(horizon=3, runs=2)  # 3 checkpoints
        emit_results(run_experiment(cfg), tmp_path)
        with (tmp_path / "results.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + 2 * 3  # header + algorithms x checkpoints

    def test_roundtrip_to_full_precision(self, tmp_path):
        result = run_experiment(small_config())
        emit_results(result, tmp_path)
        with (tmp_path / "results.csv").open() as handle:
            rows = list(csv.reader(handle))[1:]
        parsed = {}
        for t, algorithm, metric, mean, std in rows:
            parsed.setdefault(algorithm, []).append((int(t), float(mean), float(std)))
        for algorithm in result.algorithms():
            means = np.array([m for _, m, _ in parsed[algorithm]])
            np.testing.assert_allclose(means, result.mean(algorithm), rtol=1e-12)

    def test_outputs_byte_identical_across_runs(self, tmp_path):
        cfg = small_config(horizon=100, runs=2)
        emit_results(run_experiment(cfg), tmp_path / "a")
        emit_results(run_experiment(cfg), tmp_path / "b")
        for name in ("results.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_parallel_execution_matches_sequential(monkeypatch):
    cfg = small_config(horizon=80, runs=3)
    sequential = run_experiment(cfg)
    monkeypatch.setenv("GRAPHBANDIT_THREADS", "2")
    parallel = run_experiment(cfg)
    for algorithm in sequential.algorithms():
        np.testing.assert_array_equal(sequential.per_run[algorithm], parallel.per_run[algorithm])
