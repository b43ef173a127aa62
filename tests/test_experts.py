import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbandit.errors import IngestError
from graphbandit.experts import (
    Dataset,
    KernelRidgeExpert,
    LinearExpert,
    _distance_blocks,
    _exp_kernel,
    build_dataset_bundle,
    load_csv,
    train_expert_pool,
)


def synthetic_dataset(rng, rows=200, dims=3, split=0.10):
    x = rng.random((rows, dims))
    y = np.clip(0.3 * x[:, 0] + 0.4 * np.sin(3 * x[:, 1]) + 0.2 + 0.05 * rng.normal(size=rows), 0, 1)
    return Dataset(features=x, targets=y, split=split)


def write_csv(path, header, rows):
    lines = []
    if header:
        lines.append(",".join(header))
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def one_shot_kernel_matrix(kind, sigma, a, b):
    """The one-shot formulas the blocked kernel must reproduce bit for bit."""
    if kind == "rbf":
        sq = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :] - 2.0 * (a @ b.T)
        return np.exp(-np.clip(sq, 0.0, None) / (2 * sigma**2))
    return np.exp(-np.abs(a[:, None, :] - b[None]).sum(axis=2) / sigma)


def kernel_matrix(kind, sigma, a, b):
    """The package's kernel between every row of ``a`` and every row of
    ``b``: its distance blocks through its exp kernel."""
    out = np.empty((len(a), len(b)))
    for rows, d in _distance_blocks(kind, a, b):
        out[rows] = _exp_kernel(kind, sigma, d, d.max(initial=0.0))
    return out


class TestKernelMatrix:
    def test_identity_at_zero_distance(self):
        x = np.array([[0.3, 0.7]])
        assert kernel_matrix("rbf", 1.0, x, x)[0, 0] == 1.0
        assert kernel_matrix("laplacian", 1.0, x, x)[0, 0] == 1.0

    def test_rbf_hand_value(self):
        # squared distance 2 at unit bandwidth -> e^-1
        value = kernel_matrix("rbf", 1.0, np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]))[0, 0]
        assert value == pytest.approx(math.exp(-1))

    def test_laplacian_hand_value(self):
        assert kernel_matrix("laplacian", 1.0, np.array([[0.0]]), np.array([[1.0]]))[0, 0] == pytest.approx(math.exp(-1))

    @pytest.mark.parametrize("kind", ["rbf", "laplacian"])
    def test_dimension_mismatch(self, kind):
        with pytest.raises(ValueError, match="2 vs 3"):
            kernel_matrix(kind, 1.0, np.zeros((1, 2)), np.zeros((1, 3)))

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["rbf", "laplacian"]),
        sigma=st.sampled_from([0.01, 1.0, 100.0]),
        # numpy's pairwise_sum regimes: sequential, eight partial sums, split
        dims=st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 300)),
        rows=st.one_of(st.integers(1, 63), st.integers(65, 127), st.integers(129, 200)),
        train_rows=st.integers(1, 40),
        shared=st.integers(0, 3),
    )
    def test_bit_identical_to_one_shot_formulas(self, seed, kind, sigma, dims, rows, train_rows, shared):
        rng = np.random.default_rng(seed)
        a = rng.random((rows, dims))
        b = rng.random((train_rows, dims))
        shared = min(shared, rows, train_rows)
        b[:shared] = a[:shared]  # zero distances exercise the RBF clip
        assert np.array_equal(kernel_matrix(kind, sigma, a, b), one_shot_kernel_matrix(kind, sigma, a, b))

    @pytest.mark.parametrize("rows", [0, 1, 2, 63, 64, 65, 66, 127, 128, 129, 130, 193, 257, 300])
    def test_row_blocks_cover_the_rows_without_a_one_row_tail(self, rows):
        a = np.zeros((rows, 2))
        blocks = [(r.start, r.stop) for r, _ in _distance_blocks("laplacian", a, np.zeros((3, 2)))]
        assert [start for start, _ in blocks[1:]] == [stop for _, stop in blocks[:-1]]
        assert blocks[0][0] == 0 and blocks[-1][1] == rows
        assert all(stop - start in range(2, 66) for start, stop in blocks) or rows < 2

    def test_rbf_block_with_arguments_on_both_sides_of_the_underflow_cutoff(self):
        # At sigma = 0.01 the cutoff -746 is a squared distance of 0.1492.
        a = np.array([[0.0], [0.1], [0.3], [0.38], [0.39], [0.5], [1.0]])
        b = np.array([[0.0]])
        ((_, d),) = _distance_blocks("rbf", a, b)
        args = d / -(2 * 0.01**2)
        assert args.min() < -746 < args.max()
        kernel = _exp_kernel("rbf", 0.01, d, d.max(initial=0.0))
        assert np.array_equal(kernel, np.exp(args))
        assert kernel[-1, 0] == 0.0 and kernel[0, 0] == 1.0


# Row counts where a 64-row block walk could leave a 1-row tail or none.
BLOCK_EDGE_ROWS = [1, 63, 64, 65, 129, 193, 257]


def reference_prediction(model, x):
    """One model's predictions through the one-shot kernel matrix."""
    return one_shot_kernel_matrix(model.kind, model.bandwidth, x, model.train_features) @ model.coef


class TestSharedBlockPredictions:
    """The bundle's kernel rows and the trained coefficients against a per-model
    one-shot reference, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.one_of(st.integers(1, 7), st.integers(8, 128), st.integers(129, 300)),
        rows=st.one_of(st.sampled_from(BLOCK_EDGE_ROWS), st.integers(1, 300)),
        train_rows=st.integers(19, 40),
        shared=st.integers(1, 3),
        hand_rows=st.integers(1, 30),
        hand_kind=st.sampled_from(["rbf", "laplacian"]),
    )
    def test_bit_identical_to_per_model_reference(self, seed, dims, rows, train_rows, shared, hand_rows, hand_kind):
        rng = np.random.default_rng(seed)
        x = rng.random((train_rows + rows, dims))
        shared = min(shared, rows)
        x[train_rows : train_rows + shared] = x[:shared]  # zero distances: rbf 0.01 straddles -746
        data = Dataset(features=x, targets=rng.random(len(x)), split=(train_rows + 0.5) / len(x))
        assert data.train_count == train_rows
        pool = train_expert_pool(data)
        hand = KernelRidgeExpert(kind=hand_kind, bandwidth=0.01, train_features=rng.random((hand_rows, dims)),
                                 coef=rng.normal(size=hand_rows))
        pool.insert(3, hand)
        bundle = build_dataset_bundle(data, pool)
        x_train, y_train = data.training_rows()
        x_eval, _ = data.evaluation_rows()
        for model, row in zip(pool, bundle.predictions):
            if isinstance(model, LinearExpert):
                assert np.array_equal(row, model.predict(x_eval))
                continue
            assert np.array_equal(row, reference_prediction(model, x_eval)), model.describe()
            if model is not hand:
                gram = one_shot_kernel_matrix(model.kind, model.bandwidth, x_train, x_train)
                assert np.array_equal(model.coef, np.linalg.solve(gram + np.eye(train_rows), y_train))

    @pytest.mark.parametrize("kind", ["rbf", "laplacian"])
    def test_nan_features_give_nan_predictions(self, kind):
        # Far rows underflow at sigma = 0.01; a NaN row must not be read as one.
        rng = np.random.default_rng(3)
        model = KernelRidgeExpert(kind=kind, bandwidth=0.01, train_features=rng.random((20, 3)),
                                  coef=rng.normal(size=20))
        x = np.vstack([model.train_features[:2], rng.random((60, 3)) + 5.0, [[np.nan, 0.5, 0.5]]])
        predicted = model.predict(x)
        assert np.isnan(predicted[-1]) and np.isfinite(predicted[:-1]).all()
        assert np.array_equal(predicted, reference_prediction(model, x), equal_nan=True)

    @pytest.mark.parametrize("kind", ["rbf", "laplacian"])
    @pytest.mark.parametrize("rows", BLOCK_EDGE_ROWS)
    def test_single_model_predict_is_the_one_model_case(self, kind, rows):
        rng = np.random.default_rng(rows)
        model = KernelRidgeExpert(kind=kind, bandwidth=0.01, train_features=rng.random((20, 3)),
                                  coef=rng.normal(size=20))
        x = rng.random((rows, 3))
        assert np.array_equal(model.predict(x), reference_prediction(model, x))


class TestKernelRidgeExpertChecks:
    def expert(self, kind="rbf", bandwidth=1.0):
        return KernelRidgeExpert(kind=kind, bandwidth=bandwidth, train_features=np.zeros((1, 2)), coef=np.ones(1))

    @pytest.mark.parametrize("kind", ["rbf", "laplacian"])
    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_bandwidth(self, kind, bandwidth):
        with pytest.raises(ValueError, match="bandwidth"):
            self.expert(kind, bandwidth)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="poly"):
            self.expert("poly")


class TestTraining:
    def test_single_training_point_ridge_solution(self):
        # G = [1], ridge 1 -> coefficient 0.5 and prediction 0.5 at the point.
        x = np.array([[0.2, 0.4]])
        from graphbandit.experts import _fit_kernel_ridges

        (model,) = _fit_kernel_ridges("rbf", (1.0,), x, np.array([1.0]))
        assert model.coef[0] == pytest.approx(0.5)
        assert model.predict(x)[0] == pytest.approx(0.5)

    def test_linear_expert_recovers_exact_line(self):
        from graphbandit.experts import _fit_linear

        x = np.array([[0.0], [0.5], [1.0]])
        y = 0.4 * x[:, 0] + 0.1
        model = _fit_linear(x, y)
        assert model.coef[0] == pytest.approx(0.4, abs=1e-8)
        assert model.intercept == pytest.approx(0.1, abs=1e-8)
        np.testing.assert_allclose(model.predict(x), y, atol=1e-8)

    def test_pool_is_always_nine_experts(self):
        rng = np.random.default_rng(3)
        pool = train_expert_pool(synthetic_dataset(rng))
        assert len(pool) == 9
        kinds = [m.describe() for m in pool]
        assert sum(k.startswith("rbf") for k in kinds) == 5
        assert sum(k.startswith("laplacian") for k in kinds) == 3
        assert kinds[-1] == "linear"

    def test_training_prefix_minimum(self):
        rng = np.random.default_rng(5)
        tiny = synthetic_dataset(rng, rows=40, split=0.1)  # prefix of 4 rows
        with pytest.raises(ValueError, match="at least 10"):
            train_expert_pool(tiny)

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(7)
        data = synthetic_dataset(rng)
        pools = [train_expert_pool(data) for _ in range(2)]
        for a, b in zip(*pools):
            np.testing.assert_array_equal(a.coef, b.coef)

    def test_kernel_subsampling_cap(self):
        rng = np.random.default_rng(9)
        data = synthetic_dataset(rng, rows=2000, split=0.5)  # prefix 1000 > cap 500
        pool = train_expert_pool(data)
        assert pool[0].train_features.shape[0] == 500
        assert pool[-1].__class__ is LinearExpert

    def test_gram_matrices_are_psd_with_ridge(self):
        # Cholesky of G + I must always succeed.
        rng = np.random.default_rng(11)
        for kind in ("rbf", "laplacian"):
            for sigma in (0.01, 1.0, 100.0):
                x = rng.random((40, 4))
                gram = kernel_matrix(kind, sigma, x, x)
                np.testing.assert_allclose(gram, gram.T, atol=1e-12)
                np.linalg.cholesky(gram + np.eye(40))


def prediction_loss(model, x, y: float) -> float:
    """Per-row reference for the bundle's loss table: the squared prediction
    error clipped into [0, 1] (what the learners see)."""
    err = float(model.predict(x)[0]) - y
    return float(np.clip(err * err, 0.0, 1.0))


class TestPredictionLoss:
    """The bundle's loss entries for constant predictors against targets of 0.5."""

    @staticmethod
    def loss_of(intercept):
        data = Dataset(features=np.full((20, 1), 0.3), targets=np.full(20, 0.5))
        bundle = build_dataset_bundle(data, [LinearExpert(coef=np.array([0.0]), intercept=intercept)])
        assert bundle.loss_table.shape == (18, 1)
        assert (bundle.loss_table == bundle.loss_table[0, 0]).all()
        return bundle.loss_table[0, 0]

    def test_perfect_prediction(self):
        assert self.loss_of(0.5) == 0.0

    def test_hand_square(self):
        assert self.loss_of(0.2) == pytest.approx(0.09)

    def test_clipped_at_one(self):
        assert self.loss_of(5.0) == 1.0


class TestLoadCsv:
    def test_targets_unchanged_without_normalization(self, tmp_path):
        rows = [[i / 30, (i % 7) / 10] for i in range(30)]
        path = tmp_path / "d.csv"
        write_csv(path, ["x", "y"], rows)
        data = load_csv(path, "y", normalize=False)
        np.testing.assert_allclose(data.targets, [r[1] for r in rows])

    def test_prefix_minmax_scaling(self, tmp_path):
        # Targets cycle 10, 20, 30; the training prefix sees all three values,
        # so the mapping is exactly {0, 0.5, 1}.
        rows = [[i, [10, 20, 30][i % 3]] for i in range(30)]
        path = tmp_path / "d.csv"
        write_csv(path, ["x", "y"], rows)
        data = load_csv(path, "y", normalize=True, split=0.2)
        expected = np.array([[0.0, 0.5, 1.0][i % 3] for i in range(30)])
        np.testing.assert_allclose(data.targets, expected)

    def test_later_rows_clipped_by_prefix_stats(self, tmp_path):
        rows = [[i, 10 + (i % 3) * 10] for i in range(20)] + [[99, 95.0]]
        path = tmp_path / "d.csv"
        write_csv(path, ["x", "y"], rows)
        data = load_csv(path, "y", normalize=True, split=0.5)
        assert data.targets[-1] == 1.0  # 95 is far above the prefix max of 30

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["a", "b"], [[1, 2]] * 25)
        with pytest.raises(IngestError, match="zzz"):
            load_csv(path, "zzz")

    def test_non_numeric_rows_reported_with_line_numbers(self, tmp_path):
        rows = [[i, i] for i in range(25)]
        rows[4] = ["oops", 4]
        path = tmp_path / "d.csv"
        write_csv(path, ["a", "b"], rows)
        with pytest.raises(IngestError, match="line\\(s\\) 6"):
            load_csv(path, "b")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(IngestError, match="empty"):
            load_csv(path, "y")

    def test_positional_target_without_header(self, tmp_path):
        write_csv(tmp_path / "d.csv", None, [[i / 25, i / 50] for i in range(25)])
        data = load_csv(tmp_path / "d.csv", 1, normalize=False)
        assert data.features.shape == (25, 1)

    def test_first_row_with_empty_cell_is_a_bad_row_not_a_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0.1,,0.2\n" + "\n".join("0.2,0.3,0.1" for _ in range(25)))
        with pytest.raises(IngestError, match="line\\(s\\) 1"):
            load_csv(path, 2)

    def test_bad_row_after_a_blank_line_reported_at_its_physical_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n\n1,0.2\nx,0.3\n")
        with pytest.raises(IngestError, match="line\\(s\\) 4$"):
            load_csv(path, "b")

    def test_duplicate_header_names(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, ["x1", "y", "y"], [[i, i, i] for i in range(25)])
        with pytest.raises(IngestError, match="duplicate column name"):
            load_csv(path, "y")

    @pytest.mark.parametrize("header", [["a", "b", "y", "z"], ["a", "y"]], ids=["wider", "narrower"])
    def test_header_must_name_every_column(self, tmp_path, header):
        path = tmp_path / "d.csv"
        write_csv(path, header, [[i / 25, i / 50, (i % 5) / 5] for i in range(25)])
        with pytest.raises(IngestError, match=f"the header names {len(header)} columns, the first row has 3"):
            load_csv(path, "y")

    @pytest.mark.parametrize("split", [math.nan, math.inf, -math.inf, 0.0, 1.0, 1.5])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_split_checked_before_use(self, tmp_path, split, normalize):
        write_csv(tmp_path / "d.csv", ["x", "y"], [[i / 25, i / 50] for i in range(25)])
        with pytest.raises(IngestError, match="split must be in \\(0, 1\\)"):
            load_csv(tmp_path / "d.csv", "y", normalize=normalize, split=split)

    @pytest.mark.parametrize("split", [0.05, 0.1, 0.25, 0.3, 0.7, 0.99])
    def test_normalization_prefix_is_the_training_prefix(self, tmp_path, split):
        rows = [[i / 40, 10 + (i * 7919) % 97] for i in range(40)]
        write_csv(tmp_path / "d.csv", ["x", "y"], rows)
        data = load_csv(tmp_path / "d.csv", "y", split=split)
        prefix = np.array([r[1] for r in rows[: max(data.train_count, 1)]])
        lo, hi = prefix.min(), prefix.max()
        np.testing.assert_array_equal(data.targets, np.clip((np.array([r[1] for r in rows]) - lo) / (hi - lo), 0, 1))

    def test_dataset_needs_twenty_rows(self, tmp_path):
        write_csv(tmp_path / "d.csv", ["a", "b"], [[1, 0.5]] * 5)
        with pytest.raises(IngestError, match="20 rows"):
            load_csv(tmp_path / "d.csv", "b")


class TestBundle:
    def test_all_losses_within_unit_interval(self):
        rng = np.random.default_rng(13)
        data = synthetic_dataset(rng, rows=400)
        bundle = build_dataset_bundle(data, train_expert_pool(data))
        assert bundle.loss_table.shape == (360, 9)
        assert (bundle.loss_table >= 0).all() and (bundle.loss_table <= 1).all()

    def test_loss_table_is_one_c_ordered_array(self):
        """The harness hashes the table and reads it by row: in C order, neither copies it."""
        rng = np.random.default_rng(13)
        data = synthetic_dataset(rng, rows=400)
        bundle = build_dataset_bundle(data, train_expert_pool(data))
        assert bundle.loss_table.flags.c_contiguous and bundle.loss_table.base is None
        assert np.ascontiguousarray(bundle.loss_table) is bundle.loss_table

    def test_loss_table_matches_per_row_losses(self):
        rng = np.random.default_rng(15)
        data = synthetic_dataset(rng, rows=120)
        pool = train_expert_pool(data)
        bundle = build_dataset_bundle(data, pool)
        x_eval, y_eval = data.evaluation_rows()
        for t in (0, 5, 50):
            for k, model in enumerate(pool):
                assert bundle.loss_table[t, k] == pytest.approx(
                    prediction_loss(model, x_eval[t], y_eval[t]), abs=1e-12
                )

    # SHA-256 of the loss table for seeded datasets wider than any other pin
    # (reference.json and the golden grid use 5 features), computed when the
    # package still built kernels with the formulas of one_shot_kernel_matrix.
    @pytest.mark.parametrize(
        "dims, digest",
        [
            (12, "a88c9e95ec90b9df7f418a70881177beab942471be97f33d3fe0277cc96d3b05"),
            (130, "eadab08f916b3e093c777f64640d04bf13fbce1b29d1c9eb6d7786326737cb5e"),
        ],
    )
    def test_wide_dataset_loss_table_digest(self, dims, digest):
        data = synthetic_dataset(np.random.default_rng(dims), rows=300, dims=dims, split=0.2)
        bundle = build_dataset_bundle(data, train_expert_pool(data))
        assert bundle.loss_table.shape == (240, 9)
        assert hashlib.sha256(bundle.loss_table.tobytes()).hexdigest() == digest
