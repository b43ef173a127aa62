"""Regression expert pool: CSV ingestion, kernel ridge training, and
per-round loss generation from prediction errors.

The pool is always nine experts: five RBF kernel ridge models (bandwidths
0.01, 0.1, 1, 10, 100), three Laplacian kernel ridge models (bandwidths
0.01, 1, 100), and one ordinary least-squares model.  Kernel ridge solves
(G + I) a = y on the training prefix: ridge 1, the same for every model.
Kernel models that share a training array share its distances: the Gram
matrices come from one distance matrix per kind, and prediction builds each
64-row block's distances once for every bandwidth.  The Laplacian's
per-feature distances are added in numpy's pairwise order, so every entry
has the bits of the one-shot ``.sum(axis=2)`` for any number of features.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IngestError

__all__ = [
    "Dataset",
    "KernelRidgeExpert",
    "LinearExpert",
    "DatasetBundle",
    "load_csv",
    "train_expert_pool",
    "build_dataset_bundle",
    "RBF_BANDWIDTHS",
    "LAPLACIAN_BANDWIDTHS",
]

RBF_BANDWIDTHS = (1e-2, 1e-1, 1.0, 10.0, 100.0)
LAPLACIAN_BANDWIDTHS = (1e-2, 1.0, 100.0)
POOL_SIZE = len(RBF_BANDWIDTHS) + len(LAPLACIAN_BANDWIDTHS) + 1  # the kernel models and one linear model

# Gram solves stay at desk scale; larger prefixes are subsampled evenly.
MAX_KERNEL_TRAIN_ROWS = 500
# Distances are built this many evaluation rows at a time, so each
# (rows, training rows) pass stays in cache.
_KERNEL_BLOCK_ROWS = 64
# exp of anything below this underflows to exactly 0.
_EXP_UNDERFLOW = -746.0
# numpy's pairwise_sum adds up to this many terms with eight partial sums.
_PAIRWISE_BLOCK = 128


def _train_count(num_rows: int, split: float) -> int:
    """The training prefix's row count, the first ``split`` of ``num_rows``; ``split`` must lie in (0, 1)."""
    if not 0 < split < 1:
        raise ValueError(f"split must be in (0, 1), got {split}")
    return int(num_rows * split + 1e-9)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus targets normalized into [0, 1]; the first
    ``split`` fraction of rows (file order, no shuffle) is the training
    prefix for the expert pool."""

    features: np.ndarray
    targets: np.ndarray
    split: float = 0.10

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if features.ndim != 2 or targets.ndim != 1 or features.shape[0] != targets.shape[0]:
            raise ValueError(f"bad dataset shapes: features {features.shape}, targets {targets.shape}")
        if features.shape[0] < 20:
            raise ValueError(f"dataset needs at least 20 rows, got {features.shape[0]}")
        if not (np.isfinite(features).all() and np.isfinite(targets).all()):
            raise ValueError("dataset contains non-finite values")
        if (targets < 0).any() or (targets > 1).any():
            raise ValueError("targets must lie in [0, 1]; pass normalize=True when loading")
        _train_count(features.shape[0], self.split)  # checks split
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)

    @property
    def num_rows(self) -> int:
        return self.features.shape[0]

    @property
    def train_count(self) -> int:
        return _train_count(self.num_rows, self.split)

    def training_rows(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.train_count
        return self.features[:n], self.targets[:n]

    def evaluation_rows(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.train_count
        return self.features[n:], self.targets[n:]


def _abs_column(a: np.ndarray, bt: np.ndarray, j: int, out: np.ndarray) -> np.ndarray:
    np.subtract(a[:, j, None], bt[j], out=out)
    return np.abs(out, out=out)


def _abs_diff_sum(a: np.ndarray, bt: np.ndarray, cols: range, out: np.ndarray) -> None:
    """Write the sum over ``j in cols`` of ``|a[:, j, None] - bt[j]|`` into
    ``out``, added in the order of numpy's ``pairwise_sum`` so the bits equal
    ``np.abs(a[:, None, cols] - bt.T[None, :, cols]).sum(axis=2)``: a split at
    half (rounded down to a multiple of 8) above 128 columns, eight
    interleaved partial sums over the multiple-of-8 head, then the rest in
    order."""
    n = len(cols)
    if n > _PAIRWISE_BLOCK:
        half = n // 2 - n // 2 % 8
        right = np.empty_like(out)
        _abs_diff_sum(a, bt, cols[:half], out)
        _abs_diff_sum(a, bt, cols[half:], right)
        out += right
        return
    head = n - n % 8
    if head:
        r = np.empty((8,) + out.shape)
        for k in range(8):
            _abs_column(a, bt, cols[k], r[k])
        for i in range(8, head):
            r[i % 8] += _abs_column(a, bt, cols[i], out)
        for k in (0, 2, 4, 6):
            r[k] += r[k + 1]
        r[0] += r[2]
        r[4] += r[6]
        np.add(r[0], r[4], out=out)
    elif n:
        _abs_column(a, bt, cols[0], out)
        head = 1
    else:
        out.fill(0.0)
    column = np.empty_like(out)
    for j in cols[head:]:
        out += _abs_column(a, bt, j, column)


def _distance_blocks(kind: str, a: np.ndarray, b: np.ndarray):
    """Yield ``(rows, d)`` over 64-row blocks of ``a``: ``d`` holds the
    bandwidth-free distances from ``a[rows]`` to every row of ``b``, squared
    Euclidean clipped at 0 (RBF, from one full ``a @ b.T``: a row-blocked
    product would change bits) or L1 in numpy's pairwise order (Laplacian).
    A 1-row tail joins the block before it: numpy sends a 1-row
    matrix-vector product to ``dot``, whose bits differ from gemv's."""
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"feature count mismatch: {a.shape[1]} vs {b.shape[1]}")
    if kind == "rbf":
        cross = a @ b.T
        cross *= 2.0
        norms_a = np.sum(a**2, axis=1)
        norms_b = np.sum(b**2, axis=1)
    else:
        bt = np.ascontiguousarray(b.T)
    stops = [*range(_KERNEL_BLOCK_ROWS, a.shape[0] - 1, _KERNEL_BLOCK_ROWS), a.shape[0]]
    for rows in map(slice, [0] + stops, stops):
        if kind == "rbf":
            d = cross[rows]
            np.subtract(norms_a[rows, None] + norms_b, d, out=d)
            np.clip(d, 0.0, None, out=d)
        else:
            d = np.empty((rows.stop - rows.start, b.shape[0]))
            _abs_diff_sum(a[rows], bt, range(a.shape[1]), d)
        yield rows, d


def _exp_kernel(kind: str, sigma: float, d: np.ndarray, dmax: float) -> np.ndarray:
    """The RBF exp(-d / (2 sigma^2)) or Laplacian exp(-d / sigma) of the
    distances ``d``, whose ``d.max(initial=0.0)`` is ``dmax``.  numpy's exp
    takes a slow path on every result that underflows to 0, so arguments
    holding any below ``_EXP_UNDERFLOW`` skip those lanes into zeros, with
    the same bits.  Other arguments take plain exp, as the masked call costs
    half again as much there (18 vs 12 ms per bandwidth on dataset-k9, one
    thread of a 2-core Xeon).  Division by a positive scale rounds
    monotonically, so ``dmax`` gives the smallest argument without a scan."""
    scale = 2 * sigma**2 if kind == "rbf" else sigma
    args = d / -scale
    if dmax / -scale < _EXP_UNDERFLOW:  # a NaN distance makes dmax NaN: plain path
        return np.exp(args, out=np.zeros_like(args), where=args > _EXP_UNDERFLOW)
    return np.exp(args, out=args)


def _predict_pool(pool, x: np.ndarray) -> np.ndarray:
    """The (len(pool), len(x)) predictions of every model in ``pool``.  The
    kernel models that share one kind and one training array are predicted
    in one pass over row blocks of ``x``: each block's distances are built
    once and serve every bandwidth."""
    predictions = np.empty((len(pool), x.shape[0]))
    groups: dict = {}
    for i, model in enumerate(pool):
        if isinstance(model, KernelRidgeExpert):
            groups.setdefault((model.kind, id(model.train_features)), []).append(i)
        else:
            predictions[i] = model.predict(x)
    for (kind, _), members in groups.items():
        for rows, d in _distance_blocks(kind, x, pool[members[0]].train_features):
            dmax = d.max(initial=0.0)
            for i in members:
                predictions[i, rows] = _exp_kernel(kind, pool[i].bandwidth, d, dmax) @ pool[i].coef
    return predictions


@dataclass(frozen=True)
class KernelRidgeExpert:
    kind: str
    bandwidth: float
    train_features: np.ndarray
    coef: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in ("rbf", "laplacian"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError(f"bandwidth must be finite and positive, got {self.bandwidth}")

    def predict(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return _predict_pool([self], x)[0]

    def describe(self) -> str:
        return f"{self.kind}(sigma={self.bandwidth:g})"


@dataclass(frozen=True)
class LinearExpert:
    coef: np.ndarray
    intercept: float

    def predict(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return x @ self.coef + self.intercept

    def describe(self) -> str:
        return "linear"


def _csv_table(path) -> tuple[list[str] | None, np.ndarray]:
    """Read a numeric CSV file as its header (or None) and a (rows, columns)
    array.  Blank lines are skipped.  The first non-blank row is the header
    when one of its cells is not a number and none is empty (a first row
    with an empty cell is a bad data row); a header must name every column,
    each name once.  Every other row must be numeric and as wide as the
    first; bad rows are reported by physical line."""
    path = Path(path)
    try:
        with path.open(newline="") as handle:
            reader = csv.reader(handle)
            rows = [(reader.line_num, row) for row in reader if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from None
    if not rows:
        raise IngestError(f"{path}: empty file")
    header = None
    try:
        [float(cell) for cell in rows[0][1]]
    except ValueError:
        if all(cell.strip() for cell in rows[0][1]):
            header = [cell.strip() for cell in rows.pop(0)[1]]
            duplicates = sorted({name for name in header if header.count(name) > 1})
            if duplicates:
                raise IngestError(f"{path}: duplicate column name(s) {duplicates} in the header")
    if not rows:
        raise IngestError(f"{path}: no data rows")
    width = len(rows[0][1])
    if header is not None and len(header) != width:
        raise IngestError(f"{path}: the header names {len(header)} columns, the first row has {width}")
    values = np.empty((len(rows), width))
    bad_lines: list[int] = []
    for r, (lineno, row) in enumerate(rows):
        if len(row) != width:
            bad_lines.append(lineno)
            continue
        try:
            values[r] = [float(cell) for cell in row]
        except ValueError:
            bad_lines.append(lineno)
    if bad_lines:
        shown = ", ".join(str(n) for n in bad_lines[:20])
        raise IngestError(f"{path}:{bad_lines[0]}: non-numeric or ragged rows at line(s) {shown}")
    return header, values


def load_csv(path, target_column, normalize: bool = True, split: float = 0.10) -> Dataset:
    """Ingest a regression CSV, read by ``_csv_table``: blank lines are
    skipped, a non-numeric first row is a header that must name every column,
    each name once, and bad rows abort the load with their physical line
    numbers.

    ``target_column`` is a header name or a 0-based column position.  With
    ``normalize`` the features are min-max scaled per column over the whole
    file, while the target is min-max scaled by the *training prefix* min/max
    and then clipped to [0, 1] (no lookahead).  Without it values are taken
    verbatim, and out-of-range targets are rejected.
    """
    header, values = _csv_table(path)
    if isinstance(target_column, str):
        if header is None:
            raise IngestError(f"{path}: target column {target_column!r} named but the file has no header")
        if target_column not in header:
            raise IngestError(f"{path}: no column named {target_column!r}; header is {header}")
        target_idx = header.index(target_column)
    else:
        target_idx = int(target_column)
        if not 0 <= target_idx < values.shape[1]:
            raise IngestError(f"{path}: target column {target_idx} out of range for {values.shape[1]} columns")

    targets = values[:, target_idx]
    features = np.delete(values, target_idx, axis=1)
    if features.shape[1] == 0:
        raise IngestError(f"{path}: no feature columns besides the target")

    try:
        if normalize:
            train_n = max(_train_count(len(targets), split), 1)  # checks split before its first use
            lo = features.min(axis=0)
            span = features.max(axis=0) - lo
            span[span == 0] = 1.0
            features = (features - lo) / span
            t_lo = targets[:train_n].min()
            t_span = targets[:train_n].max() - t_lo
            if t_span == 0:
                t_span = 1.0
            targets = np.clip((targets - t_lo) / t_span, 0.0, 1.0)
        return Dataset(features=features, targets=targets, split=split)
    except ValueError as exc:
        raise IngestError(f"{path}: {exc}") from exc


def _fit_kernel_ridges(kind: str, bandwidths, x: np.ndarray, y: np.ndarray) -> list[KernelRidgeExpert]:
    """One kernel ridge model per bandwidth on the training rows ``x``; the
    distance matrix is built once and the models share ``x``."""
    dist = np.vstack([d for _, d in _distance_blocks(kind, x, x)])
    dmax = dist.max(initial=0.0)
    models = []
    for bandwidth in bandwidths:
        gram = _exp_kernel(kind, bandwidth, dist, dmax)
        coef = np.linalg.solve(gram + np.eye(len(x)), y)  # ridge 1
        models.append(KernelRidgeExpert(kind=kind, bandwidth=bandwidth, train_features=x, coef=coef))
    return models


def _fit_linear(x: np.ndarray, y: np.ndarray) -> LinearExpert:
    design = np.hstack([x, np.ones((len(x), 1))])
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    return LinearExpert(coef=sol[:-1], intercept=float(sol[-1]))


def train_expert_pool(dataset: Dataset) -> list:
    """Train the nine-expert pool on the dataset's training prefix.

    Kernel models solve with ridge 1 and see at most ``MAX_KERNEL_TRAIN_ROWS``
    prefix rows (evenly subsampled when the prefix is larger); the linear
    model uses the full prefix.  Deterministic.
    """
    x, y = dataset.training_rows()
    if len(y) < 10:
        raise IngestError(f"training prefix has {len(y)} rows; need at least 10")
    if len(y) > MAX_KERNEL_TRAIN_ROWS:
        keep = np.linspace(0, len(y) - 1, MAX_KERNEL_TRAIN_ROWS).round().astype(int)
        kx, ky = x[keep], y[keep]
    else:
        kx, ky = x.copy(), y
    return [
        *_fit_kernel_ridges("rbf", RBF_BANDWIDTHS, kx, ky),
        *_fit_kernel_ridges("laplacian", LAPLACIAN_BANDWIDTHS, kx, ky),
        _fit_linear(x, y),
    ]


@dataclass(frozen=True)
class DatasetBundle:
    """Everything the harness needs to run learners over a dataset: per-expert
    predictions on the evaluation rows, the true targets, and the clipped
    squared-error loss table the environment serves."""

    predictions: np.ndarray  # (K, T)
    truths: np.ndarray  # (T,)
    loss_table: np.ndarray  # (T, K)
    expert_names: tuple[str, ...]

    @property
    def horizon(self) -> int:
        return self.truths.size

    @property
    def num_experts(self) -> int:
        return self.predictions.shape[0]


def build_dataset_bundle(dataset: Dataset, pool) -> DatasetBundle:
    x, y = dataset.evaluation_rows()
    if len(y) < 1:
        raise ValueError("no evaluation rows after the training prefix")
    predictions = _predict_pool(pool, x)
    squared = (predictions - y[None, :]) ** 2
    np.clip(squared, 0.0, 1.0, out=squared)
    return DatasetBundle(
        predictions=predictions,
        truths=y,
        loss_table=np.ascontiguousarray(squared.T),  # (T, K) in C order: the harness hashes it and reads it by row
        expert_names=tuple(model.describe() for model in pool),
    )
