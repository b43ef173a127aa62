"""Shared numerical kernels: log-domain exponential weights, probability mass
functions, importance-weighted loss estimates, and categorical sampling.

Each per-round check costs O(1) numpy reductions.  A sum is finite when every
entry is (unless finite entries overflow it), so the entry-wise finiteness
scan runs only when the sum is not."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError

__all__ = [
    "Pmf",
    "WeightVector",
    "exp_weight_update",
    "importance_loss_estimate",
    "sample_index",
]

# Construction renormalizes drift below this; anything larger is a real bug.
PMF_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over experts; entry k is expert k+1's mass."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("pmf must be a non-empty 1-d vector")
        total = probs.sum()
        if not math.isfinite(total) and not np.isfinite(probs).all():
            raise InvariantError("pmf contains non-finite entries")
        low = probs.min()
        if low < -PMF_TOLERANCE:
            raise InvariantError(f"pmf has a negative entry: {low}")
        if low <= 0:  # also turns -0.0 into 0.0
            probs = np.clip(probs, 0.0, None)
            total = probs.sum()
        if abs(total - 1.0) > PMF_TOLERANCE:
            raise InvariantError(f"pmf sums to {total}, expected 1 within {PMF_TOLERANCE}")
        probs = probs / total
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class WeightVector:
    """Strictly positive expert weights kept in log domain.

    Stored canonically with the largest log-weight at exactly 0, so the
    induced distribution depends only on weight ratios and plain exp() never
    overflows.  Linear-domain weights decay geometrically over long horizons
    and would underflow; the log representation is mandatory, not an
    optimization.
    """

    log_weights: np.ndarray

    def __post_init__(self) -> None:
        lw = np.asarray(self.log_weights, dtype=float)
        if lw.ndim != 1 or lw.size < 1:
            raise ValueError("log_weights must be a non-empty 1-d vector")
        if not math.isfinite(lw.sum()) and not np.isfinite(lw).all():
            raise InvariantError("log-weights must be finite")
        lw = lw - lw.max()
        lw.flags.writeable = False
        object.__setattr__(self, "log_weights", lw)

    @classmethod
    def uniform(cls, num_experts: int) -> "WeightVector":
        return cls(np.zeros(num_experts))

    @classmethod
    def from_weights(cls, weights) -> "WeightVector":
        w = np.asarray(weights, dtype=float)
        if (w <= 0).any() or not np.isfinite(w).all():
            raise ValueError("weights must be strictly positive and finite")
        return cls(np.log(w))

    def __len__(self) -> int:
        return self.log_weights.size

    def normalized(self) -> np.ndarray:
        """The induced distribution w / sum(w)."""
        e = np.exp(self.log_weights)
        return e / e.sum()


def exp_weight_update(weights: WeightVector, eta: float, loss_estimates) -> WeightVector:
    """Multiply each weight by exp(-eta * estimate); returns a new vector."""
    est = np.asarray(loss_estimates, dtype=float)
    if est.shape != weights.log_weights.shape:
        raise ValueError(f"expected {len(weights)} estimates, got shape {est.shape}")
    if not math.isfinite(est.sum()) and not np.isfinite(est).all():
        raise InvariantError("loss estimates must be finite")
    if est.min() < 0:
        raise ValueError("loss estimates must be non-negative")
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be positive and finite, got {eta}")
    return WeightVector(weights.log_weights - eta * est)


def importance_loss_estimate(loss: float, q: float, observed: bool) -> float:
    """loss / q when the loss was observed, 0 otherwise.

    q is the (possibly estimated) probability the loss gets observed; a
    non-positive q alongside an observation means the caller's probability
    bookkeeping is broken.
    """
    if not observed:
        return 0.0
    if not np.isfinite(loss) or not 0 <= loss <= 1:
        raise ValueError(f"loss must be in [0, 1], got {loss}")
    if not q > 0:
        raise InvariantError(f"observed a loss with observation probability {q} <= 0")
    return float(loss) / float(q)


def sample_index(pmf: Pmf, rng: np.random.Generator) -> int:
    """Draw a 1-based expert index by inverting the CDF over ascending indices."""
    return int(sample_positions(pmf, rng)) + 1


def sample_positions(pmf: Pmf, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Inverse-CDF sampler of 0-based positions; one, from a scalar draw, when ``n`` is None."""
    cum = pmf.probs.cumsum()
    if cum[-1] <= 0:
        raise InvariantError("degenerate all-zero pmf")
    return _invert_cdf(cum, rng.random(n))


def _invert_cdf(cum: np.ndarray, uniforms) -> np.ndarray:
    """The 0-based position whose interval of the running sum ``cum`` holds
    each uniform.  Searching all but the last boundary puts a uniform at or
    above ``cum[-1]`` (rounding) on the last position, without a clip."""
    return cum[:-1].searchsorted(uniforms, side="right")
