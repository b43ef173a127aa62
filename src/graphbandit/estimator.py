"""Shared numerical kernels: log-domain exponential weights, probability mass
functions, importance-weighted loss estimates, and categorical sampling.

Each concept has one private kernel on plain arrays (``_normalized``,
``_canonical``, ``_exp_weight_step``, ``_importance_estimates``, ``_cdf``).
The learners call the kernels; the public classes and functions are views
of them.  Each check costs O(1) numpy reductions.  A sum is finite when
every entry is (unless finite entries overflow it), so the entry-wise
finiteness scan runs only when the sum is not.

A learner-round checks each fact once, in this order (``run_episode``'s
stand-in in brackets; see ``policies._LearnerBase._observe``):

1. indices in 1..K, none twice: ``update`` (fired out-positions);
2. losses in [0, 1], pmf-driven rounds: ``update`` (the loss-table check);
3. activations on out-edges only: ``update`` (fired out-positions);
4. q > 0 and trial counts in [1, M]: the estimate kernels;
5. finite estimates and weights: one sum each in the weight step and the
   pmf build, which hand anything else to ``_exp_weight_step`` or ``_normalized``."""

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
# The ufunc reductions the round kernels call directly: ``a.sum()``,
# ``a.min()``, ``a.max()`` and ``a.cumsum()`` run the same loops (so give the
# same bits on a 1-d array) behind a Python-level wrapper.
_sum = np.add.reduce
_min = np.minimum.reduce
_max = np.maximum.reduce
_cumsum = np.add.accumulate


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over experts; entry k is expert k+1's mass."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("pmf must be a non-empty 1-d vector")
        probs = _normalized(probs)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return self.probs.size


def _normalized(probs: np.ndarray) -> np.ndarray:
    """The check-and-normalize kernel behind ``Pmf``: rejects non-finite
    entries, negatives beyond the tolerance and sums off 1 by more than it;
    returns a new vector divided by its sum, small negatives clipped to 0."""
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
    return probs / total


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
        lw = _canonical(lw)
        lw.flags.writeable = False
        object.__setattr__(self, "log_weights", lw)

    @classmethod
    def uniform(cls, num_experts: int) -> "WeightVector":
        return cls(np.zeros(num_experts))

    def __len__(self) -> int:
        return self.log_weights.size


def _canonical(log_weights: np.ndarray) -> np.ndarray:
    """The kernel behind ``WeightVector``: rejects non-finite log-weights and
    returns a new vector shifted so that its largest entry is exactly 0."""
    if not math.isfinite(log_weights.sum()) and not np.isfinite(log_weights).all():
        raise InvariantError("log-weights must be finite")
    return log_weights - log_weights.max()


def _softmax(log_weights: np.ndarray) -> np.ndarray:
    """exp(log_weights) / sum: the distribution of canonical log-weights."""
    e = np.exp(log_weights)
    return e / _sum(e)


def exp_weight_update(weights: WeightVector, eta: float, loss_estimates) -> WeightVector:
    """Multiply each weight by exp(-eta * estimate); returns a new vector."""
    est = np.asarray(loss_estimates, dtype=float)
    if est.shape != weights.log_weights.shape:
        raise ValueError(f"expected {len(weights)} estimates, got shape {est.shape}")
    return WeightVector(_exp_weight_step(weights.log_weights, eta, est))


def _exp_weight_step(log_weights: np.ndarray, eta: float, estimates: np.ndarray) -> np.ndarray:
    """The kernel behind ``exp_weight_update``: checks the estimates and the
    rate, then returns the canonical form of log_weights - eta * estimates.
    ``WeightVector`` leaves a canonical vector's bits unchanged."""
    if not math.isfinite(estimates.sum()) and not np.isfinite(estimates).all():
        raise InvariantError("loss estimates must be finite")
    if estimates.min() < 0:
        raise ValueError("loss estimates must be non-negative")
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be positive and finite, got {eta}")
    return _canonical(log_weights - eta * estimates)


def importance_loss_estimate(loss: float, q: float, observed: bool) -> float:
    """loss / q when the loss was observed, 0 otherwise.

    q is the (possibly estimated) probability the loss gets observed; a
    non-positive q alongside an observation means the caller's probability
    bookkeeping is broken.
    """
    if not observed:
        return 0.0
    if not 0 <= loss <= 1:  # NaN fails
        raise ValueError(f"loss must be in [0, 1], got {loss}")
    return float(_importance_estimates(np.array([loss]), np.array([q]))[0])


def _importance_estimates(losses: np.ndarray, q: np.ndarray) -> np.ndarray:
    """losses / q for a round's observed losses, checked in [0, 1] by the
    caller, each against its own observation probability; a q <= 0 raises."""
    if q.size and not _min(q) > 0:  # NaN fails
        raise InvariantError(f"observed a loss with observation probability {q[(~(q > 0)).argmax()]} <= 0")
    return losses / q


def sample_index(pmf: Pmf, rng: np.random.Generator) -> int:
    """Draw a 1-based expert index by inverting the CDF over ascending indices."""
    return int(sample_positions(pmf, rng)) + 1


def sample_positions(pmf: Pmf, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Inverse-CDF sampler of 0-based positions; one, from a scalar draw, when ``n`` is None."""
    return _invert_cdf(_cdf(pmf.probs), rng.random(n))


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The running sum of a pmf vector; raises when it is all zero."""
    cum = _cumsum(probs)
    if cum[-1] <= 0:
        raise InvariantError("degenerate all-zero pmf")
    return cum


def _invert_cdf(cum: np.ndarray, uniforms) -> np.ndarray:
    """The 0-based position whose interval of the running sum ``cum`` holds
    each uniform.  Searching all but the last boundary puts a uniform at or
    above ``cum[-1]`` (rounding) on the last position, without a clip."""
    return cum[:-1].searchsorted(uniforms, side="right")
