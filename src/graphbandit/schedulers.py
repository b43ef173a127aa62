"""Learning-rate schedules, including the horizon-free doubling variants.

Three schedules are supported everywhere a learning rate is needed:

* ``fixed:<eta>``   - a constant rate;
* ``inverse-sqrt``  - eta_t = 1/sqrt(t), the default in experiment mode;
* ``doubling``      - epoch-based restarts that need no horizon knowledge.

The doubling epochs work per algorithm: the informed learner accumulates a
per-round load and restarts when it overflows 2^epoch, while the
estimation/resampling learners restart on round-count boundaries t > 2^(b+1)
with epoch-indexed (eta, M, xi) parameter formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, _real

__all__ = [
    "DoublingState",
    "FixedEta",
    "InverseSqrtEta",
    "DoublingSchedule",
    "Schedule",
    "parse_schedule",
    "format_schedule",
    "eta_at",
    "doubling_eta",
    "ip_doubling_step",
    "up_doubling_params",
    "gr_doubling_params",
    "up_start_epoch",
]


@dataclass(frozen=True)
class FixedEta:
    eta: float

    def __post_init__(self) -> None:
        if not (_real(self.eta) and 0 < self.eta < 1):  # NaN and +-inf fail too
            raise ConfigError(f"fixed eta must be in (0, 1), got {self.eta}")
        object.__setattr__(self, "eta", float(self.eta))  # numpy's too: ``format_schedule`` writes its repr


@dataclass(frozen=True)
class InverseSqrtEta:
    """eta_t = 1/sqrt(t)."""


@dataclass(frozen=True)
class DoublingSchedule:
    """Epoch-doubling restarts; per-algorithm parameter formulas below."""


Schedule = Union[FixedEta, InverseSqrtEta, DoublingSchedule]


def parse_schedule(text: str) -> Schedule:
    """Parse ``fixed:<eta>``, ``inverse-sqrt``, or ``doubling``."""
    if text == "inverse-sqrt":
        return InverseSqrtEta()
    if text == "doubling":
        return DoublingSchedule()
    if text.startswith("fixed:"):
        try:
            eta = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad schedule {text!r}") from exc
        return FixedEta(eta)
    raise ConfigError(f"unknown schedule {text!r}; expected fixed:<eta>|inverse-sqrt|doubling")


def format_schedule(schedule: Schedule) -> str:
    if isinstance(schedule, FixedEta):
        return f"fixed:{schedule.eta!r}"
    if isinstance(schedule, InverseSqrtEta):
        return "inverse-sqrt"
    return "doubling"


def eta_at(schedule: Schedule, t: int) -> float:
    """Rate for round t under a non-doubling schedule."""
    if isinstance(schedule, FixedEta):
        return schedule.eta
    if isinstance(schedule, InverseSqrtEta):
        if t < 1:
            raise ValueError(f"round numbers start at 1, got {t}")
        return 1.0 / math.sqrt(t)
    raise ValueError("doubling schedules carry their own epoch state")


def doubling_eta(epoch: int, ln_k: float) -> float:
    """The doubling rate of every learner in ``epoch``: sqrt(ln K / 2^(epoch+1))."""
    return math.sqrt(ln_k / 2.0 ** (epoch + 1))


@dataclass(frozen=True)
class DoublingState:
    """Epoch counter plus (for the informed learner) the running load total."""

    epoch: int = 0
    accumulated: float = 0.0


def ip_doubling_step(state: DoublingState, probs: np.ndarray, q, ln_k: float) -> tuple[DoublingState, bool, float]:
    """Advance the informed learner's doubling state by one round.

    The round's load is 1 + 0.5 * sum_i pi_i / q_i for the selection
    probabilities ``probs``.  While the accumulated load stays within
    2^epoch the rate is unchanged; on overflow the epoch jumps to the
    smallest value that restores the bound and the caller must reset its
    weights.  Returns (new state, restart?, eta) with
    eta = sqrt(ln_k / 2^(epoch + 1)).
    """
    q = np.asarray(q, dtype=float)
    if (q <= 0).any():
        raise ValueError("observation probabilities must be positive")
    load = 1.0 + 0.5 * float((probs / q).sum())
    accumulated = state.accumulated + load
    epoch = state.epoch
    restart = False
    while accumulated > 2.0**epoch:
        epoch += 1
        restart = True
    return DoublingState(epoch, accumulated), restart, doubling_eta(epoch, ln_k)


def up_start_epoch(num_experts: int) -> int:
    """First valid epoch for the estimation learner: ceil(log2 K)."""
    return (num_experts - 1).bit_length()


def up_doubling_params(b: int, num_experts: int) -> tuple[float, int, float]:
    """Epoch-b parameters (eta, M, xi) for the estimation-based learner.

    eta = sqrt(ln K / 2^(b+1))
    M   = ceil(2^(2(b+1)/3) / sqrt(K) + ln 4K)
    xi  = (2 K^(1/4) + sqrt(4 sqrt(K) + 1)) * sqrt(ln(K 2^(b+3)))
    """
    k = int(num_experts)
    if k < 1:
        raise ValueError("need at least one expert")
    if b < up_start_epoch(k):
        raise ValueError(f"epoch {b} below the start epoch {up_start_epoch(k)} for K={k}")
    eta = doubling_eta(b, math.log(k))
    m = math.ceil(2.0 ** (2 * (b + 1) / 3) / math.sqrt(k) + math.log(4 * k))
    xi = (2 * k**0.25 + math.sqrt(4 * math.sqrt(k) + 1)) * math.sqrt(math.log(k * 2.0 ** (b + 3)))
    return eta, int(m), xi


def gr_doubling_params(b: int, num_experts: int, dom_size: int, epsilon: float) -> tuple[float, int]:
    """Epoch-b parameters (eta, M) for the resampling learner.

    eta = sqrt(ln K / 2^(b+1))
    M   = ceil((b+1) sqrt(2^(b-1)) |D| ln 2 / (epsilon sqrt(ln K)))

    The sample budget genuinely needs a positive lower bound on the edge
    probabilities, so epsilon <= 0 is a hard error.
    """
    k = int(num_experts)
    if k < 2:
        raise ConfigError("exp3-gr with the doubling schedule needs K >= 2 (ln K must be positive)")
    if b < 0:
        raise ValueError(f"epoch must be >= 0, got {b}")
    if dom_size < 1:
        raise ValueError(f"dominating-set size must be >= 1, got {dom_size}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    eta = doubling_eta(b, math.log(k))
    m = math.ceil((b + 1) * math.sqrt(2.0 ** (b - 1)) * dom_size * math.log(2) / (epsilon * math.sqrt(math.log(k))))
    return eta, int(m)
