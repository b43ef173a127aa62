"""Exception types shared across the package, and the integer and real-number checks at its boundaries."""

import numbers

import numpy as np


class ConfigError(ValueError):
    """Invalid experiment or learner configuration."""


class IngestError(ValueError):
    """Malformed input file (CSV dataset, loss table, or graph literal)."""


class ContractError(RuntimeError):
    """A caller violated an operation's stated preconditions."""


class ProtocolError(RuntimeError):
    """select/update called out of order, or feedback that does not match the round."""


class PhaseOrderError(RuntimeError):
    """An estimator was queried before its exploration phase delivered enough samples."""


class InvariantError(RuntimeError):
    """An internal numerical invariant failed; usually signals a bug upstream."""


def _integer(value, name: str, least: int = 1) -> int:
    """``value``, an integer >= ``least`` (numpy's too, not a bool), as an
    int; anything else raises ConfigError naming the field ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        kind = "a non-negative integer" if least == 0 else f"an integer >= {least}"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def _real(value) -> bool:
    """Whether ``value`` is a real number (numpy's too), not a bool; each caller raises its own error."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
