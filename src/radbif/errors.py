"""Exception types shared across the toolkit.

ConfigError maps to CLI exit code 2, NumericalError and its subclasses to
exit code 1.  Plain ValueError is used for API-level domain errors such as
evaluating a nonlinearity at a negative argument.
"""

import math
import numbers

__all__ = [
    "ToolkitError", "ConfigError", "NumericalError", "NonConvergenceError",
    "ContinuationError", "SubsolutionError", "MonotonicityViolationError",
    "DistinctnessError", "InsufficientDataError",
]


class ToolkitError(Exception):
    """Base class for all toolkit-specific failures."""


class ConfigError(ToolkitError, ValueError):
    """Invalid configuration values, parameters, or input files."""


def require_int(value, what: str, low: int) -> int:
    """value as an int >= low; ConfigError otherwise, for every float too."""
    if not isinstance(value, numbers.Integral) or value < low:
        raise ConfigError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


def require_positive(value, what: str) -> float:
    """float(value) when 0 < value < inf; ConfigError otherwise, NaN too."""
    if not 0 < value < math.inf:
        raise ConfigError(f"{what} must be positive and finite, got {value!r}")
    return float(value)


class NumericalError(ToolkitError, RuntimeError):
    """A numerical procedure failed to produce a usable result."""


class NonConvergenceError(NumericalError):
    """An iteration exceeded its budget; carries the residual trace."""

    def __init__(self, message, trace=None, last_state=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
        self.last_state = last_state


class ContinuationError(NumericalError):
    """Branch tracing failed; carries the last good point if any."""

    def __init__(self, message, last_point=None):
        super().__init__(message)
        self.last_point = last_point


class SubsolutionError(NumericalError):
    """No admissible subsolution amplitude was found."""


class MonotonicityViolationError(NumericalError):
    """A monotone iteration produced a decreasing or ceiling-breaking step."""


class DistinctnessError(NumericalError):
    """Two allegedly distinct solutions coincide."""


class InsufficientDataError(NumericalError):
    """Not enough points in the requested regime for a fit or a check."""
