"""Exception types shared across the package, and the rule for a magnitude.

A physical magnitude (a temperature, a gap, a rate, a length) is valid
when it is finite and positive, or finite and non-negative where zero
means "absent".  :func:`positive` and :func:`non_negative` hold that rule
once for the range-checked scalar arguments of ``thermal``,
``quasiparticles``, ``transmon``, ``fitting``, ``parity``, ``noise`` and
``datasets``: NaN and infinities fail it with a :class:`DomainError`
naming the argument.  Array, list and ordering rules, gap segments
(:class:`GeometryError`) and an infinite T1 in the T2 budget (a zero
rate) are checked where they are used; unit conversions check nothing.
"""

import math


class QpgapError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QpgapError, ValueError):
    """An argument lies outside the physical domain of an operation."""


class BracketError(DomainError):
    """A root-finding bracket does not enclose a sign change."""


class UnderdeterminedError(DomainError):
    """Too few independent targets to determine the requested parameters."""


class NearResonanceError(DomainError):
    """A perturbative sum hits a near-resonant level pair."""


class GeometryError(QpgapError, ValueError):
    """A gap profile or fabrication stack is geometrically invalid."""


class CoverageError(QpgapError, ValueError):
    """A scan frequency grid does not cover the required band."""


class ConfigError(QpgapError, ValueError):
    """A configuration document is malformed or inconsistent."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ConvergenceError(QpgapError, RuntimeError):
    """An iterative numerical routine exhausted its iteration budget.

    ``best`` carries the best iterate seen so far, when one exists.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class RankDeficiencyError(ConvergenceError):
    """The least-squares normal equations are singular."""


def positive(name: str, value: float) -> None:
    """Raise :class:`DomainError` unless ``0 < value < inf``."""
    if not 0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")


def non_negative(name: str, value: float) -> None:
    """Raise :class:`DomainError` unless ``0 <= value < inf``."""
    if not 0 <= value < math.inf:
        raise DomainError(
            f"{name} must be non-negative and finite, got {value}"
        )
