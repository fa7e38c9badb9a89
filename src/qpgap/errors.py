"""Exception types shared across the package, and the rules for a
magnitude and an integer.

A physical magnitude (a temperature, a gap, a rate, a length) is valid
when it is finite and positive, or finite and non-negative where zero
means "absent".  :func:`positive` and :func:`non_negative` hold that rule
once for the range-checked scalar arguments of ``units`` (the gap
relation), ``thermal``, ``quasiparticles``, ``_dephasing`` (the T2* half
of ``fitting``), ``parity``, ``device`` and ``datasets``: NaN and
infinities fail it with a :class:`DomainError`
naming the argument.  An integer argument is valid when it is an
``int`` or numpy integer, not a bool, inside its range; :func:`integer`
holds that rule for the transmon's cutoff ``n_cut``, level counts,
transition indices and shift levels, a trace's initial parity, a scan's
``n_freq`` and the seeds of the simulators and synthetic datasets.
Array, list and ordering rules, gap segments (:class:`GeometryError`)
and an infinite T1 in the T2 budget (a zero rate) are checked where they
are used; unit conversions check nothing.
"""

import math

import numpy as np


class QpgapError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QpgapError, ValueError):
    """An argument lies outside the physical domain of an operation."""


class BracketError(DomainError):
    """A bracket or search window holds no root of the equation."""


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


def integer(name: str, value: int, low: int, high: int | None = None) -> None:
    """Raise :class:`DomainError` unless ``value`` is an ``int`` or numpy
    integer, not a bool, from ``low`` to ``high`` (no upper end if None).

    A float would reach an array size or an index unrounded, and a bool
    would read as 0 or 1.
    """
    if (type(value) is int or isinstance(value, np.integer)) and (
        low <= value and (high is None or value <= high)
    ):
        return
    span = f">= {low}" if high is None else f"from {low} to {high}"
    raise DomainError(f"{name} must be an integer {span}, got {value!r}")
