"""Thermal occupation functions, the thermal crossover and the BCS gap
relation (which lives in :mod:`qpgap.units` and is re-exported here)."""

from __future__ import annotations

import math

from .errors import BracketError, DomainError, non_negative, positive
from .numerics import root_find
# the gap relation lives in .units, beside the BCS ratio
from .units import CONSTANTS, delta_from_tc

# Above this ratio hf/kBT the Bose denominator exp(x)-1 equals exp(x) to
# better than double precision, so the log-space branch is exact.
_LARGE_EXPONENT = 40.0

_CROSSOVER_T_MIN = 0.010


def bose_occupation(f_ghz: float, t_kelvin: float) -> float:
    """Bose-Einstein occupation of a mode at ``f_ghz`` and bath ``t_kelvin``.

    Evaluated in log space for large hf/kBT so that occupations far below
    1e-100 come back as accurate subnormals instead of overflowing.
    """
    positive("frequency", f_ghz)
    positive("temperature", t_kelvin)
    x = f_ghz * CONSTANTS.h_over_kB / t_kelvin
    if x > _LARGE_EXPONENT:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def temperature_from_population(f_ghz: float, p_excited: float) -> float:
    """Effective temperature (kelvin) from a two-level excited population.

    Inverts p = 1 / (1 + exp(hf/kBT)); only populations strictly between
    0 and 1/2 correspond to a finite positive temperature.
    """
    positive("frequency", f_ghz)
    if not 0.0 < p_excited < 0.5:
        raise DomainError(
            f"excited population must lie in (0, 0.5), got {p_excited}"
        )
    return f_ghz * CONSTANTS.h_over_kB / math.log(1.0 / p_excited - 1.0)


def temperature_from_occupation(f_ghz: float, n_th: float) -> float:
    """Effective temperature (kelvin) from a Bose occupation number."""
    positive("frequency", f_ghz)
    positive("occupation", n_th)
    return f_ghz * CONSTANTS.h_over_kB / math.log1p(1.0 / n_th)


def thermal_qp_term(t_kelvin: float, delta_kelvin: float) -> float:
    """Thermal-equilibrium quasiparticle fraction sqrt(2 pi T/Delta) e^(-Delta/T)."""
    positive("temperature", t_kelvin)
    positive("delta", delta_kelvin)
    # Python floats: a subnormal ratio overflows 2 pi/ratio to inf quietly,
    # where a numpy scalar would print a RuntimeWarning
    ratio = float(delta_kelvin) / float(t_kelvin)
    return math.sqrt(2.0 * math.pi / ratio) * math.exp(-ratio)


def thermal_qp_fraction(
    t_kelvin: float, delta_kelvin: float, x_nqp: float = 0.0
) -> float:
    """Total quasiparticle fraction: non-equilibrium floor plus thermal term."""
    non_negative("x_nqp", x_nqp)
    return x_nqp + thermal_qp_term(t_kelvin, delta_kelvin)


def crossover_temperature(x_nqp: float, delta_kelvin: float) -> float:
    """Temperature (kelvin) where the thermal fraction equals ``x_nqp``.

    Searches [10 mK, Delta/2]; raises a bracket error when the thermal
    curve does not cross ``x_nqp`` inside that window.
    """
    positive("x_nqp", x_nqp)
    positive("delta", delta_kelvin)
    if delta_kelvin / 2.0 <= _CROSSOVER_T_MIN:
        raise DomainError(
            f"crossover search needs Delta/2 above the "
            f"{_CROSSOVER_T_MIN * 1e3:g} mK floor, got Delta = "
            f"{delta_kelvin:.6g} K"
        )
    return root_find(
        lambda t: thermal_qp_term(t, delta_kelvin) - x_nqp,
        _CROSSOVER_T_MIN,
        delta_kelvin / 2.0,
        abs_tol=1e-10,
    )


def thermal_crossover(x_nqp: float, delta_kelvin: float) -> float | None:
    """The crossover temperature, or None where there is none to report.

    None at x_nqp = 0, which the thermal fraction exceeds at every
    temperature, and where the thermal curve does not cross ``x_nqp``
    inside [10 mK, Delta/2].  Invalid magnitudes and a gap too small for
    the window still raise.
    """
    non_negative("x_nqp", x_nqp)
    try:
        return crossover_temperature(x_nqp, delta_kelvin) if x_nqp else None
    except BracketError:
        return None
