"""Thermal occupation functions, the thermal crossover and the BCS gap
relation (which lives in :mod:`qpgap.units` and is re-exported here).

The crossover is solved in closed form through the Lambert W function,
with no root finding."""

from __future__ import annotations

import math

from .errors import BracketError, DomainError, non_negative, positive
# the gap relation lives in .units, beside the BCS ratio
from .units import CONSTANTS, delta_from_tc

# Above this ratio hf/kBT the Bose denominator exp(x)-1 equals exp(x) to
# better than double precision, so the log-space branch is exact.
_LARGE_EXPONENT = 40.0

_CROSSOVER_T_MIN = 0.010

# The crossover T* = 2 Delta / W0(z) reaches Delta/2 at W0 = 4, that is at
# ln z = W0 + ln W0 = ln 4 + 4
_LN_Z_HALF_GAP = math.log(4.0) + 4.0


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

    Solved in closed form on [10 mK, Delta/2] (see
    :func:`thermal_crossover`); raises a bracket error when the thermal
    curve does not cross ``x_nqp`` inside that window.
    """
    positive("x_nqp", x_nqp)
    t_cross = thermal_crossover(x_nqp, delta_kelvin)
    if t_cross is None:
        raise BracketError(
            f"no thermal crossover on [{_CROSSOVER_T_MIN}, "
            f"{delta_kelvin / 2.0:.6g}] K for x_nqp = {x_nqp:.6g}"
        )
    return t_cross


def thermal_crossover(x_nqp: float, delta_kelvin: float) -> float | None:
    """The crossover temperature, or None where there is none to report.

    With r = Delta/T the crossing sqrt(2 pi/r) e^(-r) = x_nqp reads
    2r e^(2r) = z = 4 pi/x_nqp^2, so T = 2 Delta/W0(z).  None at
    x_nqp = 0, which the thermal fraction exceeds at every temperature,
    and where T lies outside [10 mK, Delta/2].  Invalid magnitudes and,
    at x_nqp above 0, a gap too small for the window still raise.
    """
    non_negative("x_nqp", x_nqp)
    positive("delta", delta_kelvin)
    if not x_nqp:
        return None
    if delta_kelvin / 2.0 <= _CROSSOVER_T_MIN:
        raise DomainError(
            f"crossover search needs Delta/2 above the "
            f"{_CROSSOVER_T_MIN * 1e3:g} mK floor, got Delta = "
            f"{delta_kelvin:.6g} K"
        )
    # ln z in log space: x_nqp**2 underflows below about 1e-154
    ln_z = math.log(4.0 * math.pi) - 2.0 * math.log(x_nqp)
    if ln_z < _LN_Z_HALF_GAP:
        return None
    # W0(z) solves w + ln w = ln z: Halley steps from the asymptotic start
    # ln z - ln ln z, which ln z >= ln 4 + 4 keeps above 3.6; two steps
    # reach a relative error of about 1e-15, four the fixed point
    w = ln_z - math.log(ln_z)
    for _ in range(4):
        f = w + math.log(w) - ln_z
        w -= f / (1.0 + 1.0 / w + f / (2.0 * w * (w + 1.0)))
    t_cross = 2.0 * float(delta_kelvin) / w
    return t_cross if t_cross >= _CROSSOVER_T_MIN else None
