"""BCS gap relations and thermal occupation functions."""

from __future__ import annotations

import math

from .errors import DomainError, positive
from .units import CONSTANTS

# Above this ratio hf/kBT the Bose denominator exp(x)-1 equals exp(x) to
# better than double precision, so the log-space branch is exact.
_LARGE_EXPONENT = 40.0


def delta_from_tc(tc_kelvin: float, bcs_ratio: float | None = None) -> float:
    """Superconducting gap (kelvin) from the critical temperature.

    Parameters
    ----------
    tc_kelvin:
        Critical temperature in kelvin, > 0.
    bcs_ratio:
        Gap ratio Delta/(kB Tc); defaults to the weak-coupling value.
    """
    positive("Tc", tc_kelvin)
    ratio = CONSTANTS.bcs_ratio if bcs_ratio is None else bcs_ratio
    positive("bcs_ratio", ratio)
    return ratio * tc_kelvin


def bcs_dos(energy: float, delta: float) -> float:
    """Normalized BCS quasiparticle density of states.

    Returns E/sqrt(E^2 - Delta^2) for E > Delta and 0 at or below the
    gap edge.  ``energy`` and ``delta`` must share one unit.
    """
    positive("delta", delta)
    if energy <= delta:
        return 0.0
    return energy / math.sqrt(energy * energy - delta * delta)


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


def two_level_population(f_ghz: float, t_kelvin: float) -> float:
    """Thermal excited-state population of a two-level system."""
    positive("frequency", f_ghz)
    positive("temperature", t_kelvin)
    x = f_ghz * CONSTANTS.h_over_kB / t_kelvin
    if x > _LARGE_EXPONENT:
        return math.exp(-x)
    return 1.0 / (1.0 + math.exp(x))


def temperature_from_population(f_ghz: float, p_excited: float) -> float:
    """Effective temperature (kelvin) from a two-level excited population.

    Inverts :func:`two_level_population`; only populations strictly
    between 0 and 1/2 correspond to a finite positive temperature.
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
