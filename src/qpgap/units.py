"""Physical constants, energy-unit conversions and the BCS gap relation.

All conversion factors derive from the exact 2019 SI defining constants,
so forward and inverse conversions are reciprocal to machine precision.
Every other module takes its physical constants from here; no conversion
factor is written out anywhere else in the package.  The gap relation
:func:`delta_from_tc` lives beside the ratio it reads, so the config
loader gives a stack segment its gap without loading :mod:`qpgap.thermal`,
which re-exports it.
"""

from __future__ import annotations

from ._record import Record
from .errors import positive

# 2019 SI exact values
_KB_J_PER_K = 1.380649e-23
_H_J_S = 6.62607015e-34
_E_COULOMB = 1.602176634e-19


class Constants(Record):
    """Conversion factors and the BCS gap ratio.

    Attributes
    ----------
    kB_over_h:
        Boltzmann constant over Planck constant, GHz per kelvin.
    h_over_kB:
        Inverse of ``kB_over_h``, kelvin per GHz.
    kB_in_eV:
        Boltzmann constant, eV per kelvin.
    RK:
        von Klitzing resistance h/e^2, ohm.
    bcs_ratio:
        Weak-coupling gap ratio Delta/(kB Tc) used by every module.
    """

    __slots__ = ("kB_over_h", "h_over_kB", "kB_in_eV", "RK", "bcs_ratio")
    _defaults = {
        "kB_over_h": _KB_J_PER_K / _H_J_S / 1e9,
        "h_over_kB": 1e9 * _H_J_S / _KB_J_PER_K,
        "kB_in_eV": _KB_J_PER_K / _E_COULOMB,
        "RK": _H_J_S / _E_COULOMB**2,
        "bcs_ratio": 1.764,
    }


CONSTANTS = Constants()


def kelvin_to_ghz(e_kelvin: float) -> float:
    """Convert an energy expressed in kelvin to a frequency (GHz)."""
    return e_kelvin * CONSTANTS.kB_over_h


def kelvin_to_ev(e_kelvin: float) -> float:
    """Convert an energy expressed in kelvin to electronvolt."""
    return e_kelvin * CONSTANTS.kB_in_eV


def delta_from_tc(tc_kelvin: float) -> float:
    """Superconducting gap (kelvin), ``CONSTANTS.bcs_ratio`` times the
    critical temperature ``tc_kelvin`` (positive and finite)."""
    positive("Tc", tc_kelvin)
    return CONSTANTS.bcs_ratio * tc_kelvin
