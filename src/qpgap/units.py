"""Physical constants and energy-unit conversions.

All conversion factors derive from the exact 2019 SI defining constants,
so forward and inverse conversions are reciprocal to machine precision.
Every other module takes its physical constants from here; no conversion
factor is written out anywhere else in the package.
"""

from __future__ import annotations

from ._record import Record
from .errors import DomainError

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
        Weak-coupling gap ratio Delta/(kB Tc) used by every module;
        ``thermal.delta_from_tc`` also takes an explicit ratio.
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

_UNITS = ("GHz", "K", "eV")


def kelvin_to_ghz(e_kelvin: float) -> float:
    """Convert an energy expressed in kelvin to a frequency (GHz)."""
    return e_kelvin * CONSTANTS.kB_over_h


def kelvin_to_ev(e_kelvin: float) -> float:
    """Convert an energy expressed in kelvin to electronvolt."""
    return e_kelvin * CONSTANTS.kB_in_eV


_TO_KELVIN = {
    "GHz": lambda x: x * CONSTANTS.h_over_kB,
    "K": lambda x: x,
    "eV": lambda x: x / CONSTANTS.kB_in_eV,
}
_FROM_KELVIN = {"GHz": kelvin_to_ghz, "K": lambda x: x, "eV": kelvin_to_ev}


class EnergyValue(Record):
    """An energy tagged with its unit ("GHz", "K", or "eV")."""

    __slots__ = ("value", "unit")

    def _check(self) -> None:
        if self.unit not in _UNITS:
            raise DomainError(
                f"unknown energy unit {self.unit!r}; expected one of {_UNITS}"
            )

    def to(self, unit: str) -> "EnergyValue":
        """Return the same energy expressed in ``unit``."""
        if unit not in _UNITS:
            raise DomainError(
                f"unknown energy unit {unit!r}; expected one of {_UNITS}"
            )
        kelvin = _TO_KELVIN[self.unit](self.value)
        return EnergyValue(_FROM_KELVIN[unit](kelvin), unit)
