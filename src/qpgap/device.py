"""The records a device config holds, with their checks and defaults.

A config's transmon, its readout cavity and frequency targets, the gap
profile and the stack it is built from, the quasiparticle environment
and the noise rates are records of this module.  Of the physics it
imports only the BCS relation of :mod:`qpgap.units`, which gives a stack
segment its gap, so the config loader builds a device without compiling
the thermal functions, the root finder, the eigensolver, the gap-edge
quadrature or the parity simulator;
:mod:`qpgap.transmon`, :mod:`qpgap.quasiparticles` and
:mod:`qpgap.parity` re-export the names they compute with.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .errors import (
    DomainError, GeometryError, UnderdeterminedError, integer, non_negative,
    positive,
)
from .units import delta_from_tc

DEFAULT_TLS_RATE = 1.0 / 180.0
DEFAULT_PIXEL_SECONDS = 0.2
# The most scan samples one input may ask for: pixels x n_freq, 8 bytes
# each in the amplitude array, about 12 bytes each in scan.csv.  The
# shipped configs stay far below it (a 1000 s scan at 161 frequencies is
# 805k samples).
MAX_SCAN_SAMPLES = 20_000_000
# Effective quasiparticle temperature near the gap edge; calibration
# constant chosen so the default barrier suppresses the unprotected rate
# by six orders of magnitude.
DEFAULT_T_QP = 0.040

_MIN_CUT = 10

# Largest EJ/EC accepted: the charge basis grows as sqrt(EJ/EC), and at
# this ratio it already holds about 11k states (effective_n_cut ~ 5.6k).
MAX_EJ_OVER_EC = 1e7
# Largest n_cut accepted: the automatic cutoff at MAX_EJ_OVER_EC (5601),
# so a requested cutoff asks for no larger basis than EJ/EC may.
MAX_N_CUT = math.ceil(5.0 * math.sqrt(MAX_EJ_OVER_EC / 8.0)) + _MIN_CUT


class TransmonParams(Record):
    """Transmon parameters in GHz with offset charge in 2e units.

    Parameters
    ----------
    EJ:
        Josephson energy in GHz, finite and >= 0.
    EC:
        Charging energy in GHz, finite and > 0, with EJ/EC at most
        ``MAX_EJ_OVER_EC``.
    ng:
        Dimensionless offset charge in Cooper-pair units, finite.
    n_cut:
        Requested charge-basis cutoff, an integer from 0 to
        ``MAX_N_CUT``.  The effective cutoff is raised automatically when
        this is too small for converged spectra.
    """

    __slots__ = ("EJ", "EC", "ng", "n_cut")

    def __init__(self, EJ: float, EC: float, ng: float = 0.0, n_cut: int = 0):
        _fill(self, EJ, EC, ng, n_cut)
        non_negative("EJ", EJ)
        positive("EC", EC)
        if self.EJ > MAX_EJ_OVER_EC * self.EC:
            raise DomainError(
                f"EJ/EC must be at most {MAX_EJ_OVER_EC:g}, got EJ = "
                f"{self.EJ} GHz and EC = {self.EC} GHz"
            )
        _check_ng(ng)
        integer("n_cut", n_cut, 0, MAX_N_CUT)

    @property
    def effective_n_cut(self) -> int:
        """Charge cutoff actually used: ceil(5 sqrt(EJ/8EC)) + 10 or larger."""
        auto = math.ceil(5.0 * math.sqrt(self.EJ / (8.0 * self.EC))) + _MIN_CUT
        return max(self.n_cut, auto)

    def with_ng(self, ng: float) -> "TransmonParams":
        """This record at offset charge ``ng``.

        Only ng is checked: EJ, EC and n_cut passed this record's checks.
        """
        _check_ng(ng)
        return _fill(object.__new__(TransmonParams), self.EJ, self.EC, ng,
                     self.n_cut)


def _fill(record: TransmonParams, EJ, EC, ng, n_cut) -> TransmonParams:
    """Set the fields of a new :class:`TransmonParams`, without checks."""
    # one by one, not through _assign: a record per solve, and the loop
    # in _assign costs about 1 us more
    set_field = object.__setattr__
    set_field(record, "EJ", EJ)
    set_field(record, "EC", EC)
    set_field(record, "ng", ng)
    set_field(record, "n_cut", n_cut)
    return record


def _check_ng(ng: float) -> None:
    if not math.isfinite(ng):
        raise DomainError(f"ng must be finite, got {ng}")


class CavityCoupling(Record):
    """Readout cavity parameters: g in MHz, nu_r in GHz, loaded quality factor."""

    __slots__ = ("g_mhz", "nu_r_ghz", "q_loaded")

    def _check(self) -> None:
        positive("g", self.g_mhz)
        positive("nu_r", self.nu_r_ghz)
        positive("Q", self.q_loaded)

    @property
    def kappa_mhz(self) -> float:
        """Cavity linewidth nu_r/Q in MHz."""
        return self.nu_r_ghz / self.q_loaded * 1e3


class FrequencyTargets(Record):
    """Measured transition frequencies (GHz) used to infer EJ and EC.

    ``f_ge_ng0`` is required.  ``f_ge_ng05`` is the ge frequency at the
    opposite charge sweet spot; ``f_ef`` is the ef frequency at ng = 0.
    At least one of the two optional targets must be present.
    """

    __slots__ = ("f_ge_ng0", "f_ge_ng05", "f_ef")
    _defaults = {"f_ge_ng05": None, "f_ef": None}

    def _check(self) -> None:
        positive("f_ge", self.f_ge_ng0)
        if self.f_ge_ng05 is None and self.f_ef is None:
            raise UnderdeterminedError(
                "a single ge frequency cannot determine both EJ and EC; "
                "provide f_ge_ng05 or f_ef"
            )
        if self.f_ge_ng05 is not None:
            positive("f_ge_ng05", self.f_ge_ng05)
            dispersion = abs(self.f_ge_ng0 - self.f_ge_ng05)
            if dispersion >= min(self.f_ge_ng0, self.f_ge_ng05):
                raise DomainError(
                    "inconsistent targets: charge dispersion "
                    f"{dispersion:.4g} GHz is not small against the ge "
                    "frequency"
                )
        if self.f_ef is not None:
            positive("f_ef", self.f_ef)
            if self.f_ef >= self.f_ge_ng0:
                raise DomainError(
                    "inconsistent targets: f_ef must lie below f_ge "
                    "(transmon anharmonicity is negative)"
                )


def _check_pairs(name: str, pairs) -> None:
    """Raise :class:`DomainError` unless each entry of ``pairs`` is a pair
    of finite numbers, the rule the config loader applies to its anchors."""
    for pair in pairs:
        try:
            finite = len(pair) == 2 and all(map(math.isfinite, pair))
        except TypeError:  # not a sequence, or not numbers
            finite = False
        if not finite:
            raise DomainError(f"{name} must be pairs of finite numbers, "
                              f"got {pair!r}")


class ThicknessTcTable(Record):
    """Clamped piecewise-linear map from film thickness to Tc.

    Anchors are (thickness_nm, tc_kelvin) pairs, strictly increasing in
    thickness and non-increasing in Tc (thinner aluminum has the higher
    critical temperature).  Thicknesses outside the anchor range clamp to
    the nearest anchor.
    """

    __slots__ = ("anchors",)
    _defaults = {"anchors": ((25.0, 1.6), (40.0, 1.3))}

    def _check(self) -> None:
        if len(self.anchors) < 2:
            raise DomainError("thickness table needs at least two anchors")
        _check_pairs("thickness table anchors", self.anchors)
        thicknesses = [t for t, _ in self.anchors]
        tcs = [tc for _, tc in self.anchors]
        if any(t <= 0 for t in thicknesses) or any(tc <= 0 for tc in tcs):
            raise DomainError("table anchors must be positive")
        if any(b <= a for a, b in zip(thicknesses, thicknesses[1:])):
            raise DomainError("anchor thicknesses must strictly increase")
        if any(b > a for a, b in zip(tcs, tcs[1:])):
            raise DomainError("Tc must be non-increasing with thickness")

    def tc(self, thickness_nm: float) -> float:
        """Critical temperature (kelvin) for a film of given thickness."""
        positive("thickness", thickness_nm)
        thicknesses = [t for t, _ in self.anchors]
        tcs = [tc for _, tc in self.anchors]
        return float(np.interp(thickness_nm, thicknesses, tcs))


DEFAULT_THICKNESS_TABLE = ThicknessTcTable()


def tc_from_thickness(
    thickness_nm: float, table: ThicknessTcTable | None = None
) -> float:
    """Critical temperature (kelvin) from film thickness via the table."""
    return (table or DEFAULT_THICKNESS_TABLE).tc(thickness_nm)


class GapSegment(Record):
    """One homogeneous superconducting segment: length (um) and gap (kelvin)."""

    __slots__ = ("length_um", "delta_k")

    def _check(self) -> None:
        if not 0 < self.length_um < math.inf:
            raise GeometryError(
                f"segment length must be positive and finite, got {self.length_um}"
            )
        if not 0 < self.delta_k < math.inf:
            raise GeometryError(
                f"segment gap must be positive and finite, got {self.delta_k}"
            )


class GapProfile(Record):
    """Piecewise-constant gap along the electrodes with one junction.

    ``junction_um`` must coincide with an interior segment boundary, so at
    least one segment lies on each side of the junction.
    """

    __slots__ = ("segments", "junction_um")

    def _check(self) -> None:
        if len(self.segments) < 2:
            raise GeometryError("profile needs at least two segments")
        if not all(isinstance(seg, GapSegment) for seg in self.segments):
            raise GeometryError("profile segments must be GapSegment records")
        self.junction_index  # raises when the junction is off a boundary

    def boundaries_um(self) -> list[float]:
        """Cumulative segment boundaries, starting at 0."""
        edges = [0.0]
        for seg in self.segments:
            edges.append(edges[-1] + seg.length_um)
        return edges

    @property
    def junction_index(self) -> int:
        """Number of segments to the left of the junction."""
        edges = self.boundaries_um()
        tol = 1e-9 * max(1.0, edges[-1])
        for i in range(1, len(edges) - 1):
            if abs(edges[i] - self.junction_um) <= tol:
                return i
        boundaries = ", ".join(f"{b:g}" for b in edges[1:-1])
        raise GeometryError(
            f"junction at {self.junction_um:g} um is not an interior "
            f"segment boundary (boundaries: {boundaries})"
        )

    def side_segments(self, side: str) -> tuple[GapSegment, ...]:
        """Segments on one side of the junction, junction-adjacent first."""
        index = self.junction_index
        if side == "left":
            return tuple(reversed(self.segments[:index]))
        if side == "right":
            return self.segments[index:]
        raise DomainError(f"side must be 'left' or 'right', got {side!r}")

    def adjacent_deltas(self) -> tuple[float, float]:
        """(left, right) gaps of the two segments meeting at the junction."""
        index = self.junction_index
        return self.segments[index - 1].delta_k, self.segments[index].delta_k

    @property
    def junction_delta_k(self) -> float:
        """Junction gap, taken as the smaller adjacent electrode gap."""
        return min(self.adjacent_deltas())


class StackSegment(Record):
    """Fabrication-stack segment: length plus thickness or an explicit gap."""

    __slots__ = ("length_um", "thickness_nm", "delta_k")
    _defaults = {"thickness_nm": None, "delta_k": None}

    def _check(self) -> None:
        if (self.thickness_nm is None) == (self.delta_k is None):
            raise GeometryError(
                "specify exactly one of thickness_nm or delta_K per segment"
            )

    def resolve(self, table: ThicknessTcTable | None = None) -> GapSegment:
        """The segment with its gap, from the thickness table if not given."""
        delta = self.delta_k
        if delta is None:
            delta = delta_from_tc(tc_from_thickness(self.thickness_nm, table))
        return GapSegment(self.length_um, delta)


class QPEnvironment(Record):
    """Quasiparticle environment: density, transport, and thermal scales.

    Attributes
    ----------
    x_nqp:
        Non-equilibrium quasiparticle fraction (dimensionless), >= 0.
    diffusion_m2_per_s:
        Quasiparticle diffusion constant.
    tau_anchors:
        (energy_kelvin, tau_seconds) anchors of the energy-relaxation
        time, at least two, with tau strictly decreasing in energy.
        Interpolation is a power law through adjacent anchors.
    xi_um:
        Coherence length, the thickness scale of a gap step.
    nu0_per_ev_um3:
        Single-spin density of states at the Fermi level.
    t_qp_kelvin:
        Effective quasiparticle temperature near the gap edge.
    """

    __slots__ = (
        "x_nqp", "diffusion_m2_per_s", "tau_anchors", "xi_um",
        "nu0_per_ev_um3", "t_qp_kelvin",
    )
    _defaults = {
        "x_nqp": 8.0e-7, "diffusion_m2_per_s": 0.01,
        "tau_anchors": ((0.5, 1.0e-5), (14.0, 1.0e-11)), "xi_um": 0.1,
        "nu0_per_ev_um3": 1.6e10, "t_qp_kelvin": DEFAULT_T_QP,
    }

    def _check(self) -> None:
        non_negative("x_nqp", self.x_nqp)
        positive("diffusion constant", self.diffusion_m2_per_s)
        positive("coherence length", self.xi_um)
        positive("density of states", self.nu0_per_ev_um3)
        positive("quasiparticle temperature", self.t_qp_kelvin)
        if len(self.tau_anchors) < 2:
            raise DomainError("tau_anchors needs at least two points")
        _check_pairs("tau_anchors", self.tau_anchors)
        energies = [e for e, _ in self.tau_anchors]
        taus = [tau for _, tau in self.tau_anchors]
        if any(e <= 0 for e in energies) or any(t <= 0 for t in taus):
            raise DomainError("tau anchors must be positive")
        if any(b <= a for a, b in zip(energies, energies[1:])):
            raise DomainError("anchor energies must strictly increase")
        if any(b >= a for a, b in zip(taus, taus[1:])):
            raise DomainError("tau must strictly decrease with energy")


DEFAULT_ENVIRONMENT = QPEnvironment()


class NoiseModel(Record):
    """Rates of the two noise processes acting on the qubit.

    ``gamma_parity_per_s`` is the charge-parity switching rate and
    ``tls_rate_per_s`` the offset-charge reconfiguration rate; each jump
    shifts ng by a uniform amount reduced modulo one Cooper pair.
    """

    __slots__ = ("gamma_parity_per_s", "tls_rate_per_s")
    _defaults = {"tls_rate_per_s": DEFAULT_TLS_RATE}

    def _check(self) -> None:
        non_negative("parity rate", self.gamma_parity_per_s)
        non_negative("TLS rate", self.tls_rate_per_s)
