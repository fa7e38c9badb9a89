"""Quasiparticle densities, poisoning rates, and gap-profile geometry.

The spatial gap profile along the qubit electrodes is a piecewise-constant
sequence of superconducting segments with the Josephson junction sitting
on one segment boundary.  Gap steps between segments act as barriers (high
gap next to the junction) or traps (low gap next to the junction), and the
adequacy rules here size them against the quasiparticle relaxation and
diffusion scales.
"""

from __future__ import annotations

import math
import numpy as np

from ._record import Record
from .errors import (
    BracketError, DomainError, GeometryError, non_negative, positive
)
from .numerics import root_find
from .thermal import delta_from_tc, thermal_qp_term
from .units import CONSTANTS

DEFAULT_BASE_RATE = 1.0e3
# Thermal-activation prefactor calibrated so the engineered-gap device's
# parity lifetime crosses one 0.2 s measurement pixel near 150 mK.
DEFAULT_THERMAL_PREFACTOR = 3.4e7
# Effective quasiparticle temperature near the gap edge; calibration
# constant chosen so the default barrier suppresses the unprotected rate
# by six orders of magnitude.
DEFAULT_T_QP = 0.040

_CROSSOVER_T_MIN = 0.010


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


def profile_from_stack(
    segments: list[StackSegment] | tuple[StackSegment, ...],
    junction_index: int,
    table: ThicknessTcTable | None = None,
) -> GapProfile:
    """Build a :class:`GapProfile` from a fabrication stack.

    ``junction_index`` counts segments to the left of the junction, so it
    must satisfy 1 <= junction_index <= len(segments) - 1.
    """
    if not 1 <= junction_index <= len(segments) - 1:
        raise GeometryError(
            f"junction index {junction_index} leaves no segment on one side"
        )
    resolved = tuple(seg.resolve(table) for seg in segments)
    junction_um = sum(seg.length_um for seg in resolved[:junction_index])
    return GapProfile(resolved, junction_um)


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
        energies = [e for e, _ in self.tau_anchors]
        taus = [tau for _, tau in self.tau_anchors]
        if any(e <= 0 for e in energies) or any(t <= 0 for t in taus):
            raise DomainError("tau anchors must be positive")
        if any(b <= a for a, b in zip(energies, energies[1:])):
            raise DomainError("anchor energies must strictly increase")
        if any(b >= a for a, b in zip(taus, taus[1:])):
            raise DomainError("tau must strictly decrease with energy")


DEFAULT_ENVIRONMENT = QPEnvironment()


def tau_eps(energy_kelvin: float, env: QPEnvironment | None = None) -> float:
    """Quasiparticle energy-relaxation time (seconds) at an excess energy.

    Power-law interpolation between the anchors in log-log space; outside
    the anchor range the nearest segment's power law extrapolates.
    """
    env = env or DEFAULT_ENVIRONMENT
    positive("energy", energy_kelvin)
    log_e = np.log([e for e, _ in env.tau_anchors])
    log_tau = np.log([tau for _, tau in env.tau_anchors])
    x = math.log(energy_kelvin)
    if x <= log_e[0]:
        slope = (log_tau[1] - log_tau[0]) / (log_e[1] - log_e[0])
        return math.exp(log_tau[0] + slope * (x - log_e[0]))
    if x >= log_e[-1]:
        slope = (log_tau[-1] - log_tau[-2]) / (log_e[-1] - log_e[-2])
        return math.exp(log_tau[-1] + slope * (x - log_e[-1]))
    return math.exp(float(np.interp(x, log_e, log_tau)))


def diffusion_length(
    energy_kelvin: float, env: QPEnvironment | None = None
) -> float:
    """Diffusion length L = sqrt(D tau(E)) in micrometers."""
    env = env or DEFAULT_ENVIRONMENT
    tau = tau_eps(energy_kelvin, env)
    return math.sqrt(env.diffusion_m2_per_s * tau) * 1e6


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


def nqp_decay_rate(
    ej_ghz: float,
    ec_ghz: float,
    f_ge_ghz: float,
    delta_ghz: float,
    x_qp: float,
) -> float:
    """Qubit energy relaxation rate (1/s) from a quasiparticle fraction.

    Gamma = 32 EJ sqrt(Delta / 2 f_ge) sqrt(EC / 8 EJ) x_qp with all
    energies converted to Hz.
    """
    positive("EJ", ej_ghz)
    positive("EC", ec_ghz)
    positive("f_ge", f_ge_ghz)
    positive("delta", delta_ghz)
    non_negative("x_qp", x_qp)
    ej_hz = ej_ghz * 1e9
    return (
        32.0
        * ej_hz
        * math.sqrt(delta_ghz / (2.0 * f_ge_ghz))
        * math.sqrt(ec_ghz / (8.0 * ej_ghz))
        * x_qp
    )


def x_qp_from_rate(
    rate_per_s: float,
    ej_ghz: float,
    ec_ghz: float,
    f_ge_ghz: float,
    delta_ghz: float,
) -> float:
    """Quasiparticle fraction that produces a given relaxation rate."""
    non_negative("rate", rate_per_s)
    unit = nqp_decay_rate(ej_ghz, ec_ghz, f_ge_ghz, delta_ghz, 1.0)
    return rate_per_s / unit


def volume_density(
    x_qp: float, nu0_per_ev_um3: float, delta_ev: float
) -> float:
    """Quasiparticle volume density n = x 2 nu0 Delta, per cubic micrometer."""
    non_negative("x_qp", x_qp)
    positive("nu0", nu0_per_ev_um3)
    positive("delta", delta_ev)
    return x_qp * 2.0 * nu0_per_ev_um3 * delta_ev


def x_qp_from_density(
    n_per_um3: float, nu0_per_ev_um3: float, delta_ev: float
) -> float:
    """Quasiparticle fraction from a volume density (inverse of volume_density)."""
    non_negative("density", n_per_um3)
    positive("nu0", nu0_per_ev_um3)
    positive("delta", delta_ev)
    return n_per_um3 / (2.0 * nu0_per_ev_um3 * delta_ev)


# Panel edges of the gap-edge rule, as the fall of the Boltzmann exponent
# s (cosh u - 1) from the lower limit: geometric, the last past the point
# where exp underflows relative to the integrand at the lower limit.
_EDGE_PANELS = np.array([0.0, 1.0, 4.0, 16.0, 64.0, 256.0, 745.0])
# Below this Delta/T the first panel spans over 70 in u, where cosh(u)
# outgrows the rule: the 48- and 64-node rules then differ by over 1e-12.
_MIN_GAP_OVER_T = 1e-30
# The 64-node Gauss-Legendre rule on [-1, 1], bit for bit numpy's
# leggauss(64), which is symmetric: its 32 non-negative nodes and their
# weights as float.hex literals, so that no run imports numpy.polynomial.
_EDGE_HALF_RULE = (
    ("0x1.8ef487a8cbc32p-6", "0x1.8ee0567ee2e5dp-5"),
    ("0x1.2afad5ee95ad0p-4", "0x1.8dee238192cdcp-5"),
    ("0x1.f182ff48e8a26p-4", "0x1.8c0a5097676c0p-5"),
    ("0x1.5b6e88ad5c00fp-3", "0x1.89360387fe3b9p-5"),
    ("0x1.bd489b79ec83bp-3", "0x1.8572f41fbb53dp-5"),
    ("0x1.0f0a26c56e49cp-2", "0x1.80c36b24bdd21p-5"),
    ("0x1.3ecb6c46c76cbp-2", "0x1.7b2a40f3ccde2p-5"),
    ("0x1.6dcb1f0620fffp-2", "0x1.74aadbc614fb9p-5"),
    ("0x1.9becb55272c9dp-2", "0x1.6d492da0c2510p-5"),
    ("0x1.c9142c5898fc5p-2", "0x1.6509b1efb8dfcp-5"),
    ("0x1.f52619257c3a1p-2", "0x1.5bf16accdf431p-5"),
    ("0x1.1003dca600f34p-1", "0x1.5205ddf5a36e2p-5"),
    ("0x1.24cf81925487fp-1", "0x1.474d117092830p-5"),
    ("0x1.38e95ace7b3c3p-1", "0x1.3bcd87e50de1ep-5"),
    ("0x1.4c4533c68b412p-1", "0x1.2f8e3ca7574e3p-5"),
    ("0x1.5ed74b4532f83p-1", "0x1.22969f7b5c8bdp-5"),
    ("0x1.70945a96f12c4p-1", "0x1.14ee9010d92e3p-5"),
    ("0x1.81719c62ec68ep-1", "0x1.069e593b92368p-5"),
    ("0x1.9164d335425e2p-1", "0x1.ef5d57d53b4b8p-6"),
    ("0x1.a0644fb6d8db8p-1", "0x1.d05133c3af946p-6"),
    ("0x1.ae66f68eedbc6p-1", "0x1.b02b2071c0c76p-6"),
    ("0x1.bb6445eadae2cp-1", "0x1.8efea34684612p-6"),
    ("0x1.c7545aa8c0dadp-1", "0x1.6cdfe10bba36ep-6"),
    ("0x1.d22ff5221288ap-1", "0x1.49e391bd2143cp-6"),
    ("0x1.dbf07d935a5afp-1", "0x1.261ef40a7a2d6p-6"),
    ("0x1.e490081f2891bp-1", "0x1.01a7c0a5c98d9p-6"),
    ("0x1.ec09586b58faap-1", "0x1.b9283b35df8d9p-7"),
    ("0x1.f257e4db5aabcp-1", "0x1.6df524de84deap-7"),
    ("0x1.f777d976cfadap-1", "0x1.21e400109d33cp-7"),
    ("0x1.fb661ac8c85a9p-1", "0x1.aa46b24145aa3p-8"),
    ("0x1.fe204ab274eccp-1", "0x1.0fc7ac3ac3b55p-8"),
    ("0x1.ffa4e911f7533p-1", "0x1.d379f1845dadfp-10"),
)


def _symmetric_rule(half) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of a rule from its non-negative half."""
    nodes, weights = np.array(
        [[float.fromhex(x), float.fromhex(w)] for x, w in half]
    ).T
    nodes = np.concatenate([-nodes[::-1], nodes])
    weights = np.concatenate([weights[::-1], weights])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


_EDGE_RULE = _symmetric_rule(_EDGE_HALF_RULE)


def _gap_edge_integrals(
    scale: float, excess, rule: tuple = _EDGE_RULE
) -> np.ndarray:
    """I(u0) = integral_u0^inf cosh(u) exp(-s (cosh u - 1)) du, s = ``scale``.

    E = Delta cosh(u) turns exp(Delta/T) integral_E0^inf rho(E) exp(-E/T) dE
    into Delta I(u0), removing the inverse square-root singularity at the
    gap edge; I(0) = e^s K1(s) (DLMF 10.32.9).  ``excess`` holds the
    cosh(u0) - 1 = (E0 - Delta)/Delta of each lower limit.  One composite
    Gauss-Legendre ``rule`` (nodes, weights) per panel integrates every
    limit at once; its panels start at u0, with edges where the Boltzmann
    exponent has fallen by 1, 4, 16, 64, 256 and 745.  Writing
    cosh u - 1 = 2 sinh^2(u/2) keeps the exponent exact near the gap edge.
    """
    if scale < _MIN_GAP_OVER_T:
        raise DomainError(
            f"Delta/T_qp = {scale:.3e} is below {_MIN_GAP_OVER_T:g}"
        )
    nodes, weights = rule
    excesses = np.asarray(excess, float)[:, None] + _EDGE_PANELS / scale
    bounds = 2.0 * np.arcsinh(np.sqrt(excesses / 2.0))
    mid = 0.5 * (bounds[:, 1:] + bounds[:, :-1])
    half = 0.5 * (bounds[:, 1:] - bounds[:, :-1])
    u = mid[..., None] + half[..., None] * nodes
    q = 2.0 * np.sinh(0.5 * u) ** 2
    panels = ((1.0 + q) * np.exp(-scale * q)) @ weights
    return np.sum(half * panels, axis=1)


def above_barrier_fraction(
    delta_delta_k: float, t_qp_kelvin: float, delta_kelvin: float
) -> float:
    """Fraction of thermalized quasiparticles with energy above a gap step.

    Quasiparticles occupy the BCS density of states above ``delta_kelvin``
    with a Boltzmann factor at ``t_qp_kelvin``; the fraction above
    Delta + delta_delta is the part that can cross a barrier of height
    ``delta_delta_k``.  A zero step returns exactly 1.  Numerator and
    normalization (Delta e^s K1(s), s = Delta/T) come from one quadrature
    rule, :func:`_gap_edge_integrals`.
    """
    non_negative("gap step", delta_delta_k)
    positive("T_qp", t_qp_kelvin)
    positive("delta", delta_kelvin)
    if delta_delta_k == 0.0:
        return 1.0
    above, total = _gap_edge_integrals(
        delta_kelvin / t_qp_kelvin, [delta_delta_k / delta_kelvin, 0.0]
    )
    return float(above / total)


class SideVerdict(Record):
    """Geometry verdict for one side of the junction."""

    __slots__ = ("side", "adjacent_delta_k", "delta_delta_k", "length_um",
                 "required_um", "adequate")

    @property
    def margin(self) -> float:
        """Available length over required length (0 when nothing is required)."""
        if self.required_um == 0.0:
            return math.inf if self.adequate else 0.0
        return self.length_um / self.required_um


class GeometryVerdict(Record):
    """Both per-side verdicts plus the combined adequacy rule."""

    __slots__ = ("left", "right", "adequate")


def _grade_sides(profile: GapProfile, rule, combine) -> GeometryVerdict:
    """Both sides' verdicts from one per-side ``rule``, joined by ``combine``.

    ``rule(segments)`` takes one side's segments, junction-adjacent first,
    and returns that side's gap step, length, required length and
    adequacy; ``combine`` (``any`` or ``all``) joins the two adequacies.
    """
    sides = []
    for side in ("left", "right"):
        segments = profile.side_segments(side)
        sides.append(SideVerdict(side, segments[0].delta_k, *rule(segments)))
    left, right = sides
    return GeometryVerdict(
        left, right, combine((left.adequate, right.adequate))
    )


def barrier_adequate(
    profile: GapProfile,
    env: QPEnvironment | None = None,
    safety_factor: float = 5.0,
) -> GeometryVerdict:
    """Check whether the junction is protected by a gap barrier.

    A side protects the junction when its junction-adjacent segment has
    the higher of the two adjacent gaps, rises by a positive step over
    that side's minimum gap, and is at least ``safety_factor`` coherence
    lengths long.  One protected side suffices: the raised gap blocks
    low-energy tunneling in both directions.
    """
    env = env or DEFAULT_ENVIRONMENT
    positive("safety factor", safety_factor)
    required = safety_factor * env.xi_um
    adjacent_max = max(profile.adjacent_deltas())

    def rule(segments):
        adjacent = segments[0]
        step = adjacent.delta_k - min(seg.delta_k for seg in segments)
        adequate = (
            adjacent.delta_k >= adjacent_max
            and step > 0.0
            and adjacent.length_um >= required
        )
        return step, adjacent.length_um, required, adequate

    return _grade_sides(profile, rule, any)


def trap_adequate(
    profile: GapProfile, env: QPEnvironment | None = None
) -> GeometryVerdict:
    """Check whether the junction is protected by quasiparticle traps.

    Traps require a lowered-gap segment adjoining the junction on BOTH
    sides, each at least one diffusion length (at the local gap step) long
    so that an entering quasiparticle relaxes before reaching the junction.
    """
    env = env or DEFAULT_ENVIRONMENT

    def rule(segments):
        adjacent = segments[0]
        step = max(seg.delta_k for seg in segments) - adjacent.delta_k
        if not step > 0.0:
            return step, adjacent.length_um, math.inf, False
        required = diffusion_length(step, env)
        return step, adjacent.length_um, required, adjacent.length_um >= required

    return _grade_sides(profile, rule, all)


def parity_rate_model(
    profile: GapProfile,
    env: QPEnvironment | None = None,
    t_kelvin: float = 0.025,
    base_rate_per_s: float = DEFAULT_BASE_RATE,
    thermal_prefactor_per_s: float = DEFAULT_THERMAL_PREFACTOR,
) -> float:
    """Charge-parity switching rate (1/s) for a gap profile.

    The unprotected base rate is suppressed by the fraction of
    quasiparticles energetic enough to cross the weakest protecting gap
    step, and a thermally activated term (prefactor calibrated, not
    predicted) takes over as the bath temperature rises.  Without a
    protecting barrier the full base rate applies.
    """
    env = env or DEFAULT_ENVIRONMENT
    non_negative("base rate", base_rate_per_s)
    non_negative("thermal prefactor", thermal_prefactor_per_s)
    verdict = barrier_adequate(profile, env)
    steps = [
        side.delta_delta_k
        for side in (verdict.left, verdict.right)
        if side.adequate
    ]
    weakest_step = min(steps) if steps else 0.0
    junction_delta = profile.junction_delta_k
    barrier_term = base_rate_per_s * above_barrier_fraction(
        weakest_step, env.t_qp_kelvin, junction_delta
    )
    thermal_term = thermal_prefactor_per_s * thermal_qp_term(
        t_kelvin, junction_delta
    )
    return barrier_term + thermal_term


def delta_ev_from_tc(tc_kelvin: float) -> float:
    """Gap in eV from Tc, composing the BCS relation with unit conversion."""
    return delta_from_tc(tc_kelvin) * CONSTANTS.kB_in_eV
