import json
import math
import re

import numpy as np
import pytest
import scipy.special

from qpgap.config import load_device_document
from qpgap.errors import (
    BracketError,
    ConfigError,
    DomainError,
    GeometryError,
)
from qpgap.numerics import root_find
from qpgap.quasiparticles import (
    GapProfile,
    GapSegment,
    QPEnvironment,
    StackSegment,
    ThicknessTcTable,
    _gap_edge_integrals,
    above_barrier_fraction,
    barrier_adequate,
    crossover_temperature,
    delta_ev_from_tc,
    diffusion_length,
    nqp_decay_rate,
    parity_rate_model,
    profile_from_stack,
    tau_eps,
    tc_from_thickness,
    thermal_qp_fraction,
    trap_adequate,
    volume_density,
    x_qp_from_density,
    x_qp_from_rate,
)
from qpgap.thermal import delta_from_tc
from qpgap.transmon import TransmonParams, transition_frequency
from qpgap.units import kelvin_to_ev, kelvin_to_ghz

DELTA_130 = delta_from_tc(1.30)  # 2.2932 K
DELTA_131 = delta_from_tc(1.31)  # 2.31084 K
DELTA_160 = delta_from_tc(1.60)  # 2.8224 K


def _stack(underlayer_nm: float | None) -> list[StackSegment]:
    # bottom electrode (wide, optional underlayer), thin strip, top electrode
    bottom_nm = underlayer_nm if underlayer_nm is not None else 25.0
    return [
        StackSegment(20.0, thickness_nm=bottom_nm),
        StackSegment(3.0, thickness_nm=25.0),
        StackSegment(20.0, thickness_nm=60.0),
    ]


PROTECTED = profile_from_stack(_stack(40.0), 2)
UNPROTECTED = profile_from_stack(_stack(None), 2)


# ------------------------------------------------------------- densities


def test_crossover_temperature_matches_measured_value():
    t = crossover_temperature(8.0e-7, DELTA_131)
    assert t == pytest.approx(0.169, abs=0.002)
    assert t == pytest.approx(0.16928365948279822, rel=1e-9)


def test_crossover_is_self_consistent():
    t = crossover_temperature(3.0e-6, DELTA_131)
    assert thermal_qp_fraction(t, DELTA_131) == pytest.approx(
        3.0e-6, rel=1e-6
    )


def test_crossover_without_crossing_raises():
    # thermal fraction never reaches 0.5 below Delta / 2
    with pytest.raises(BracketError):
        crossover_temperature(0.5, DELTA_131)


@pytest.mark.parametrize("delta_kelvin", [1e-300, 0.02])
def test_crossover_needs_gap_above_search_floor(delta_kelvin):
    # the search window [10 mK, Delta/2] is empty
    floor = f"10 mK floor, got Delta = {delta_kelvin:.6g} K"
    with pytest.raises(DomainError, match=floor):
        crossover_temperature(8.0e-7, delta_kelvin)


def test_fraction_inferred_from_relaxation_time():
    f_ge = transition_frequency(TransmonParams(EJ=21.67, EC=0.150))
    x = x_qp_from_rate(
        1.0 / 12e-6, 21.67, 0.150, f_ge, kelvin_to_ghz(DELTA_131)
    )
    assert x == pytest.approx(1.8e-6, rel=0.10)


def test_rate_and_fraction_invert_each_other():
    rate = nqp_decay_rate(21.67, 0.150, 4.9446, 48.15, 7.3e-7)
    x = x_qp_from_rate(rate, 21.67, 0.150, 4.9446, 48.15)
    assert x == pytest.approx(7.3e-7, rel=1e-12)


def test_rate_scales_linearly_in_fraction():
    r1 = nqp_decay_rate(21.67, 0.150, 4.9446, 48.15, 1.0e-6)
    r2 = nqp_decay_rate(21.67, 0.150, 4.9446, 48.15, 2.0e-6)
    assert r2 == pytest.approx(2.0 * r1, rel=1e-12)


def test_volume_density_from_si_inputs():
    n = volume_density(2.6e-6, 1.72e10, delta_ev_from_tc(1.31))
    assert n == pytest.approx(19.6, rel=0.10)


def test_volume_density_band_from_input_ranges():
    delta_ev = delta_ev_from_tc(1.31)
    low = volume_density(8.0e-7, 1.6e10, delta_ev)
    high = volume_density(1.8e-6, 1.72e10, delta_ev)
    assert round(low) == 5
    assert round(high) == 12


def test_volume_density_round_trip():
    delta_ev = kelvin_to_ev(DELTA_130)
    n = volume_density(8.0e-7, 1.6e10, delta_ev)
    assert x_qp_from_density(n, 1.6e10, delta_ev) == pytest.approx(
        8.0e-7, rel=1e-12
    )


def test_density_functions_reject_bad_inputs():
    with pytest.raises(DomainError):
        nqp_decay_rate(-1.0, 0.15, 4.9, 48.0, 1e-6)
    with pytest.raises(DomainError):
        nqp_decay_rate(21.67, 0.15, 4.9, 48.0, -1e-6)
    with pytest.raises(DomainError):
        volume_density(-1e-6, 1.6e10, 2e-4)
    with pytest.raises(DomainError):
        crossover_temperature(0.0, DELTA_131)


# ------------------------------------------------------------- transport


def test_relaxation_time_hits_anchors():
    assert tau_eps(0.5) == pytest.approx(1.0e-5, rel=1e-12)
    assert tau_eps(14.0) == pytest.approx(1.0e-11, rel=1e-12)


def test_relaxation_time_is_power_law_between_anchors():
    # log-log interpolation puts the geometric-mean energy at the
    # geometric mean of the anchor times
    mid = math.sqrt(0.5 * 14.0)
    assert tau_eps(mid) == pytest.approx(
        math.sqrt(1.0e-5 * 1.0e-11), rel=1e-9
    )


def test_relaxation_time_extrapolates_monotonically():
    assert tau_eps(0.1) > tau_eps(0.5)
    assert tau_eps(20.0) < tau_eps(14.0)
    with pytest.raises(DomainError):
        tau_eps(0.0)


def test_diffusion_length_at_half_kelvin():
    length = diffusion_length(0.5)
    assert length == pytest.approx(316.227766, rel=1e-9)
    # quoted at one significant figure
    assert round(length, -2) == 300.0


def test_diffusion_length_uses_environment():
    env = QPEnvironment(diffusion_m2_per_s=0.04)
    assert diffusion_length(0.5, env) == pytest.approx(
        2.0 * diffusion_length(0.5), rel=1e-12
    )


def test_environment_validates_anchors():
    with pytest.raises(DomainError):
        QPEnvironment(tau_anchors=((0.5, 1e-5),))
    with pytest.raises(DomainError):
        QPEnvironment(tau_anchors=((0.5, 1e-5), (14.0, 2e-5)))
    with pytest.raises(DomainError):
        QPEnvironment(x_nqp=-1e-7)


# --------------------------------------------------- barrier transmission


def _fraction_oracle(step: float, t_qp: float, delta: float) -> float:
    # same physics, different substitution: y = sqrt(E - Delta) is smooth
    # at the gap edge, integrated by a dense trapezoid rule
    def piece(y_low: float) -> float:
        y = np.linspace(y_low, math.sqrt(60.0 * t_qp), 400001)
        f = (
            2.0
            * (delta + y**2)
            / np.sqrt(2.0 * delta + y**2)
            * np.exp(-(y**2) / t_qp)
        )
        return float(np.trapezoid(f, y))

    return piece(math.sqrt(step)) / piece(0.0)


@pytest.mark.parametrize("step", [0.05, 0.1, 0.5292, 1.0])
def test_above_barrier_fraction_against_quadrature_oracle(step):
    lib = above_barrier_fraction(step, 0.040, DELTA_130)
    assert lib == pytest.approx(
        _fraction_oracle(step, 0.040, DELTA_130), rel=1e-6
    )


def test_above_barrier_fraction_limits():
    assert above_barrier_fraction(0.0, 0.040, DELTA_130) == 1.0
    steps = [0.0, 0.1, 0.3, 0.5292]
    values = [above_barrier_fraction(s, 0.040, DELTA_130) for s in steps]
    assert all(a > b for a, b in zip(values, values[1:]))
    # hotter quasiparticles cross more easily
    cold = above_barrier_fraction(0.5292, 0.030, DELTA_130)
    hot = above_barrier_fraction(0.5292, 0.060, DELTA_130)
    assert hot > cold
    with pytest.raises(DomainError):
        above_barrier_fraction(-0.1, 0.040, DELTA_130)


@pytest.mark.parametrize("ratio", [1.0, 5.0, 20.0, 57.0, 200.0])
def test_gap_edge_norm_matches_quadrature(ratio):
    # the normalization is Delta e^s K1(s); quadrature must agree with it
    t_qp = DELTA_130 / ratio
    scale = DELTA_130 / t_qp
    norm = _gap_edge_integrals(scale, [0.0])[0]
    assert norm == pytest.approx(scipy.special.k1e(ratio), rel=1e-12)
    fraction = above_barrier_fraction(0.1, t_qp, DELTA_130)
    assert 0.0 < fraction < 1.0
    above = _gap_edge_integrals(scale, [0.1 / DELTA_130])[0]
    assert fraction == pytest.approx(above / norm, rel=1e-12)


# ------------------------------------------------------------- thickness


def test_thickness_table_interpolates_and_clamps():
    assert tc_from_thickness(25.0) == pytest.approx(1.6)
    assert tc_from_thickness(40.0) == pytest.approx(1.3)
    assert tc_from_thickness(32.5) == pytest.approx(1.45)
    assert tc_from_thickness(10.0) == pytest.approx(1.6)
    assert tc_from_thickness(100.0) == pytest.approx(1.3)


def test_thickness_table_validation():
    with pytest.raises(DomainError):
        ThicknessTcTable(anchors=((25.0, 1.3), (40.0, 1.6)))
    with pytest.raises(DomainError):
        ThicknessTcTable(anchors=((25.0, 1.6),))
    with pytest.raises(DomainError):
        tc_from_thickness(0.0)


# -------------------------------------------------------------- profiles


def test_profile_resolves_gaps_from_thicknesses():
    deltas = [seg.delta_k for seg in PROTECTED.segments]
    assert deltas == pytest.approx([DELTA_130, DELTA_160, DELTA_130])
    assert PROTECTED.junction_um == pytest.approx(23.0)
    assert PROTECTED.junction_delta_k == pytest.approx(DELTA_130)


def _gap_profile_error(configs_dir, gap_profile):
    """The ConfigError of device_2np.json with ``gap_profile`` swapped in,
    and the first line of the loaded text that names each key."""
    doc = json.loads((configs_dir / "device_2np.json").read_text())
    doc["gap_profile"] = gap_profile
    text = json.dumps(doc, indent=1)
    lines = {}
    for number, line in enumerate(text.splitlines(), start=1):
        for key in re.findall(r'"(\w+)":', line):
            lines.setdefault(key, number)
    with pytest.raises(ConfigError) as caught:
        load_device_document(doc, text)
    return caught.value, lines


def test_profile_document_accepts_thicknesses(configs_dir):
    doc = json.loads((configs_dir / "device_2np.json").read_text())
    doc["gap_profile"] = {
        "segments": [
            {"length_um": 20.0, "thickness_nm": 40.0},
            {"length_um": 3.0, "thickness_nm": 25.0},
            {"length_um": 20.0, "thickness_nm": 60.0},
        ],
        "junction_um": 23.0,
    }
    assert load_device_document(doc, json.dumps(doc)).profile == PROTECTED


# the ids are those pytest derives from (segments, junction_um) alone
@pytest.mark.parametrize(
    "segments, junction_um, key",
    [
        pytest.param(5, 23.0, "segments", id="5-23.0"),
        pytest.param(
            [{"length_um": 20.0, "delta_K": 2.3}, 7], 20.0, "segments",
            id="segments1-20.0",
        ),
        pytest.param(
            [{"length_um": "20", "delta_K": 2.3}] * 2, 20.0, "length_um",
            id="segments2-20.0",
        ),
        pytest.param(
            [{"length_um": 20.0, "thickness_nm": True}] * 2, 20.0,
            "thickness_nm", id="segments3-20.0",
        ),
        # a null delta_K is omitted, leaving each segment without a gap
        pytest.param(
            [{"length_um": 20.0, "delta_K": None}] * 2, 20.0, "gap_profile",
            id="segments4-20.0",
        ),
        pytest.param(
            [{"length_um": 20.0, "delta_K": 2.3}] * 2, "20", "junction_um",
            id="segments5-20",
        ),
        pytest.param(
            [{"length_um": 10**400, "delta_K": 2.3}] * 2, 20.0, "length_um",
            id="segments6-20.0",
        ),
    ],
)
def test_profile_document_rejects_mistyped_values(
    configs_dir, segments, junction_um, key
):
    error, lines = _gap_profile_error(
        configs_dir, {"segments": segments, "junction_um": junction_um}
    )
    assert error.line == lines[key]
    assert key in str(error)


@pytest.mark.parametrize(
    "gap_profile, key",
    [
        ({"segments": [], "junction_um": 1.0}, "gap_profile"),
        (
            {
                "segments": [
                    {"length_um": 1.0, "delta_K": 2.3, "extra": 1},
                    {"length_um": 1.0, "delta_K": 2.3},
                ],
                "junction_um": 1.0,
            },
            "extra",
        ),
    ],
)
def test_profile_document_geometry_errors(configs_dir, gap_profile, key):
    error, lines = _gap_profile_error(configs_dir, gap_profile)
    assert error.line == lines[key]


def test_profile_geometry_errors():
    seg = GapSegment(10.0, 2.3)
    with pytest.raises(GeometryError):
        GapProfile((seg,), 5.0)
    with pytest.raises(GeometryError):
        GapProfile((seg, seg), 7.0)  # junction off the interior boundary
    with pytest.raises(GeometryError):
        GapSegment(-1.0, 2.3)
    with pytest.raises(GeometryError):
        GapSegment(10.0, 0.0)
    with pytest.raises(GeometryError):
        StackSegment(10.0)
    with pytest.raises(GeometryError):
        StackSegment(10.0, thickness_nm=25.0, delta_k=2.3)
    with pytest.raises(GeometryError):
        profile_from_stack(_stack(40.0), 0)


def test_side_segments_order_from_junction_outward():
    left = PROTECTED.side_segments("left")
    assert [seg.length_um for seg in left] == [3.0, 20.0]
    right = PROTECTED.side_segments("right")
    assert [seg.length_um for seg in right] == [20.0]


# -------------------------------------------------------------- verdicts


def test_barrier_verdict_for_protected_stack():
    verdict = barrier_adequate(PROTECTED)
    assert verdict.adequate
    assert verdict.left.adequate and not verdict.right.adequate
    assert verdict.left.delta_delta_k == pytest.approx(
        DELTA_160 - DELTA_130
    )
    assert verdict.left.required_um == pytest.approx(0.5)
    assert verdict.left.margin == pytest.approx(6.0)


def test_barrier_verdict_for_unprotected_stack():
    verdict = barrier_adequate(UNPROTECTED)
    assert not verdict.adequate
    assert not verdict.left.adequate and not verdict.right.adequate


def test_barrier_needs_length():
    short = GapProfile(
        (
            GapSegment(20.0, DELTA_130),
            GapSegment(0.3, DELTA_160),  # under 5 coherence lengths
            GapSegment(20.0, DELTA_130),
        ),
        20.3,
    )
    assert not barrier_adequate(short).adequate
    assert barrier_adequate(short, safety_factor=2.0).adequate


def test_flat_profile_is_unprotected():
    flat = GapProfile(
        (GapSegment(20.0, DELTA_130), GapSegment(20.0, DELTA_130)), 20.0
    )
    assert not barrier_adequate(flat).adequate
    assert not trap_adequate(flat).adequate


def test_trap_verdict_needs_both_sides_long():
    step = DELTA_160 - DELTA_130
    required = diffusion_length(step)
    assert required == pytest.approx(281.1254701618804, rel=1e-9)

    def trap_profile(left_um: float, right_um: float) -> GapProfile:
        return GapProfile(
            (
                GapSegment(20.0, DELTA_160),
                GapSegment(left_um, DELTA_130),
                GapSegment(right_um, DELTA_130),
                GapSegment(20.0, DELTA_160),
            ),
            20.0 + left_um,
        )

    good = trap_adequate(trap_profile(300.0, 300.0))
    assert good.adequate
    assert good.left.required_um == pytest.approx(required)
    lopsided = trap_adequate(trap_profile(300.0, 100.0))
    assert lopsided.left.adequate and not lopsided.right.adequate
    assert not lopsided.adequate


def test_trap_verdict_for_barrier_stack():
    # raised-gap strip next to the junction is not a trap
    assert not trap_adequate(PROTECTED).adequate


# ------------------------------------------------------------ rate model


def test_rate_model_unprotected_is_base_rate():
    rate = parity_rate_model(UNPROTECTED)
    assert rate == pytest.approx(1.0e3, rel=1e-9)


def test_rate_model_protected_is_suppressed():
    rate = parity_rate_model(PROTECTED)
    assert rate == pytest.approx(3.1459435160637487e-4, rel=1e-9)
    assert rate < 1.0e-3


def test_rate_model_monotone_in_temperature():
    temps = [0.025, 0.100, 0.140, 0.180, 0.250]
    rates = [parity_rate_model(PROTECTED, t_kelvin=t) for t in temps]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_rate_model_thermal_crossing_near_150_mk():
    # parity lifetime drops to one measurement time (0.2 s) on warming
    t_cross = root_find(
        lambda t: parity_rate_model(PROTECTED, t_kelvin=t) - 5.0,
        0.05,
        0.40,
    )
    assert 0.120 < t_cross < 0.180


def test_rate_model_respects_prefactors():
    rate = parity_rate_model(
        UNPROTECTED, base_rate_per_s=2.0e3, thermal_prefactor_per_s=0.0
    )
    assert rate == pytest.approx(2.0e3, rel=1e-12)
    with pytest.raises(DomainError):
        parity_rate_model(UNPROTECTED, base_rate_per_s=-1.0)
