import math

import pytest

from qpgap.errors import DomainError
from qpgap.thermal import delta_from_tc
from qpgap.units import (
    CONSTANTS,
    EnergyValue,
    kelvin_to_ev,
    kelvin_to_ghz,
)


def test_published_constant_digits():
    assert CONSTANTS.kB_over_h == pytest.approx(20.836619, abs=5e-7)
    assert CONSTANTS.kB_in_eV == pytest.approx(8.617333262e-5, rel=1e-9)
    assert CONSTANTS.RK == pytest.approx(25812.807459, abs=5e-7)
    assert CONSTANTS.bcs_ratio == 1.764


def test_kb_over_h_and_inverse_are_exact_reciprocals():
    assert CONSTANTS.kB_over_h * CONSTANTS.h_over_kB == pytest.approx(
        1.0, rel=1e-15
    )


def _convert(value: float, unit: str, to: str) -> float:
    return EnergyValue(value, unit).to(to).value


def test_ghz_kelvin_round_trip():
    for f in (0.001, 1.0, 7.24, 100.0):
        assert _convert(kelvin_to_ghz(f), "GHz", "K") == pytest.approx(
            f, rel=1e-14)
        assert kelvin_to_ghz(_convert(f, "GHz", "K")) == pytest.approx(
            f, rel=1e-14)


def test_ev_round_trips():
    assert _convert(kelvin_to_ev(2.31), "eV", "K") == pytest.approx(
        2.31, rel=1e-14)
    assert _convert(_convert(48.0, "GHz", "eV"), "eV", "GHz") == (
        pytest.approx(48.0, rel=1e-14))


def test_one_kelvin_in_ghz():
    assert kelvin_to_ghz(1.0) == pytest.approx(20.836619, abs=5e-7)


def test_gap_scale_conversion():
    # 2.2932 K is the 1.3 K-Tc film gap; its frequency sits near 47.8 GHz
    assert kelvin_to_ghz(2.2932) == pytest.approx(47.7825, abs=1e-3)
    assert kelvin_to_ev(2.2932) == pytest.approx(1.9761e-4, rel=1e-3)


def test_energy_value_conversions():
    e = EnergyValue(1.0, "K")
    assert e.to("GHz").value == pytest.approx(20.836619, abs=5e-7)
    assert e.to("eV").value == pytest.approx(8.617333262e-5, rel=1e-9)
    assert e.to("K").value == 1.0
    back = e.to("GHz").to("eV").to("K")
    assert back.value == pytest.approx(1.0, rel=1e-12)


# one kelvin expressed in each unit
_ONE_KELVIN = {"GHz": CONSTANTS.kB_over_h, "K": 1.0, "eV": CONSTANTS.kB_in_eV}
_UNIT_PAIRS = [(a, b) for a in _ONE_KELVIN for b in _ONE_KELVIN]


@pytest.mark.parametrize(
    "unit, to", _UNIT_PAIRS, ids=[f"{a}-{b}" for a, b in _UNIT_PAIRS]
)
def test_energy_value_converts_by_the_constants_and_back(unit, to):
    scale = _ONE_KELVIN[to] / _ONE_KELVIN[unit]
    for value in (1e-3, 1.0, 2.31, 48.0):
        there = EnergyValue(value, unit).to(to)
        assert there.unit == to
        assert there.value == pytest.approx(value * scale, rel=1e-14)
        assert there.to(unit).value == pytest.approx(value, rel=1e-14)


@pytest.mark.parametrize(
    "unit, to", _UNIT_PAIRS, ids=[f"{a}-{b}" for a, b in _UNIT_PAIRS]
)
def test_energy_value_carries_non_finite_values(unit, to):
    assert math.isnan(_convert(math.nan, unit, to))
    assert _convert(math.inf, unit, to) == math.inf
    assert _convert(-math.inf, unit, to) == -math.inf


def test_energy_value_rejects_unknown_unit():
    with pytest.raises(DomainError):
        EnergyValue(1.0, "J")
    with pytest.raises(DomainError):
        EnergyValue(1.0, "K").to("meV")


def test_bcs_ratio_must_be_positive():
    with pytest.raises(DomainError):
        delta_from_tc(1.0, bcs_ratio=0.0)


def test_conversions_propagate_nan():
    assert math.isnan(kelvin_to_ghz(math.nan))
    assert math.isnan(_convert(math.nan, "GHz", "K"))
