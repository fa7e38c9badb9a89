import math

import pytest

from qpgap.units import CONSTANTS, kelvin_to_ev, kelvin_to_ghz


def test_published_constant_digits():
    assert CONSTANTS.kB_over_h == pytest.approx(20.836619, abs=5e-7)
    assert CONSTANTS.kB_in_eV == pytest.approx(8.617333262e-5, rel=1e-9)
    assert CONSTANTS.RK == pytest.approx(25812.807459, abs=5e-7)
    assert CONSTANTS.bcs_ratio == 1.764


def test_kb_over_h_and_inverse_are_exact_reciprocals():
    assert CONSTANTS.kB_over_h * CONSTANTS.h_over_kB == pytest.approx(
        1.0, rel=1e-15
    )


def test_ghz_kelvin_round_trip():
    for f in (0.001, 1.0, 7.24, 100.0):
        assert kelvin_to_ghz(f * CONSTANTS.h_over_kB) == pytest.approx(
            f, rel=1e-14)
        assert kelvin_to_ghz(f) * CONSTANTS.h_over_kB == pytest.approx(
            f, rel=1e-14)


def test_ev_round_trips():
    assert kelvin_to_ev(2.31) / CONSTANTS.kB_in_eV == pytest.approx(
        2.31, rel=1e-14)
    in_ev = kelvin_to_ev(48.0 * CONSTANTS.h_over_kB)
    assert kelvin_to_ghz(in_ev / CONSTANTS.kB_in_eV) == pytest.approx(
        48.0, rel=1e-14)


def test_one_kelvin_in_ghz():
    assert kelvin_to_ghz(1.0) == pytest.approx(20.836619, abs=5e-7)


def test_gap_scale_conversion():
    # 2.2932 K is the 1.3 K-Tc film gap; its frequency sits near 47.8 GHz
    assert kelvin_to_ghz(2.2932) == pytest.approx(47.7825, abs=1e-3)
    assert kelvin_to_ev(2.2932) == pytest.approx(1.9761e-4, rel=1e-3)


def test_conversions_propagate_nan():
    assert math.isnan(kelvin_to_ghz(math.nan))
    assert math.isnan(kelvin_to_ev(math.nan))
