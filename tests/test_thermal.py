import math

import numpy as np
import pytest

from qpgap.errors import DomainError
from qpgap.thermal import (
    bcs_dos,
    bose_occupation,
    delta_from_tc,
    temperature_from_occupation,
    temperature_from_population,
    thermal_qp_term,
    two_level_population,
)


def test_gap_from_tc():
    assert delta_from_tc(1.31) == pytest.approx(1.764 * 1.31, rel=1e-12)
    assert delta_from_tc(1.0, bcs_ratio=2.0) == 2.0


def test_gap_rejects_non_positive_tc():
    with pytest.raises(DomainError):
        delta_from_tc(0.0)
    with pytest.raises(DomainError):
        delta_from_tc(-1.0)


def test_dos_vanishes_below_and_at_gap_edge():
    assert bcs_dos(0.5, 1.0) == 0.0
    assert bcs_dos(1.0, 1.0) == 0.0


def test_dos_above_gap_matches_closed_form():
    delta = 2.0
    for e in (2.0001, 2.5, 5.0, 50.0):
        expected = e / math.sqrt(e * e - delta * delta)
        assert bcs_dos(e, delta) == pytest.approx(expected, rel=1e-12)


def test_dos_approaches_unity_far_above_gap():
    assert bcs_dos(1e6, 1.0) == pytest.approx(1.0, rel=1e-9)


def test_bose_occupation_reference_points():
    # x = h nu / kB T = 1 gives the textbook 1/(e - 1)
    f = 20.836619122210953  # frequency whose photon energy is 1 K
    assert bose_occupation(f, 1.0) == pytest.approx(
        1.0 / (math.e - 1.0), rel=1e-9
    )


def test_bose_occupation_handles_extreme_ratio_without_underflow():
    # 7.24 GHz at 5 mK: x ~ 69.5, occupation ~ 6e-31
    n = bose_occupation(7.24, 0.005)
    assert 0.0 < n < 1e-29


def test_bose_occupation_high_temperature_limit():
    # kT >> h nu: n -> kT / h nu
    n = bose_occupation(1.0, 100.0)
    assert n == pytest.approx(100.0 * 20.836619122210953 / 1.0, rel=1e-2)


def test_bose_rejects_bad_arguments():
    with pytest.raises(DomainError):
        bose_occupation(0.0, 1.0)
    with pytest.raises(DomainError):
        bose_occupation(7.24, 0.0)


def test_two_level_population_and_inverse_round_trip():
    for t in (0.03, 0.05, 0.086, 0.2):
        p = two_level_population(4.39, t)
        assert 0.0 < p < 0.5
        assert temperature_from_population(4.39, p) == pytest.approx(
            t, rel=1e-10
        )


def test_excited_population_thermometry_value():
    # 1.5% excited population at a 4.39 GHz splitting sits near 50 mK
    t = temperature_from_population(4.39, 0.015)
    assert t == pytest.approx(0.0503, abs=0.0005)


def test_population_inverse_rejects_out_of_range():
    with pytest.raises(DomainError):
        temperature_from_population(4.39, 0.0)
    with pytest.raises(DomainError):
        temperature_from_population(4.39, 0.5)


def test_occupation_thermometry_round_trip():
    for t in (0.05, 0.086, 0.15):
        n = bose_occupation(7.24, t)
        assert temperature_from_occupation(7.24, n) == pytest.approx(
            t, rel=1e-10
        )


def test_thermal_qp_term_closed_form():
    # sqrt(2 pi T / Delta) exp(-Delta / T)
    delta, t = 2.31084, 0.169
    expected = math.sqrt(2.0 * math.pi * t / delta) * math.exp(-delta / t)
    assert thermal_qp_term(t, delta) == pytest.approx(expected, rel=1e-12)


def test_thermal_qp_term_is_monotone_in_temperature():
    delta = 2.2932
    temps = np.linspace(0.02, 1.0, 200)
    terms = [thermal_qp_term(float(t), delta) for t in temps]
    assert np.all(np.diff(terms) > 0)


def test_thermal_qp_term_underflow_is_zero_not_error():
    # Delta/T ~ 2300: the Boltzmann factor underflows to an exact 0.0
    assert thermal_qp_term(0.001, 2.31) == 0.0
