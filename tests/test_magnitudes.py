"""Every scalar magnitude rejects NaN and infinities with a DomainError.

One case per argument that goes through ``errors.positive`` or
``errors.non_negative``: each call passes valid values for every other
argument, and the error must name the bad one.
"""

import math
import re
import warnings

import numpy as np
import pytest

from qpgap import fitting
from qpgap.datasets import synthetic_t1_series
from qpgap.errors import DomainError, non_negative, positive
from qpgap.fitting import (
    pure_dephasing_from_echo,
    resonator_thermometry,
    shot_noise_dephasing,
)
from qpgap.device import NoiseModel
from qpgap.fitting import LMResult
from qpgap.parity import (
    ChargeTrace,
    ParityTrace,
    ScanConfig,
    _detect_rows,
    simulate_offset_charge,
    simulate_parity,
    synthesize_scan,
)
from qpgap.quasiparticles import (
    DEFAULT_THICKNESS_TABLE,
    QPEnvironment,
    above_barrier_fraction,
    crossover_temperature,
    diffusion_length,
    nqp_decay_rate,
    tau_eps,
    thermal_crossover,
    thermal_qp_fraction,
    volume_density,
    x_qp_from_rate,
)
from qpgap.thermal import (
    bose_occupation,
    delta_from_tc,
    temperature_from_occupation,
    temperature_from_population,
    thermal_qp_term,
)
from qpgap.transmon import (
    CavityCoupling,
    FrequencyTargets,
    TransmonParams,
)

NON_FINITE = [math.nan, math.inf, -math.inf]
PARAMS = TransmonParams(EJ=20.0, EC=0.3)
SCAN = ScanConfig(f_min_ghz=6.0, f_max_ghz=7.0, n_freq=11, pixel_seconds=0.5)


def _scan(linewidth_mhz=1.0, snr=10.0):
    return synthesize_scan(
        PARAMS, simulate_parity(0.0, 1.0, seed=0),
        simulate_offset_charge(NoiseModel(0.0, 0.0), 1.0, seed=1), SCAN,
        linewidth_mhz=linewidth_mhz, snr=snr, seed=2,
    )


def _nqp_rate(**bad):
    args = {"ej_ghz": 20.0, "ec_ghz": 0.3, "f_ge_ghz": 6.6,
            "delta_ghz": 45.0, "x_qp": 1e-6}
    return nqp_decay_rate(**{**args, **bad})


# (argument name as the error spells it, call with the bad value)
CASES = {
    # thermal
    "delta_from_tc.Tc": ("Tc", lambda v: delta_from_tc(v)),
    "bose_occupation.f": ("frequency", lambda v: bose_occupation(v, 0.05)),
    "bose_occupation.T": ("temperature", lambda v: bose_occupation(5.0, v)),
    "temperature_from_population.f": (
        "frequency", lambda v: temperature_from_population(v, 0.1)),
    "temperature_from_occupation.f": (
        "frequency", lambda v: temperature_from_occupation(v, 0.1)),
    "temperature_from_occupation.n_th": (
        "occupation", lambda v: temperature_from_occupation(5.0, v)),
    "thermal_qp_term.T": ("temperature", lambda v: thermal_qp_term(v, 1.0)),
    "thermal_qp_term.delta": ("delta", lambda v: thermal_qp_term(0.1, v)),
    "thermal_qp_fraction.T": (
        "temperature", lambda v: thermal_qp_fraction(v, 2.0)),
    "thermal_qp_fraction.delta": (
        "delta", lambda v: thermal_qp_fraction(0.1, v)),
    # quasiparticles
    "ThicknessTcTable.tc": (
        "thickness", lambda v: DEFAULT_THICKNESS_TABLE.tc(v)),
    "QPEnvironment.x_nqp": ("x_nqp", lambda v: QPEnvironment(x_nqp=v)),
    "QPEnvironment.diffusion": (
        "diffusion constant",
        lambda v: QPEnvironment(diffusion_m2_per_s=v)),
    "QPEnvironment.xi": (
        "coherence length", lambda v: QPEnvironment(xi_um=v)),
    "QPEnvironment.nu0": (
        "density of states", lambda v: QPEnvironment(nu0_per_ev_um3=v)),
    "QPEnvironment.t_qp": (
        "quasiparticle temperature",
        lambda v: QPEnvironment(t_qp_kelvin=v)),
    "tau_eps.energy": ("energy", lambda v: tau_eps(v)),
    "diffusion_length.energy": ("energy", lambda v: diffusion_length(v)),
    "thermal_qp_fraction.x_nqp": (
        "x_nqp", lambda v: thermal_qp_fraction(0.1, 2.0, x_nqp=v)),
    "crossover_temperature.x_nqp": (
        "x_nqp", lambda v: crossover_temperature(v, 2.0)),
    "crossover_temperature.delta": (
        "delta", lambda v: crossover_temperature(1e-6, v)),
    "thermal_crossover.x_nqp": (
        "x_nqp", lambda v: thermal_crossover(v, 2.0)),
    "thermal_crossover.delta": (
        "delta", lambda v: thermal_crossover(1e-6, v)),
    "thermal_crossover.delta_at_zero_x_nqp": (
        "delta", lambda v: thermal_crossover(0.0, v)),
    "nqp_decay_rate.EJ": ("EJ", lambda v: _nqp_rate(ej_ghz=v)),
    "nqp_decay_rate.EC": ("EC", lambda v: _nqp_rate(ec_ghz=v)),
    "nqp_decay_rate.f_ge": ("f_ge", lambda v: _nqp_rate(f_ge_ghz=v)),
    "nqp_decay_rate.delta": ("delta", lambda v: _nqp_rate(delta_ghz=v)),
    "nqp_decay_rate.x_qp": ("x_qp", lambda v: _nqp_rate(x_qp=v)),
    "x_qp_from_rate.rate": (
        "rate", lambda v: x_qp_from_rate(v, 20.0, 0.3, 6.6, 45.0)),
    "x_qp_from_rate.EJ": (
        "EJ", lambda v: x_qp_from_rate(1e3, v, 0.3, 6.6, 45.0)),
    "x_qp_from_rate.EC": (
        "EC", lambda v: x_qp_from_rate(1e3, 20.0, v, 6.6, 45.0)),
    "x_qp_from_rate.f_ge": (
        "f_ge", lambda v: x_qp_from_rate(1e3, 20.0, 0.3, v, 45.0)),
    "x_qp_from_rate.delta": (
        "delta", lambda v: x_qp_from_rate(1e3, 20.0, 0.3, 6.6, v)),
    "volume_density.x_qp": (
        "x_qp", lambda v: volume_density(v, 1.6e10, 2e-4)),
    "volume_density.nu0": ("nu0", lambda v: volume_density(1e-6, v, 2e-4)),
    "volume_density.delta": (
        "delta", lambda v: volume_density(1e-6, 1.6e10, v)),
    "above_barrier_fraction.step": (
        "gap step", lambda v: above_barrier_fraction(v, 0.1, 2.0)),
    "above_barrier_fraction.T_qp": (
        "T_qp", lambda v: above_barrier_fraction(0.3, v, 2.0)),
    "above_barrier_fraction.delta": (
        "delta", lambda v: above_barrier_fraction(0.3, 0.1, v)),
    # transmon
    "TransmonParams.EJ": ("EJ", lambda v: TransmonParams(EJ=v, EC=0.3)),
    "TransmonParams.EC": ("EC", lambda v: TransmonParams(EJ=20.0, EC=v)),
    "TransmonParams.n_cut": (
        "n_cut", lambda v: TransmonParams(EJ=20.0, EC=0.3, n_cut=v)),
    "CavityCoupling.g": ("g", lambda v: CavityCoupling(v, 7.2, 2e4)),
    "CavityCoupling.nu_r": ("nu_r", lambda v: CavityCoupling(80.0, v, 2e4)),
    "CavityCoupling.Q": ("Q", lambda v: CavityCoupling(80.0, 7.2, v)),
    "FrequencyTargets.f_ge": (
        "f_ge", lambda v: FrequencyTargets(f_ge_ng0=v, f_ge_ng05=6.6)),
    "FrequencyTargets.f_ge_ng05": (
        "f_ge_ng05", lambda v: FrequencyTargets(f_ge_ng0=6.6, f_ge_ng05=v)),
    "FrequencyTargets.f_ef": (
        "f_ef", lambda v: FrequencyTargets(f_ge_ng0=6.6, f_ef=v)),
    # fitting
    "shot_noise_dephasing.kappa": (
        "kappa", lambda v: shot_noise_dephasing(0.5, v, 0.01)),
    "resonator_thermometry.rate": (
        "rate", lambda v: resonator_thermometry(v, 0.5, 0.36, 7.2)),
    "resonator_thermometry.kappa": (
        "kappa", lambda v: resonator_thermometry(1e4, 0.5, v, 7.2)),
    "pure_dephasing_from_echo.T2star": (
        "T2*", lambda v: pure_dephasing_from_echo(v, 1e-4)),
    "pure_dephasing_from_echo.T2echo": (
        "T2echo", lambda v: pure_dephasing_from_echo(1e-5, v)),
    # parity and noise
    "simulate_parity.rate": (
        "rate", lambda v: simulate_parity(v, 1.0, seed=0)),
    "simulate_parity.duration": (
        "duration", lambda v: simulate_parity(10.0, v, seed=0)),
    "simulate_offset_charge.duration": (
        "duration", lambda v: simulate_offset_charge(NoiseModel(0.0), v, 0)),
    "ParityTrace.duration": ("duration", lambda v: ParityTrace([], v)),
    "ChargeTrace.duration": ("duration", lambda v: ChargeTrace([], [0.0], v)),
    "ScanConfig.pixel_seconds": (
        "pixel time", lambda v: ScanConfig(6.0, 7.0, pixel_seconds=v)),
    "synthesize_scan.linewidth": ("linewidth", lambda v: _scan(linewidth_mhz=v)),
    "synthesize_scan.snr": ("snr", lambda v: _scan(snr=v)),
    "_detect_rows.linewidth": (
        "linewidth",
        lambda v: _detect_rows(np.arange(5.0), np.ones((1, 5)), v)),
    "NoiseModel.parity_rate": ("parity rate", lambda v: NoiseModel(v)),
    "NoiseModel.tls_rate": ("TLS rate", lambda v: NoiseModel(0.0, v)),
    # datasets
    "synthetic_t1_series.noise_fraction": (
        "noise fraction",
        lambda v: synthetic_t1_series(2e4, 1.2, 4e10, np.linspace(0.03, 0.3, 5),
                                      noise_fraction=v)),
}


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_non_finite_magnitude_raises_domain_error_naming_it(case, bad):
    name, call = CASES[case]
    with pytest.raises(DomainError, match=f"^{re.escape(name)} must be "):
        call(bad)


@pytest.mark.parametrize(
    "rule, zero_ok, wording",
    [(positive, False, "positive and finite"),
     (non_negative, True, "non-negative and finite")],
)
def test_rule_bounds(rule, zero_ok, wording):
    for good in (5e-324, 1.0, 1.7e308, np.float64(2.0), 3):
        assert rule("x", good) is None
    bad_values = [-1e-300, *NON_FINITE] + ([] if zero_ok else [0.0, -0.0])
    for bad in bad_values:
        with pytest.raises(DomainError, match=f"^x must be {wording}, got "):
            rule("x", bad)
    if zero_ok:
        assert rule("x", 0.0) is None and rule("x", -0.0) is None


@pytest.mark.parametrize("covariance", [None, np.eye(3)])
def test_fit_t1_names_an_overflowed_x_nqp(monkeypatch, covariance):
    # plateau / amplitude and its gradient overflow to inf without a
    # warning: the fit reports no crossover
    fitted = LMResult(np.array([1e10, 1.2, 1e-300]), covariance, 0.0, 1, True)
    monkeypatch.setattr(fitting, "least_squares", lambda *a, **k: fitted)
    series = synthetic_t1_series(2e4, 1.2, 4e10, np.linspace(0.03, 0.3, 5))
    with pytest.raises(
        DomainError,
        match="^no thermal crossover for the fitted x_nqp = inf and Tc = 1.2 K",
    ):
        fitting.fit_t1_vs_temperature(series)


def test_fit_t1_zero_plateau_has_no_nan_sigma(monkeypatch):
    # x_nqp = 0 at an amplitude of 1e-200, whose square underflows to 0:
    # the gradient's amplitude entry is 0, not 0/0
    series = synthetic_t1_series(2e4, 1.2, 4e10, np.linspace(0.03, 0.3, 5))

    def fit(covariance):
        x = np.array([0.0, 1.2, 1e-200])
        fitted = LMResult(x, covariance, 0.0, 1, True)
        monkeypatch.setattr(fitting, "least_squares", lambda *a, **k: fitted)
        return fitting.fit_t1_vs_temperature(series)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        derived = fit(np.diag([1e-300, 1.0, 1.0])).derived
        with pytest.raises(DomainError, match="^x_nqp = 0 has variance inf$"):
            fit(np.eye(3))
    assert derived["x_nqp_inferred"] == 0.0
    assert derived["x_nqp_sigma"] == pytest.approx(1e50, rel=1e-15)


@pytest.mark.parametrize("x_nqp", [0.0, 5e-324, 1e-300, 1e-200, 0.5])
def test_thermal_crossover_is_none_outside_the_window(x_nqp):
    # 0 lies below the thermal fraction everywhere; the tiny x_nqp (whose
    # square underflows) cross it below 10 mK, and 0.5 above Delta/2
    assert thermal_crossover(x_nqp, 2.0) is None


@pytest.mark.parametrize("delta", [-1.0, 0.0])
def test_thermal_crossover_at_zero_x_nqp_checks_the_gap(delta):
    with pytest.raises(DomainError, match="^delta must be positive"):
        thermal_crossover(0.0, delta)


def test_thermal_crossover_of_a_large_gap_at_a_tiny_x_nqp():
    # x_th(10 mK) underflows to 0 at Delta = 10 K, yet the crossing is found
    t_cross = thermal_crossover(1e-300, 10.0)
    assert t_cross == pytest.approx(0.0145259, rel=1e-5)
    assert thermal_qp_term(t_cross, 10.0) == pytest.approx(1e-300, rel=1e-12)


def test_thermal_crossover_inside_the_window():
    assert thermal_crossover(1e-6, 2.0) == crossover_temperature(1e-6, 2.0)


def test_thermal_crossover_keeps_the_small_gap_error():
    with pytest.raises(DomainError, match="^crossover search needs Delta/2"):
        thermal_crossover(1e-6, 0.02)
    # at x_nqp = 0 there is no crossover to report, and so no error
    assert thermal_crossover(0.0, 0.02) is None
