"""Every scalar magnitude rejects NaN and infinities with a DomainError.

One case per argument that goes through ``errors.positive`` or
``errors.non_negative``: each call passes valid values for every other
argument, and the error must name the bad one.
"""

import math
import re

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
from qpgap.noise import NoiseModel
from qpgap.numerics import LMResult
from qpgap.parity import (
    ScanConfig,
    detect_peaks,
    estimate_parity_lifetime,
    simulate_offset_charge,
    simulate_parity,
    synthesize_scan,
)
from qpgap.quasiparticles import (
    DEFAULT_THICKNESS_TABLE,
    GapProfile,
    GapSegment,
    QPEnvironment,
    above_barrier_fraction,
    barrier_adequate,
    crossover_temperature,
    nqp_decay_rate,
    parity_rate_model,
    tau_eps,
    thermal_crossover,
    thermal_qp_fraction,
    volume_density,
    x_qp_from_density,
    x_qp_from_rate,
)
from qpgap.thermal import (
    bcs_dos,
    bose_occupation,
    delta_from_tc,
    temperature_from_occupation,
    temperature_from_population,
    thermal_qp_term,
    two_level_population,
)
from qpgap.transmon import (
    CavityCoupling,
    FrequencyTargets,
    TransmonParams,
    ej_from_normal_resistance,
    normal_resistance_from_ej,
)

NON_FINITE = [math.nan, math.inf, -math.inf]
PROFILE = GapProfile(
    segments=(GapSegment(50.0, 2.2), GapSegment(50.0, 1.9)), junction_um=50.0
)
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
    "delta_from_tc.bcs_ratio": (
        "bcs_ratio", lambda v: delta_from_tc(1.2, bcs_ratio=v)),
    "bcs_dos.delta": ("delta", lambda v: bcs_dos(2.0, v)),
    "bose_occupation.f": ("frequency", lambda v: bose_occupation(v, 0.05)),
    "bose_occupation.T": ("temperature", lambda v: bose_occupation(5.0, v)),
    "two_level_population.f": (
        "frequency", lambda v: two_level_population(v, 0.05)),
    "two_level_population.T": (
        "temperature", lambda v: two_level_population(5.0, v)),
    "temperature_from_population.f": (
        "frequency", lambda v: temperature_from_population(v, 0.1)),
    "temperature_from_occupation.f": (
        "frequency", lambda v: temperature_from_occupation(v, 0.1)),
    "temperature_from_occupation.n_th": (
        "occupation", lambda v: temperature_from_occupation(5.0, v)),
    "thermal_qp_term.T": ("temperature", lambda v: thermal_qp_term(v, 1.0)),
    "thermal_qp_term.delta": ("delta", lambda v: thermal_qp_term(0.1, v)),
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
    "nqp_decay_rate.EJ": ("EJ", lambda v: _nqp_rate(ej_ghz=v)),
    "nqp_decay_rate.EC": ("EC", lambda v: _nqp_rate(ec_ghz=v)),
    "nqp_decay_rate.f_ge": ("f_ge", lambda v: _nqp_rate(f_ge_ghz=v)),
    "nqp_decay_rate.delta": ("delta", lambda v: _nqp_rate(delta_ghz=v)),
    "nqp_decay_rate.x_qp": ("x_qp", lambda v: _nqp_rate(x_qp=v)),
    "x_qp_from_rate.rate": (
        "rate", lambda v: x_qp_from_rate(v, 20.0, 0.3, 6.6, 45.0)),
    "volume_density.x_qp": (
        "x_qp", lambda v: volume_density(v, 1.6e10, 2e-4)),
    "volume_density.nu0": ("nu0", lambda v: volume_density(1e-6, v, 2e-4)),
    "volume_density.delta": (
        "delta", lambda v: volume_density(1e-6, 1.6e10, v)),
    "x_qp_from_density.density": (
        "density", lambda v: x_qp_from_density(v, 1.6e10, 2e-4)),
    "x_qp_from_density.nu0": (
        "nu0", lambda v: x_qp_from_density(1.0, v, 2e-4)),
    "x_qp_from_density.delta": (
        "delta", lambda v: x_qp_from_density(1.0, 1.6e10, v)),
    "above_barrier_fraction.step": (
        "gap step", lambda v: above_barrier_fraction(v, 0.1, 2.0)),
    "above_barrier_fraction.T_qp": (
        "T_qp", lambda v: above_barrier_fraction(0.3, v, 2.0)),
    "above_barrier_fraction.delta": (
        "delta", lambda v: above_barrier_fraction(0.3, 0.1, v)),
    "barrier_adequate.safety_factor": (
        "safety factor", lambda v: barrier_adequate(PROFILE, safety_factor=v)),
    "parity_rate_model.base_rate": (
        "base rate", lambda v: parity_rate_model(PROFILE, base_rate_per_s=v)),
    "parity_rate_model.thermal_prefactor": (
        "thermal prefactor",
        lambda v: parity_rate_model(PROFILE, thermal_prefactor_per_s=v)),
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
    "ej_from_normal_resistance.Rn": (
        "Rn", lambda v: ej_from_normal_resistance(v, 45.0)),
    "ej_from_normal_resistance.delta": (
        "delta", lambda v: ej_from_normal_resistance(8e3, v)),
    "normal_resistance_from_ej.EJ": (
        "EJ", lambda v: normal_resistance_from_ej(v, 45.0)),
    "normal_resistance_from_ej.delta": (
        "delta", lambda v: normal_resistance_from_ej(20.0, v)),
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
    "ScanConfig.pixel_seconds": (
        "pixel time", lambda v: ScanConfig(6.0, 7.0, pixel_seconds=v)),
    "synthesize_scan.linewidth": ("linewidth", lambda v: _scan(linewidth_mhz=v)),
    "synthesize_scan.snr": ("snr", lambda v: _scan(snr=v)),
    "detect_peaks.linewidth": (
        "linewidth", lambda v: detect_peaks(np.arange(5.0), np.ones(5), v)),
    "detect_peaks.threshold_k": (
        "threshold_k",
        lambda v: detect_peaks(np.arange(5.0), np.ones(5), 1.0, v)),
    "estimate_parity_lifetime.threshold_k": (
        "threshold_k", lambda v: estimate_parity_lifetime(_scan(), v)),
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


@pytest.mark.parametrize("x_nqp", [0.0, 1e-300, 0.5])
def test_thermal_crossover_is_none_outside_the_window(x_nqp):
    # 0 lies below the thermal fraction everywhere; 1e-300 and 0.5 cross
    # it below 10 mK and above Delta/2
    assert thermal_crossover(x_nqp, 2.0) is None


def test_thermal_crossover_inside_the_window():
    assert thermal_crossover(1e-6, 2.0) == crossover_temperature(1e-6, 2.0)


def test_thermal_crossover_keeps_the_small_gap_error():
    with pytest.raises(DomainError, match="^crossover search needs Delta/2"):
        thermal_crossover(1e-6, 0.02)
