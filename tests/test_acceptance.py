"""End-to-end acceptance checks, one verdict line per criterion.

Run `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines as
they complete.  The statistical criteria use frozen seeds, so every run
sees the same draws.
"""

import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from qpgap.datasets import synthetic_t1_series, synthetic_t2_series
from qpgap.fitting import (
    fit_t1_vs_temperature,
    fit_t2_vs_temperature,
    resonator_thermometry,
    shot_noise_dephasing,
    t1_rate_model,
)
from qpgap.parity import (
    NoiseModel,
    ScanConfig,
    estimate_parity_lifetime,
    scan_window,
    simulate_offset_charge,
    simulate_parity,
    synthesize_scan,
)
from qpgap.quasiparticles import (
    _gap_edge_integrals,
    crossover_temperature,
    delta_ev_from_tc,
    diffusion_length,
    volume_density,
    x_qp_from_rate,
)
from qpgap.thermal import delta_from_tc, temperature_from_population
from qpgap.transmon import (
    CavityCoupling,
    TransmonParams,
    charge_dispersion,
    eigenspectrum,
    transition_frequency,
)
from qpgap.units import kelvin_to_ghz


@contextmanager
def criterion(number: int, label: str):
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        print(f"{status} | criterion {number:>2}: {label}")


def test_criterion_01_device_spectra():
    quoted = {
        "1NP": (21.67, 0.150, 4.95, None),
        "2NP": (7.417, 0.403, 4.443, 0.010),
        "1P": (13.69, 0.150, 3.897, None),
        "2P": (6.92, 0.429, 4.391, 0.022),
        "3P": (5.92, 0.400, 3.900, 0.026),
    }
    with criterion(1, "five-device spectra match quoted f_ge and eps_ge"):
        for ej, ec, f_quoted, eps_quoted in quoted.values():
            params = TransmonParams(EJ=ej, EC=ec)
            midpoint = 0.5 * (
                transition_frequency(params)
                + transition_frequency(params.with_ng(0.5))
            )
            assert abs(midpoint - f_quoted) < 0.025
            eps = charge_dispersion(params, "ge")
            if eps_quoted is None:
                assert eps < 1e-4  # quoted as unresolvable
            else:
                assert abs(eps - eps_quoted) / eps_quoted < 0.20


def test_criterion_02_crossover_temperature():
    with criterion(2, "x_nqp = 8.0e-7 at Tc = 1.31 K crosses at 169 +- 2 mK"):
        t_cross = crossover_temperature(8.0e-7, delta_from_tc(1.31))
        assert abs(t_cross - 0.169) <= 0.002


def test_criterion_03_nqp_fraction_and_density():
    with criterion(3, "NQP fraction and volume density from relaxation"):
        f_ge = transition_frequency(TransmonParams(EJ=21.67, EC=0.150))
        delta_ghz = kelvin_to_ghz(delta_from_tc(1.31))
        x = x_qp_from_rate(1.0 / 12e-6, 21.67, 0.150, f_ge, delta_ghz)
        assert abs(x - 1.8e-6) / 1.8e-6 < 0.10
        delta_ev = delta_ev_from_tc(1.31)
        n_si = volume_density(2.6e-6, 1.72e10, delta_ev)
        assert abs(n_si - 19.6) / 19.6 < 0.10
        low = volume_density(8.0e-7, 1.6e10, delta_ev)
        high = volume_density(1.8e-6, 1.72e10, delta_ev)
        assert round(low) == 5 and round(high) == 12


def test_criterion_04_shot_noise_dephasing():
    with criterion(4, "shot-noise dephasing 56 kHz and n_th inversion"):
        rate = shot_noise_dephasing(0.55, 0.36, 0.027)
        assert abs(rate - 56e3) / 56e3 < 0.05
        inverted = resonator_thermometry(56e3, 0.55, 0.36, 7.24)
        assert abs(inverted.n_th - 0.027) / 0.027 < 0.05


def test_criterion_05_diffusion_length():
    with criterion(5, "diffusion length 316 um, quoted 300 um at 1 figure"):
        length = diffusion_length(0.5)
        assert length == pytest.approx(316.227766, rel=1e-6)
        assert round(length, -2) == 300.0


def test_criterion_06_thermometry():
    with criterion(6, "1.5% excited population at 4.39 GHz is 50 +- 5 mK"):
        t = temperature_from_population(4.39, 0.015)
        assert abs(t - 0.050) <= 0.005


def test_criterion_07_kappa_consistency():
    with criterion(7, "kappa from loaded Q matches 0.36 MHz within 5%"):
        coupling = CavityCoupling(g_mhz=122.0, nu_r_ghz=7.24, q_loaded=2e4)
        assert abs(coupling.kappa_mhz - 0.36) / 0.36 < 0.05


def _device_scan(params, gamma, duration, seed, n_freq=161):
    parity = simulate_parity(gamma, duration, seed=seed)
    charge = simulate_offset_charge(
        NoiseModel(gamma_parity_per_s=gamma), duration, seed=seed + 1
    )
    f_min, f_max = scan_window(params, linewidth_mhz=1.0)
    config = ScanConfig(f_min_ghz=f_min, f_max_ghz=f_max, n_freq=n_freq)
    scan = synthesize_scan(
        params, parity, charge, config,
        linewidth_mhz=1.0, snr=20.0, seed=seed + 2,
    )
    return estimate_parity_lifetime(scan)


def test_criterion_08_parity_phenomenology():
    with criterion(8, "scan verdicts and rate recovery within 2x"):
        # fast-switching device: both branches in nearly every pixel
        fast = _device_scan(
            TransmonParams(EJ=7.417, EC=0.403), 1000.0, 10.0, seed=102
        )
        assert fast.kind == "upper_bound"
        assert fast.seconds == pytest.approx(0.2)

        # protected device: a single branch over the full 1000 s scan
        slow = _device_scan(
            TransmonParams(EJ=5.92, EC=0.400), 0.001, 1000.0, seed=203
        )
        assert slow.kind == "lower_bound"
        assert slow.seconds == pytest.approx(1000.0)

        # known switching rate recovered within a factor of two
        gamma = 0.01
        estimates = []
        for seed in range(100):
            verdict = _device_scan(
                TransmonParams(EJ=5.92, EC=0.400), gamma, 400.0,
                seed=3 * seed + 1000, n_freq=61,
            )
            if verdict.kind == "estimate":
                estimates.append(verdict.seconds)
        assert len(estimates) >= 90
        median = float(np.median(estimates))
        assert 0.5 / gamma <= median <= 2.0 / gamma


def test_criterion_09_statistical_suites():
    with criterion(9, "Poisson counts at 4 sigma; fit coverage >= 90%"):
        n = 1000
        for rate in (0.5, 2.0, 10.0):
            lam = rate * 10.0
            counts = np.array(
                [
                    simulate_parity(rate, 10.0, seed=s).switch_count
                    for s in range(n)
                ],
                dtype=float,
            )
            assert abs(counts.mean() - lam) < 4.0 * math.sqrt(lam / n)
            var_tol = 4.0 * math.sqrt((lam + 2.0 * lam**2) / n)
            assert abs(counts.var() - lam) < var_tol

        trials = 500
        temps1 = np.linspace(0.025, 0.35, 14)
        truth1 = {
            "gamma_plateau_per_s": 8.3e4,
            "tc_K": 1.31,
            "amplitude_per_s": 4.6e10,
        }
        hits1 = dict.fromkeys(truth1, 0)
        for seed in range(trials):
            series = synthetic_t1_series(
                *truth1.values(), temps1, 0.05, seed=seed
            )
            fit = fit_t1_vs_temperature(series)
            for name, value in truth1.items():
                if abs(fit.values[name] - value) <= 2.0 * fit.sigmas[name]:
                    hits1[name] += 1
        for name, hits in hits1.items():
            assert hits / trials >= 0.90, name

        def t1_model(t_kelvin: float) -> float:
            rate = t1_rate_model(np.array([t_kelvin]), 2.2e4, 1.31, 4.0e10)
            return 1.0 / float(rate[0])

        temps2 = np.linspace(0.025, 0.25, 12)
        truth2 = {"n0": 0.027, "gamma_offset_per_s": 2.0e4}
        hits2 = dict.fromkeys(truth2, 0)
        for seed in range(trials):
            series = synthetic_t2_series(
                0.027, 2.0e4, 0.55, 0.36, 7.24, t1_model, temps2, 0.03,
                seed=seed,
            )
            fit = fit_t2_vs_temperature(series, 0.55, 0.36, 7.24, t1_model)
            for name, value in truth2.items():
                if abs(fit.values[name] - value) <= 2.0 * fit.sigmas[name]:
                    hits2[name] += 1
        for name, hits in hits2.items():
            assert hits / trials >= 0.90, name


def _cli_outputs(argv, out_dir, threads):
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    result = subprocess.run(
        [sys.executable, "-m", "qpgap.cli", *argv, "--out", str(out_dir)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    return {
        path.name: path.read_bytes() for path in sorted(out_dir.iterdir())
    }


def test_criterion_10_numerical_hygiene(tmp_path, configs_dir, data_dir):
    with criterion(10, "truncation, quadrature oracle, byte determinism"):
        for ej, ec in (
            (21.67, 0.150), (7.417, 0.403), (13.69, 0.150),
            (6.92, 0.429), (5.92, 0.400),
        ):
            base = TransmonParams(EJ=ej, EC=ec, ng=0.31)
            bigger = TransmonParams(
                EJ=ej, EC=ec, ng=0.31, n_cut=base.effective_n_cut + 10
            )
            drift = np.max(
                np.abs(
                    eigenspectrum(base, levels=4).energies
                    - eigenspectrum(bigger, levels=4).energies
                )
            )
            assert drift < 1e-9

        # gap-edge occupation integral in the cosh substitution, from the
        # composite Gauss-Legendre rule the package runs
        delta, t_qp = 2.2932, 0.040
        scale = delta / t_qp
        value = float(_gap_edge_integrals(scale, [0.0])[0])
        grid = np.linspace(0.0, 1.2, 1_000_001)
        cosh = np.cosh(grid)
        oracle = float(
            np.trapezoid(cosh * np.exp(-scale * (cosh - 1.0)), grid)
        )
        assert abs(value - oracle) / oracle < 1e-6

        commands = {
            "spectrum": ["spectrum", str(configs_dir / "device_2np.json"),
                         "--svg"],
            "qp": ["qp", str(configs_dir / "device_1p.json")],
            "parity": ["parity-sim", str(configs_dir / "device_2np.json"),
                       "--duration", "2", "--svg"],
            "fit-t1": ["fit", "t1",
                       str(data_dir / "t1_vs_temperature_1np.csv"),
                       str(configs_dir / "device_1np.json")],
            "fit-t2": ["fit", "t2",
                       str(data_dir / "t2star_vs_temperature_1p.csv"),
                       str(configs_dir / "device_1p.json"),
                       "--t1-data",
                       str(data_dir / "t1_vs_temperature_1p.csv")],
        }
        for name, argv in commands.items():
            first = _cli_outputs(argv, tmp_path / f"{name}-a", "1")
            second = _cli_outputs(argv, tmp_path / f"{name}-b", "1")
            threaded = _cli_outputs(argv, tmp_path / f"{name}-c", "4")
            assert first == second, name
            assert first == threaded, name
