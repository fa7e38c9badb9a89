"""Synthetic coherence-vs-temperature datasets for demos and round trips."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import non_negative
from .fitting import DataSeries, dataseries_to_csv, t1_rate_model, t2_rate_model


def _noisy_series(
    kind: str, t: np.ndarray, rates: np.ndarray, noise_fraction: float,
    seed: int,
) -> DataSeries:
    """Times 1/rate after Gaussian noise of ``noise_fraction`` x rate.

    The quoted sigma equals the noise actually applied, so round-trip fits
    see correctly calibrated weights.
    """
    non_negative("noise fraction", noise_fraction)
    rng = np.random.default_rng(seed)
    sigma = noise_fraction * rates
    noisy = rates + rng.normal(0.0, 1.0, size=len(t)) * sigma
    noisy = np.maximum(noisy, rates * 0.05)
    sigma_s = sigma / noisy**2 if noise_fraction > 0 else None
    return DataSeries(kind=kind, t_kelvin=t, value_s=1.0 / noisy,
                      sigma_s=sigma_s)


def synthetic_t1_series(
    gamma_plateau_per_s: float,
    tc_kelvin: float,
    amplitude_per_s: float,
    temperatures_k: np.ndarray,
    noise_fraction: float = 0.05,
    seed: int = 0,
) -> DataSeries:
    """T1(T) points drawn from the relaxation-rate model with Gaussian noise."""
    t = np.asarray(temperatures_k, dtype=float)
    rates = t1_rate_model(t, gamma_plateau_per_s, tc_kelvin, amplitude_per_s)
    return _noisy_series("t1", t, rates, noise_fraction, seed)


def synthetic_t2_series(
    n0: float,
    gamma_offset_per_s: float,
    chi_mhz: float,
    kappa_mhz: float,
    nu_r_ghz: float,
    t1_model,
    temperatures_k: np.ndarray,
    noise_fraction: float = 0.05,
    seed: int = 0,
) -> DataSeries:
    """T2*(T) points drawn from the Ramsey rate model with Gaussian noise."""
    t = np.asarray(temperatures_k, dtype=float)
    rates = t2_rate_model(
        t, n0, gamma_offset_per_s, chi_mhz, kappa_mhz, nu_r_ghz, t1_model
    )
    return _noisy_series("t2star", t, rates, noise_fraction, seed)


# quasiparticle decay coefficient (rate at x_qp = 1) of the two example
# devices, frozen so the shipped CSVs regenerate byte for byte
_DECAY_COEFF_1NP = 35869.33484 / 8e-7
_DECAY_COEFF_1P = 32114.29584 / 8e-7


def write_example_datasets(out_dir: str | Path) -> list[Path]:
    """Regenerate the bundled example CSVs under ``out_dir``.

    Writes t1_vs_temperature_1np.csv, t1_vs_temperature_1p.csv, and
    t2star_vs_temperature_1p.csv with the seeds and truth parameters the
    shipped files were drawn from, and returns the paths written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    temps_t1 = np.linspace(0.025, 0.35, 14)

    t1_1np = synthetic_t1_series(
        1e6 / 12.0, 1.31, _DECAY_COEFF_1NP, temps_t1,
        noise_fraction=0.05, seed=42,
    )
    t1_1p = synthetic_t1_series(
        1e6 / 45.0, 1.31, _DECAY_COEFF_1P, temps_t1,
        noise_fraction=0.05, seed=44,
    )

    def t1_model(t_kelvin: float) -> float:
        rate = t1_rate_model(
            np.asarray([t_kelvin]), 1e6 / 45.0, 1.31, _DECAY_COEFF_1P
        )
        return 1.0 / float(rate[0])

    t2_1p = synthetic_t2_series(
        0.027, 2.0e4, 0.55, 0.36, 7.24, t1_model,
        np.linspace(0.025, 0.25, 12), noise_fraction=0.03, seed=43,
    )

    paths = []
    for name, series in (
        ("t1_vs_temperature_1np.csv", t1_1np),
        ("t1_vs_temperature_1p.csv", t1_1p),
        ("t2star_vs_temperature_1p.csv", t2_1p),
    ):
        path = out_dir / name
        dataseries_to_csv(series, path)
        paths.append(path)
    return paths
