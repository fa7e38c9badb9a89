"""Synthetic coherence-vs-temperature datasets for demos and round trips."""

from __future__ import annotations

import numpy as np

from ._dephasing import t2_rate_model
from .errors import non_negative
from .fitting import DataSeries, t1_rate_model


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
