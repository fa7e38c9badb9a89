"""Photon shot-noise dephasing, resonator thermometry and the T2*(T) fit.

Of the fits only ``fit t2`` runs this code, so it is a module of its own
that ``fit t1`` never compiles.  :mod:`qpgap.fitting` resolves each of its
public names on first access.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from ._record import Record
from .errors import DomainError, non_negative, positive
from .fitting import DataSeries, FitResult, _fit_report, _weighted
from .numerics import sort_median
from .thermal import bose_occupation, temperature_from_occupation


def shot_noise_dephasing(
    chi_mhz: float, kappa_mhz: float, n_th: float
) -> float:
    """Photon shot-noise dephasing rate (1/s) of a dispersively read qubit.

    Gamma_phi = (kappa/2) Re[sqrt((1 + 2 i chi/kappa)^2 +
    8 i chi n_th / kappa) - 1], with chi and kappa converted to angular
    rates internally.  Exactly zero at n_th = 0.
    """
    n_th_array = np.array([n_th], dtype=float)
    shot = _shot_noise_root(chi_mhz, kappa_mhz, n_th_array)
    return float(_shot_noise_rates(kappa_mhz, shot)[0])


def _shot_noise_root(chi_mhz: float, kappa_mhz: float, n_th: np.ndarray):
    """n_th, r = 2 chi/kappa and sqrt((1 + i r)^2 + 4 i r n_th) per photon
    number, the terms the shot-noise rates and their slopes share.

    Raises :class:`DomainError` unless kappa > 0 and every n_th >= 0.
    """
    positive("kappa", kappa_mhz)
    negative = n_th < 0
    if negative.any():
        raise DomainError(f"n_th must be non-negative, got {n_th[negative][0]}")
    ratio = 2.0 * chi_mhz / kappa_mhz
    return n_th, ratio, np.sqrt((1.0 + 1j * ratio) ** 2 + 4j * ratio * n_th)


def _shot_noise_rates(kappa_mhz: float, shot) -> np.ndarray:
    """:func:`shot_noise_dephasing` over the photon numbers of ``shot``, a
    :func:`_shot_noise_root`."""
    n_th, _, root = shot
    kappa_angular = 2.0 * math.pi * kappa_mhz * 1e6
    rates = (kappa_angular / 2.0) * (root - 1.0).real
    rates[n_th == 0.0] = 0.0
    return rates


def _shot_noise_slopes(kappa_mhz: float, shot) -> np.ndarray:
    """d Gamma_phi / d n_th = kappa_angular Re[i r / sqrt(inner)]."""
    _, ratio, root = shot
    kappa_angular = 2.0 * math.pi * kappa_mhz * 1e6
    return kappa_angular * (1j * ratio / root).real


class ThermometryResult(Record):
    """Photon occupation and effective temperature behind a dephasing rate."""

    __slots__ = ("n_th", "temperature_k", "at_lower_limit")


def resonator_thermometry(
    gamma_phi_per_s: float,
    chi_mhz: float,
    kappa_mhz: float,
    nu_r_ghz: float,
) -> ThermometryResult:
    """Invert the shot-noise rate to a photon number and temperature.

    The inversion of :func:`shot_noise_dephasing` is exact: with
    r = 2|chi|/kappa and x = Gamma_phi/(pi kappa) (kappa in Hz), the square
    root there has real part a = 1 + x, which gives
    n_th = x(2 + x)(a^2 + r^2) / (2r(a sqrt(x(2 + x) + r^2) + r)), a form
    without cancellation.  The Bose inversion then gives the temperature.
    A zero rate returns the n_th = 0, T = 0 lower limit with the flag set.
    """
    non_negative("rate", gamma_phi_per_s)
    positive("kappa", kappa_mhz)
    if chi_mhz == 0.0:
        raise DomainError("chi = 0 MHz: the rate does not depend on n_th")
    if gamma_phi_per_s == 0.0:
        return ThermometryResult(n_th=0.0, temperature_k=0.0, at_lower_limit=True)
    r = 2.0 * abs(chi_mhz) / kappa_mhz
    x = gamma_phi_per_s / (math.pi * kappa_mhz * 1e6)
    a = 1.0 + x
    growth = x * (2.0 + x)
    root = a * math.sqrt(growth + r * r) + r
    n_th = growth * (a * a + r * r) / (2.0 * r * root)
    if not math.isfinite(n_th):
        raise DomainError(f"n_th for {gamma_phi_per_s} 1/s is out of float range")
    return ThermometryResult(
        n_th=n_th,
        temperature_k=temperature_from_occupation(nu_r_ghz, n_th),
        at_lower_limit=False,
    )


def pure_dephasing_from_echo(t2star_s: float, t2echo_s: float) -> float:
    """Pure dephasing rate (1/s) from Ramsey and echo coherence times."""
    positive("T2*", t2star_s)
    positive("T2echo", t2echo_s)
    if t2star_s > t2echo_s:
        raise DomainError(
            f"T2* = {t2star_s:g} s exceeds T2echo = {t2echo_s:g} s; "
            "the pure dephasing rate would be negative"
        )
    return 1.0 / t2star_s - 1.0 / t2echo_s


def t2_rate_model(
    t_kelvin: np.ndarray,
    n0: float,
    gamma_offset_per_s: float,
    chi_mhz: float,
    kappa_mhz: float,
    nu_r_ghz: float,
    t1_model: Callable[[float], float],
) -> np.ndarray:
    """Ramsey rate model: T1 contribution, photon shot noise, and an offset."""
    terms = _t2_terms(np.asarray(t_kelvin, dtype=float), nu_r_ghz, t1_model)
    shot = _t2_shot(terms, n0, chi_mhz, kappa_mhz)
    return _t2_rates(terms, shot, gamma_offset_per_s, kappa_mhz)


def _t2_terms(
    t: np.ndarray, nu_r_ghz: float, t1_model: Callable[[float], float]
) -> tuple[np.ndarray, np.ndarray]:
    """The parameter-free parts of the T2* model at each temperature.

    Returns the T1 contribution 1/(2 T1) and the readout mode's Bose
    occupation, calling ``t1_model`` once per point in order.
    """
    t1_term = np.empty(len(t))
    occupation = np.empty(len(t))
    for i, temperature in enumerate(t.tolist()):
        t1_seconds = t1_model(temperature)
        if not t1_seconds > 0:
            raise DomainError(
                f"T1 model gives {t1_seconds} s at {temperature} K"
            )
        t1_term[i] = 1.0 / (2.0 * t1_seconds)
        occupation[i] = bose_occupation(nu_r_ghz, temperature)
    return t1_term, occupation


def _t2_shot(terms, n0, chi_mhz, kappa_mhz):
    """The :func:`_shot_noise_root` at n_th = occupation + n0."""
    return _shot_noise_root(chi_mhz, kappa_mhz, terms[1] + n0)


def _t2_rates(terms, shot, gamma_offset_per_s, kappa_mhz) -> np.ndarray:
    """The T2* rate model on precomputed :func:`_t2_terms` and
    :func:`_t2_shot`."""
    shot_noise = _shot_noise_rates(kappa_mhz, shot)
    return terms[0] + shot_noise + gamma_offset_per_s


def _t2_jacobian(shot, kappa_mhz) -> np.ndarray:
    """Columns d/dn0 and d/dgamma_offset of :func:`_t2_rates`."""
    jac = np.empty((len(shot[0]), 2))
    jac[:, 0] = _shot_noise_slopes(kappa_mhz, shot)
    jac[:, 1] = 1.0
    return jac


def _t2_problem(data: DataSeries, chi_mhz, kappa_mhz, terms):
    """Weighted residual and Jacobian callables of a T2*(T) fit.

    Both take the shot-noise terms from a one-entry memo keyed by n0, so
    the Jacobian at an accepted point, and the covariance's at the
    optimum, reuse the terms of the residual call that accepted it.  The
    occupations are not negative, so n0 = 0 and -0 give the same bits.
    """
    shot = functools.lru_cache(maxsize=1)(
        lambda n0: _t2_shot(terms, n0, chi_mhz, kappa_mhz))
    return _weighted(
        lambda params: _t2_rates(terms, shot(params[0]), params[1], kappa_mhz),
        lambda params: _t2_jacobian(shot(params[0]), kappa_mhz),
        *data.rates(),
    )


def fit_t2_vs_temperature(
    data: DataSeries,
    chi_mhz: float,
    kappa_mhz: float,
    nu_r_ghz: float,
    t1_model: Callable[[float], float],
) -> FitResult:
    """Fit excess photon number and a residual dephasing offset to T2*(T).

    The model is 1/T2*(T) = 1/(2 T1(T)) + Gamma_phi(chi, kappa,
    n_th(T) + n0) + gamma_offset, with n_th(T) the Bose occupation of the
    readout mode.  The derived block reports the effective resonator
    temperature whose occupation equals the fitted n0.  ``t1_model`` is
    called once per distinct data temperature.
    """
    if data.kind != "t2star":
        raise DomainError(f"expected a t2star series, got {data.kind!r}")
    if len(data) < 3:
        raise DomainError(f"need at least 3 points, got {len(data)}")
    # the T1 term and the Bose occupations do not depend on the fitted
    # parameters; repeated temperatures share one t1_model call
    terms = _t2_terms(data.t_kelvin, nu_r_ghz, functools.cache(t1_model))
    base = _t2_rates(terms, _t2_shot(terms, 0.0, chi_mhz, kappa_mhz), 0.0,
                     kappa_mhz)
    excess = data.rates()[0] - base
    offset0 = max(float(np.min(excess)), 0.0)
    slope = shot_noise_dephasing(chi_mhz, kappa_mhz, 1e-6) / 1e-6
    if not slope > 0:
        raise DomainError(
            f"chi = {chi_mhz} MHz leaves T2* insensitive to the photon number"
        )
    n0_guess = (float(sort_median(excess)) - offset0) / slope
    n0_guess = min(max(n0_guess, 1e-4), 0.5)
    guess = np.array([n0_guess, offset0])
    bounds = [(0.0, 2.0), (0.0, np.inf)]
    # looked up at each call: the solver lives in .fitting alone
    from .fitting import least_squares

    lm = least_squares(
        *_t2_problem(data, chi_mhz, kappa_mhz, terms), guess, bounds=bounds
    )

    n0 = float(lm.x[0])
    derived = {}
    if n0 > 0:
        derived["t_resonator_effective_K"] = temperature_from_occupation(
            nu_r_ghz, n0
        )
    return _fit_report(
        "t2star_vs_temperature", ("n0", "gamma_offset_per_s"), lm, len(data),
        derived,
        lambda t_kelvin, *params: t2_rate_model(
            t_kelvin, *params, chi_mhz, kappa_mhz, nu_r_ghz, t1_model
        ),
    )
