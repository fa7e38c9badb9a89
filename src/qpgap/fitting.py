"""Weighted nonlinear least squares and the coherence-vs-temperature models.

The Levenberg-Marquardt engine is self-contained: forward-difference
Jacobian, Marquardt diagonal scaling, box bounds by step clipping, and
deterministic float-for-float behavior.  Data series are sorted on load so
a fit is invariant under any reordering of its input points.
"""

from __future__ import annotations

import cmath
import csv
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    RankDeficiencyError,
)
from .thermal import bose_occupation, delta_from_tc, thermal_qp_term, temperature_from_occupation
from .quasiparticles import crossover_temperature

_SERIES_KINDS = ("t1", "t2star", "t2echo")

DEFAULT_REL_STEP = 1e-6
DEFAULT_STEP_TOL = 1e-10
DEFAULT_SSR_TOL = 1e-12
DEFAULT_MAX_ITER = 200

_LAMBDA_INIT = 1e-3
_LAMBDA_UP = 10.0
_LAMBDA_DOWN = 10.0
_LAMBDA_MAX = 1e14


@dataclass(frozen=True)
class DataSeries:
    """Measured coherence times versus temperature.

    Values are stored in seconds; points are sorted by (T, value, sigma)
    at construction so that fits do not depend on input order.
    """

    kind: str
    t_kelvin: np.ndarray
    value_s: np.ndarray
    sigma_s: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _SERIES_KINDS:
            raise DomainError(
                f"kind must be one of {_SERIES_KINDS}, got {self.kind!r}"
            )
        t = np.asarray(self.t_kelvin, dtype=float)
        v = np.asarray(self.value_s, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or len(t) == 0:
            raise DomainError("T and value arrays must be equal-length 1-d")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
            raise DomainError("temperatures and values must be finite")
        if np.any(t <= 0) or np.any(v <= 0):
            raise DomainError("temperatures and values must be positive")
        s = self.sigma_s
        if s is not None:
            s = np.asarray(s, dtype=float)
            if s.shape != t.shape:
                raise DomainError("sigma array must match data length")
            if not np.isfinite(s).all():
                raise DomainError("sigmas must be finite")
            if np.any(s <= 0):
                raise DomainError("sigmas must be positive")
        if not _rates_finite(v, s).all():
            raise DomainError("rate (1/value) or its sigma overflows")
        order = np.lexsort(
            (s if s is not None else np.zeros_like(t), v, t)
        )
        object.__setattr__(self, "t_kelvin", t[order])
        object.__setattr__(self, "value_s", v[order])
        object.__setattr__(
            self, "sigma_s", s[order] if s is not None else None
        )

    def __len__(self) -> int:
        return len(self.t_kelvin)

    def rates(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(rate, sigma_rate) view of the series in 1/s."""
        rate = 1.0 / self.value_s
        if self.sigma_s is None:
            return rate, None
        return rate, self.sigma_s / self.value_s**2


def _rates_finite(value_s: np.ndarray, sigma_s: np.ndarray | None) -> np.ndarray:
    """Per point: are the rate 1/value and its sigma sigma/value**2 finite?"""
    with np.errstate(over="ignore", divide="ignore"):
        finite = np.isfinite(1.0 / value_s)
        if sigma_s is not None:
            finite &= np.isfinite(sigma_s / value_s**2)
    return finite


def dataseries_from_csv(path: str | Path, kind: str) -> DataSeries:
    """Load a series from CSV with columns T_K, value_us|rate_per_s[, sigma].

    ``sigma`` shares the unit of the value column.  Raises
    :class:`ConfigError` naming the offending row on malformed input.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    reader = csv.DictReader(text.splitlines())
    if reader.fieldnames is None:
        raise ConfigError(f"{path}: empty file")
    fields = [name.strip() for name in reader.fieldnames]
    if "T_K" not in fields:
        raise ConfigError(f"{path}: missing required column T_K")
    has_us = "value_us" in fields
    has_rate = "rate_per_s" in fields
    if has_us == has_rate:
        raise ConfigError(
            f"{path}: need exactly one of value_us or rate_per_s columns"
        )
    value_col = "value_us" if has_us else "rate_per_s"
    has_sigma = "sigma" in fields
    t, v, s = [], [], []
    for row_number, row in enumerate(reader, start=2):
        try:
            t_k = float(row["T_K"])
            raw = float(row[value_col])
            sigma_raw = float(row["sigma"]) if has_sigma else None
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(
                f"{path}: malformed row {row_number}: {dict(row)}",
            ) from exc
        numbers = [t_k, raw] + ([sigma_raw] if has_sigma else [])
        if not all(map(math.isfinite, numbers)):
            raise ConfigError(
                f"{path}: non-finite value in row {row_number}: "
                f"{dict(row)}"
            )
        if raw <= 0:
            raise ConfigError(
                f"{path}: non-positive value in row {row_number}"
            )
        if has_us:
            value = raw * 1e-6
            sigma = sigma_raw * 1e-6 if sigma_raw is not None else None
        elif sigma_raw is None:
            value, sigma = 1.0 / raw, None
        else:
            try:
                value, sigma = 1.0 / raw, sigma_raw / raw**2
            except (OverflowError, ZeroDivisionError):
                raise ConfigError(
                    f"{path}: rate out of range in row {row_number}"
                ) from None
        t.append(t_k)
        v.append(value)
        s.append(sigma)
    if not t:
        raise ConfigError(f"{path}: no data rows")
    value_arr = np.array(v)
    sigma_arr = np.array(s, dtype=float) if has_sigma else None
    overflowing = ~_rates_finite(value_arr, sigma_arr)
    if overflowing.any():
        row_number = int(np.argmax(overflowing)) + 2
        raise ConfigError(f"{path}: rate out of range in row {row_number}")
    return DataSeries(
        kind=kind,
        t_kelvin=np.array(t),
        value_s=value_arr,
        sigma_s=sigma_arr,
    )


def dataseries_to_csv(series: DataSeries, path: str | Path) -> None:
    """Write a series as CSV with T_K and value_us (plus sigma when set)."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        header = ["T_K", "value_us"]
        if series.sigma_s is not None:
            header.append("sigma")
        writer.writerow(header)
        for i in range(len(series)):
            row = [f"{series.t_kelvin[i]:.6g}", f"{series.value_s[i] * 1e6:.9g}"]
            if series.sigma_s is not None:
                row.append(f"{series.sigma_s[i] * 1e6:.9g}")
            writer.writerow(row)


@dataclass(frozen=True)
class LMResult:
    """Raw optimizer output: parameters, covariance, and diagnostics."""

    x: np.ndarray
    covariance: np.ndarray | None
    ssr: float
    iterations: int
    converged: bool

    def sigmas(self) -> np.ndarray:
        if self.covariance is None:
            return np.full(len(self.x), np.inf)
        return np.sqrt(np.diag(self.covariance))


def _forward_jacobian(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    r0: np.ndarray,
    rel_step: float,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    jac = np.empty((len(r0), len(x)))
    for j in range(len(x)):
        h = rel_step * (abs(x[j]) if x[j] != 0.0 else 1.0)
        if x[j] + h > upper[j]:
            h = -h
        probe = x.copy()
        probe[j] = min(max(x[j] + h, lower[j]), upper[j])
        actual = probe[j] - x[j]
        if actual == 0.0:
            raise DomainError(
                f"parameter {j} is pinned by its bounds; cannot differentiate"
            )
        jac[:, j] = (residual_fn(probe) - r0) / actual
    return jac


def least_squares(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    bounds: Sequence[tuple[float, float]] | None = None,
    rel_step: float = DEFAULT_REL_STEP,
    max_iter: int = DEFAULT_MAX_ITER,
    step_tol: float = DEFAULT_STEP_TOL,
    ssr_tol: float = DEFAULT_SSR_TOL,
) -> LMResult:
    """Levenberg-Marquardt minimization of a residual vector.

    Iterates damped normal-equation steps with Marquardt scaling until the
    relative step falls below ``step_tol`` or the relative decrease of the
    squared residual falls below ``ssr_tol``.  Box bounds are handled by an
    active set: parameters pinned at a bound with the gradient pointing
    outward are frozen for that iteration, and accepted steps are clipped
    back into the box.

    Raises
    ------
    RankDeficiencyError
        If a model parameter leaves the residuals exactly unchanged, which
        makes the scaled normal equations singular.
    ConvergenceError
        When the iteration cap is exhausted; carries the best parameters.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = len(x)
    if bounds is None:
        lower = np.full(n, -np.inf)
        upper = np.full(n, np.inf)
    else:
        if len(bounds) != n:
            raise DomainError("bounds length must match parameter count")
        lower = np.array([b[0] for b in bounds], dtype=float)
        upper = np.array([b[1] for b in bounds], dtype=float)
    if np.any(x < lower) or np.any(x > upper):
        raise DomainError(f"initial guess {x.tolist()} violates bounds")

    residual = np.asarray(residual_fn(x), dtype=float)
    ssr = float(residual @ residual)
    lam = _LAMBDA_INIT
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        jac = _forward_jacobian(residual_fn, x, residual, rel_step, lower, upper)
        normal = jac.T @ jac
        gradient = jac.T @ residual
        diag = np.diag(normal).copy()
        if np.any(diag == 0.0):
            dead = int(np.flatnonzero(diag == 0.0)[0])
            raise RankDeficiencyError(
                f"parameter {dead} has zero influence on the residuals",
                best=LMResult(x, None, ssr, iterations, False),
            )
        free = ~(
            ((x <= lower) & (gradient > 0.0))
            | ((x >= upper) & (gradient < 0.0))
        )
        if not np.any(free):
            # every parameter is pinned at a bound that the gradient
            # pushes against: a constrained stationary point
            converged = True
            break
        accepted = False
        while lam <= _LAMBDA_MAX:
            damped = normal[np.ix_(free, free)] + lam * np.diag(diag[free])
            try:
                delta_free = np.linalg.solve(damped, -gradient[free])
            except np.linalg.LinAlgError:
                lam *= _LAMBDA_UP
                continue
            delta = np.zeros(n)
            delta[free] = delta_free
            trial = np.clip(x + delta, lower, upper)
            step = trial - x
            trial_residual = np.asarray(residual_fn(trial), dtype=float)
            trial_ssr = float(trial_residual @ trial_residual)
            if trial_ssr <= ssr:
                rel_change = (ssr - trial_ssr) / max(ssr, 1e-300)
                rel_move = float(
                    np.max(np.abs(step) / np.maximum(np.abs(x), 1e-300))
                )
                x = trial
                residual = trial_residual
                ssr = trial_ssr
                lam = max(lam / _LAMBDA_DOWN, 1e-12)
                accepted = True
                if rel_move < step_tol or rel_change < ssr_tol:
                    converged = True
                break
            lam *= _LAMBDA_UP
        if not accepted:
            # No downhill direction at any damping: a stationary point.
            converged = True
        if converged:
            break

    covariance = _covariance(residual_fn, x, residual, ssr, rel_step, lower, upper)
    result = LMResult(
        x=x,
        covariance=covariance,
        ssr=ssr,
        iterations=iterations,
        converged=converged,
    )
    if not converged:
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations (ssr={ssr:.6e})",
            best=result,
        )
    return result


def _covariance(residual_fn, x, residual, ssr, rel_step, lower, upper):
    m, n = len(residual), len(x)
    jac = _forward_jacobian(residual_fn, x, residual, rel_step, lower, upper)
    normal = jac.T @ jac
    try:
        inverse = np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(inverse)):
        return None
    scale = ssr / (m - n) if m > n else ssr
    return inverse * scale


@dataclass(frozen=True)
class FitResult:
    """Named parameters with one-sigma uncertainties and derived quantities.

    ``rate(t_kelvin)`` evaluates the fitted rate model (1/s) at the fitted
    parameter values.
    """

    model: str
    param_names: tuple[str, ...]
    values: dict[str, float]
    sigmas: dict[str, float]
    covariance: np.ndarray | None = field(repr=False)
    ssr: float
    n_points: int
    iterations: int
    derived: dict[str, float]
    rate: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)

    def to_report(self) -> dict:
        return {
            "model": self.model,
            "params": {k: self.values[k] for k in self.param_names},
            "sigmas": {k: self.sigmas[k] for k in self.param_names},
            "derived": dict(self.derived),
            "ssr": self.ssr,
            "n_points": self.n_points,
            "iterations": self.iterations,
        }


def _weighted_residual(model_fn, rates, sigma_rates):
    weights = 1.0 / sigma_rates if sigma_rates is not None else None

    def residual(params: np.ndarray) -> np.ndarray:
        diff = model_fn(params) - rates
        return diff * weights if weights is not None else diff

    return residual


def t1_rate_model(
    t_kelvin: np.ndarray,
    gamma_plateau_per_s: float,
    tc_kelvin: float,
    amplitude_per_s: float,
) -> np.ndarray:
    """Relaxation-rate model: plateau plus thermally activated term."""
    delta = delta_from_tc(tc_kelvin)
    t = np.asarray(t_kelvin, dtype=float)
    # far outside the data range the thermal term saturates to 0 or inf
    with np.errstate(over="ignore", divide="ignore"):
        ratio = delta / t
        thermal = np.sqrt(2.0 * np.pi / ratio) * np.exp(-ratio)
    return gamma_plateau_per_s + amplitude_per_s * thermal


def _t1_initial_guess(t, rates):
    plateau = float(np.median(rates[: max(3, len(rates) // 4)]))
    plateau = max(plateau, 1e-12)
    tc_fallback = 1.3
    t_a, t_b = t[-2], t[-1]
    rise_a = rates[-2] - plateau
    rise_b = rates[-1] - plateau
    delta0 = delta_from_tc(tc_fallback)
    if rise_a > 0 and rise_b > rise_a and t_b > t_a:
        estimate = (math.log(rise_b / rise_a) - 0.5 * math.log(t_b / t_a)) / (
            1.0 / t_a - 1.0 / t_b
        )
        if 0.1 < estimate < 50.0:
            delta0 = estimate
    tc0 = delta0 / delta_from_tc(1.0)
    thermal_b = thermal_qp_term(t_b, delta0)
    amplitude0 = rise_b / thermal_b if rise_b > 0 and thermal_b > 0 else plateau
    amplitude0 = max(amplitude0, plateau)
    return np.array([plateau, tc0, amplitude0])


def fit_t1_vs_temperature(data: DataSeries) -> FitResult:
    """Fit the relaxation-rate model to a T1(T) series.

    The model is Gamma1(T) = Gamma_plateau + A sqrt(2 pi T / Delta)
    exp(-Delta/T) with Delta = bcs_ratio * Tc.  Derived outputs: the
    inferred non-equilibrium fraction x_nqp = Gamma_plateau / A with its
    propagated uncertainty, and the thermal crossover temperature.

    Preconditions: at least four points spanning max(T) > 1.5 min(T).
    """
    if data.kind != "t1":
        raise DomainError(f"expected a t1 series, got {data.kind!r}")
    if len(data) < 4:
        raise DomainError(f"need at least 4 points, got {len(data)}")
    t = data.t_kelvin
    if t[-1] <= 1.5 * t[0]:
        raise DomainError(
            f"temperature span too small: max {t[-1]:.4g} K <= "
            f"1.5 x min {t[0]:.4g} K"
        )
    rates, sigma_rates = data.rates()

    def model(params: np.ndarray) -> np.ndarray:
        return t1_rate_model(t, params[0], params[1], params[2])

    residual = _weighted_residual(model, rates, sigma_rates)
    guess = _t1_initial_guess(t, rates)
    bounds = [(0.0, np.inf), (0.05, 20.0), (1e-300, np.inf)]
    lm = least_squares(residual, guess, bounds=bounds)

    names = ("gamma_plateau_per_s", "tc_K", "amplitude_per_s")
    values = dict(zip(names, (float(v) for v in lm.x)))
    sigmas = dict(zip(names, (float(s) for s in lm.sigmas())))
    plateau, tc, amplitude = lm.x
    x_nqp = plateau / amplitude
    derived = {"x_nqp_inferred": float(x_nqp)}
    if lm.covariance is not None:
        grad = np.array([1.0 / amplitude, 0.0, -plateau / amplitude**2])
        variance = float(grad @ lm.covariance @ grad)
        derived["x_nqp_sigma"] = math.sqrt(max(variance, 0.0))
    if x_nqp > 0:
        derived["crossover_K"] = crossover_temperature(
            x_nqp, delta_from_tc(tc)
        )
    return FitResult(
        model="t1_vs_temperature",
        param_names=names,
        values=values,
        sigmas=sigmas,
        covariance=lm.covariance,
        ssr=lm.ssr,
        n_points=len(data),
        iterations=lm.iterations,
        derived=derived,
        rate=lambda t_kelvin: t1_rate_model(t_kelvin, *values.values()),
    )


def shot_noise_dephasing(
    chi_mhz: float, kappa_mhz: float, n_th: float
) -> float:
    """Photon shot-noise dephasing rate (1/s) of a dispersively read qubit.

    Gamma_phi = (kappa/2) Re[sqrt((1 + 2 i chi/kappa)^2 +
    8 i chi n_th / kappa) - 1], with chi and kappa converted to angular
    rates internally.  Exactly zero at n_th = 0.
    """
    if kappa_mhz <= 0:
        raise DomainError(f"kappa must be positive, got {kappa_mhz}")
    if n_th < 0:
        raise DomainError(f"n_th must be non-negative, got {n_th}")
    if n_th == 0.0:
        return 0.0
    ratio = 2.0 * chi_mhz / kappa_mhz
    inner = (1.0 + 1j * ratio) ** 2 + 4j * ratio * n_th
    kappa_angular = 2.0 * math.pi * kappa_mhz * 1e6
    return (kappa_angular / 2.0) * (cmath.sqrt(inner) - 1.0).real


@dataclass(frozen=True)
class ThermometryResult:
    """Photon occupation and effective temperature behind a dephasing rate."""

    n_th: float
    temperature_k: float
    at_lower_limit: bool


def resonator_thermometry(
    gamma_phi_per_s: float,
    chi_mhz: float,
    kappa_mhz: float,
    nu_r_ghz: float,
) -> ThermometryResult:
    """Invert the shot-noise rate to a photon number and temperature.

    The dephasing rate is strictly monotone in n_th, so the inversion is a
    bracketed root find on n_th in [0, 10], followed by the Bose inversion
    for the temperature.  A zero rate returns the n_th = 0, T = 0 lower
    limit with the flag set.
    """
    if gamma_phi_per_s < 0:
        raise DomainError(f"rate must be non-negative, got {gamma_phi_per_s}")
    if gamma_phi_per_s == 0.0:
        return ThermometryResult(n_th=0.0, temperature_k=0.0, at_lower_limit=True)
    from .numerics import root_find

    n_th = root_find(
        lambda n: shot_noise_dephasing(chi_mhz, kappa_mhz, n) - gamma_phi_per_s,
        0.0,
        10.0,
        abs_tol=1e-12,
    )
    return ThermometryResult(
        n_th=n_th,
        temperature_k=temperature_from_occupation(nu_r_ghz, n_th),
        at_lower_limit=False,
    )


def pure_dephasing_from_echo(t2star_s: float, t2echo_s: float) -> float:
    """Pure dephasing rate (1/s) from Ramsey and echo coherence times."""
    if t2star_s <= 0 or t2echo_s <= 0:
        raise DomainError("coherence times must be positive")
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
    t = np.asarray(t_kelvin, dtype=float)
    out = np.empty(len(t))
    for i, temperature in enumerate(t):
        t1_seconds = t1_model(float(temperature))
        if not t1_seconds > 0:
            raise DomainError(
                f"T1 model gives {t1_seconds} s at {temperature} K"
            )
        n_th = bose_occupation(nu_r_ghz, float(temperature)) + n0
        out[i] = (
            1.0 / (2.0 * t1_seconds)
            + shot_noise_dephasing(chi_mhz, kappa_mhz, n_th)
            + gamma_offset_per_s
        )
    return out


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
    t = data.t_kelvin
    rates, sigma_rates = data.rates()
    # the T1 term does not depend on the fitted parameters
    t1_at_point = functools.cache(t1_model)

    def model(params: np.ndarray) -> np.ndarray:
        return t2_rate_model(
            t, params[0], params[1], chi_mhz, kappa_mhz, nu_r_ghz, t1_at_point
        )

    residual = _weighted_residual(model, rates, sigma_rates)

    base = t2_rate_model(
        t, 0.0, 0.0, chi_mhz, kappa_mhz, nu_r_ghz, t1_at_point
    )
    excess = rates - base
    offset0 = max(float(np.min(excess)), 0.0)
    slope = shot_noise_dephasing(chi_mhz, kappa_mhz, 1e-6) / 1e-6
    if not slope > 0:
        raise DomainError(
            f"chi = {chi_mhz} MHz leaves T2* insensitive to the photon number"
        )
    n0_guess = (float(np.median(excess)) - offset0) / slope
    n0_guess = min(max(n0_guess, 1e-4), 0.5)
    guess = np.array([n0_guess, offset0])
    bounds = [(0.0, 2.0), (0.0, np.inf)]
    lm = least_squares(residual, guess, bounds=bounds)

    names = ("n0", "gamma_offset_per_s")
    values = dict(zip(names, (float(v) for v in lm.x)))
    sigmas = dict(zip(names, (float(s) for s in lm.sigmas())))
    derived = {}
    if values["n0"] > 0:
        derived["t_resonator_effective_K"] = temperature_from_occupation(
            nu_r_ghz, values["n0"]
        )
    return FitResult(
        model="t2star_vs_temperature",
        param_names=names,
        values=values,
        sigmas=sigmas,
        covariance=lm.covariance,
        ssr=lm.ssr,
        n_points=len(data),
        iterations=lm.iterations,
        derived=derived,
        rate=lambda t_kelvin: t2_rate_model(
            t_kelvin, *values.values(), chi_mhz, kappa_mhz, nu_r_ghz, t1_model
        ),
    )
