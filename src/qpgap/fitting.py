"""Coherence-vs-temperature data series, rate models and their fits.

``least_squares`` is a self-contained Levenberg-Marquardt engine: the
caller supplies the Jacobian in closed form, steps use Marquardt
diagonal scaling, box bounds are kept by step clipping, and the
iteration is deterministic float for float.  The numbers of an
iteration (J^T J, J^T r, the damped step, the clipped trial and its
residual) come from numpy array operations; its active-bound,
trial-finiteness and relative-step tests compare Python floats of the
few parameters.  Each fit hands it its weighted residuals together with
their Jacobian; so does the three-target (EJ, EC) refinement of
:func:`qpgap.transmon.fit_ej_ec`, which imports it on use.  Data series
are sorted on load so a fit is invariant under any reordering of its
input points.

The T2*(T) fit, its shot-noise model and the resonator thermometry live
in the private module ``_dephasing``, which only ``fit t2`` loads; their
names resolve here on first access.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
# np.linalg.solve's own gufunc for one right-hand side: called directly, it
# skips solve's argument checks and conversions, most of a 3x3 solve's cost
from numpy.linalg._umath_linalg import solve1 as _solve1

from ._record import Record
from .errors import (
    ConfigError, ConvergenceError, DomainError, RankDeficiencyError,
)
from .numerics import sort_median
from .thermal import delta_from_tc, thermal_crossover, thermal_qp_term

_SERIES_KINDS = ("t1", "t2star", "t2echo")
# the columns a data CSV may hold, in the order a row is read
_CSV_COLUMNS = ("T_K", "value_us", "rate_per_s", "sigma")

DEFAULT_MAX_ITER = 200
# the relative step and relative decrease of the squared residual that
# end a least-squares fit
_STEP_TOL = 1e-10
_SSR_TOL = 1e-12

_LAMBDA_INIT = 1e-3
_LAMBDA_UP = 10.0
_LAMBDA_DOWN = 10.0
_LAMBDA_MAX = 1e14

# x + delta of an LM trial: a sum that overflows is a rejected trial, not a
# warning.  The decorated ufunc costs half of a with-statement's errstate.
_add_quietly = np.errstate(over="ignore")(np.add)


class LMResult(Record):
    """Raw optimizer output: parameters, covariance, and diagnostics."""

    __slots__ = ("x", "covariance", "ssr", "iterations", "converged")

    def sigmas(self) -> np.ndarray:
        if self.covariance is None:
            return np.full(len(self.x), np.inf)
        return np.sqrt(np.diag(self.covariance))


def least_squares(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    bounds: Sequence[tuple[float, float]] | None = None,
) -> LMResult:
    """Levenberg-Marquardt minimization of a residual vector.

    ``jacobian_fn(x)`` returns the (residuals, parameters) matrix of
    derivatives of ``residual_fn`` at ``x``.  Iterates damped
    normal-equation steps with Marquardt scaling until the relative step
    falls below 1e-10 or the relative decrease of the squared residual
    falls below 1e-12, for at most ``DEFAULT_MAX_ITER`` iterations.  Box
    bounds (infinite without ``bounds``) are handled by an active set:
    parameters pinned at a bound with the gradient pointing outward are
    frozen for that iteration, and accepted steps are clipped back into
    the box, so a parameter fixed by equal bounds stays where it is.  The
    covariance comes from the Jacobian at the optimum.

    Raises
    ------
    DomainError
        If the initial guess is not finite or lies outside the bounds.
    RankDeficiencyError
        If a Jacobian column is exactly zero (a parameter that leaves the
        residuals unchanged), which makes the scaled normal equations
        singular.
    ConvergenceError
        When the iteration cap is exhausted; carries the best parameters.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = len(x)
    if not np.isfinite(x).all():
        raise DomainError(f"initial guess {x.tolist()} is not finite")
    if bounds is None:
        bounds = [(-math.inf, math.inf)] * n
    if len(bounds) != n:
        raise DomainError("bounds length must match parameter count")
    lower = np.array([b[0] for b in bounds], dtype=float)
    upper = np.array([b[1] for b in bounds], dtype=float)
    if np.any(x < lower) or np.any(x > upper):
        raise DomainError(f"initial guess {x.tolist()} violates bounds")
    # the bound, finiteness and step tests of an iteration compare a few
    # Python floats, the IEEE comparisons of numpy's at less cost per call
    limits = list(zip(lower.tolist(), upper.tolist()))
    xs = x.tolist()

    residual = np.asarray(residual_fn(x), dtype=float)
    ssr = float(residual @ residual)
    lam = _LAMBDA_INIT
    converged = False
    iterations = 0

    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        jac = np.asarray(jacobian_fn(x), dtype=float)
        normal = jac.T @ jac
        gradient = jac.T @ residual
        diag = normal.diagonal()
        if not diag.all():
            dead = int(np.flatnonzero(diag == 0.0)[0])
            raise RankDeficiencyError(
                f"parameter {dead} has zero influence on the residuals",
                best=LMResult(x, None, ssr, iterations, False),
            )
        # parameters at a bound that the gradient pushes against are
        # frozen; the system shrinks to the free ones only when one is
        free = None
        pinned = [
            (v <= lo and g > 0.0) or (v >= hi and g < 0.0)
            for v, g, (lo, hi) in zip(xs, gradient.tolist(), limits)
        ]
        if any(pinned):
            if all(pinned):
                # a constrained stationary point
                converged = True
                break
            free = [i for i, frozen in enumerate(pinned) if not frozen]
        if free is None:
            reduced, scaling, descent = normal, np.diag(diag), -gradient
        else:
            reduced = normal[free][:, free]
            scaling = np.diag(diag[free])
            descent = -gradient[free]
        # the damping loop only rescales the diagonal term
        accepted = False
        while lam <= _LAMBDA_MAX:
            try:
                delta = _solve(reduced + lam * scaling, descent)
            except np.linalg.LinAlgError:
                lam *= _LAMBDA_UP
                continue
            if free is not None:
                full = np.zeros(n)
                full[free] = delta
                delta = full
            trial = _clip(_add_quietly(x, delta), lower, upper)
            trial_xs = trial.tolist()
            if not all(map(math.isfinite, trial_xs)):
                # an overflowed step: the models reject a NaN or inf
                # parameter, so it is a failed trial, not an evaluation
                lam *= _LAMBDA_UP
                continue
            trial_residual = np.asarray(residual_fn(trial), dtype=float)
            trial_ssr = float(trial_residual @ trial_residual)
            if trial_ssr <= ssr:
                rel_change = (ssr - trial_ssr) / max(ssr, 1e-300)
                # x and trial are finite, so no NaN meets max
                rel_move = max(
                    abs(t - v) / max(abs(v), 1e-300)
                    for t, v in zip(trial_xs, xs)
                )
                x, xs = trial, trial_xs
                residual = trial_residual
                ssr = trial_ssr
                lam = max(lam / _LAMBDA_DOWN, 1e-12)
                accepted = True
                if rel_move < _STEP_TOL or rel_change < _SSR_TOL:
                    converged = True
                break
            lam *= _LAMBDA_UP
        if not accepted:
            # No downhill direction at any damping: a stationary point.
            converged = True
        if converged:
            break

    result = LMResult(
        x=x,
        covariance=_covariance(jacobian_fn(x), ssr),
        ssr=ssr,
        iterations=iterations,
        converged=converged,
    )
    if not converged:
        raise ConvergenceError(
            f"no convergence after {DEFAULT_MAX_ITER} iterations "
            f"(ssr={ssr:.6e})",
            best=result,
        )
    return result


def _singular(err, flag):
    """The errstate callback of :func:`_solve`, numpy's for a singular solve."""
    raise np.linalg.LinAlgError("Singular matrix")


# a decorator, at half the per-call cost of a with-statement's errstate
@np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore",
             under="ignore")
def _solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(matrix, rhs)`` of a float64 square ``matrix``.

    The call solve makes, to the ``dd->d`` loop of
    ``numpy.linalg._umath_linalg.solve1`` under the same errstate, so the
    bits are solve's and a singular system raises LinAlgError.  The
    damped steps pass a fresh C-contiguous float64 matrix and a 1-d
    right-hand side, which solve's checks and conversions would accept
    unchanged.
    """
    return _solve1(matrix, rhs, signature="dd->d")


def _clip(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The bits of ``np.clip(x, lower, upper)``, NaN and signed zeros too,
    at half its call cost."""
    return np.minimum(np.maximum(x, lower), upper)


def _covariance(jac, ssr: float) -> np.ndarray | None:
    """Covariance ssr/(m - n) (J^T J)^-1, or None when J^T J is singular
    or the covariance leaves the float range."""
    jac = np.asarray(jac, dtype=float)
    m, n = jac.shape
    try:
        inverse = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        return None
    scale = ssr / (m - n) if m > n else ssr
    # an inf or NaN in the inverse stays non-finite in the product
    with np.errstate(over="ignore", invalid="ignore"):
        covariance = inverse * scale
    if not np.all(np.isfinite(covariance)):
        return None
    return covariance


class DataSeries(Record):
    """Measured coherence times versus temperature.

    Values are stored in seconds; points are sorted by (T, value, sigma)
    at construction so that fits do not depend on input order.
    """

    __slots__ = ("kind", "t_kelvin", "value_s", "sigma_s")

    def __init__(
        self,
        kind: str,
        t_kelvin: np.ndarray,
        value_s: np.ndarray,
        sigma_s: np.ndarray | None = None,
    ):
        if kind not in _SERIES_KINDS:
            raise DomainError(
                f"kind must be one of {_SERIES_KINDS}, got {kind!r}"
            )
        t = np.asarray(t_kelvin, dtype=float)
        v = np.asarray(value_s, dtype=float)
        s = None if sigma_s is None else np.asarray(sigma_s, dtype=float)
        if (t.ndim != 1 or len(t) == 0 or v.shape != t.shape
                or (s is not None and s.shape != t.shape)):
            raise DomainError("T, value and sigma must be equal-length 1-d")
        bad = _first_bad_point(t, v, s)
        if bad is not None:
            index, reason = bad
            raise DomainError(f"{reason} at point {index} (T = {t[index]} K)")
        order = np.lexsort((v, t) if s is None else (s, v, t))
        self._assign(kind, t[order], v[order], None if s is None else s[order])

    def __len__(self) -> int:
        return len(self.t_kelvin)

    def rates(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(rate, sigma_rate) view of the series in 1/s."""
        rate = 1.0 / self.value_s
        if self.sigma_s is None:
            return rate, None
        return rate, self.sigma_s / self.value_s**2


def _first_bad_point(
    t: np.ndarray, value_s: np.ndarray, sigma_s: np.ndarray | None
) -> tuple[int, str] | None:
    """The first point, in input order, that is not a valid measurement.

    Returns its index and the first check it fails, or None when every
    point passes: T, value and sigma must be finite, then positive, then
    the rate 1/value and its sigma sigma/value**2 finite and non-zero.
    A rate is the inverse of its value, so the same checks hold for a
    series given as rates.
    """
    given = np.array([t, value_s] if sigma_s is None else [t, value_s, sigma_s])
    with np.errstate(all="ignore"):
        rates = np.array([1.0 / value_s] if sigma_s is None
                         else [1.0 / value_s, sigma_s / value_s**2])
        checks = (
            ("non-finite value", np.isfinite(given).all(axis=0)),
            ("non-positive value", (given > 0).all(axis=0)),
            ("1/value or sigma/value**2 overflows or is zero: rate out of "
             "range", (np.isfinite(rates) & (rates != 0)).all(axis=0)),
        )
    valid = np.all([ok for _, ok in checks], axis=0)
    if valid.all():
        return None
    index = int(np.argmin(valid))
    return index, next(reason for reason, ok in checks if not ok[index])


def dataseries_from_csv(path: str | os.PathLike, kind: str) -> DataSeries:
    """Load a series from CSV with columns T_K, value_us|rate_per_s[, sigma].

    ``sigma`` shares the unit of the value column.  Raises
    :class:`ConfigError` naming the offending row on malformed input or a
    row longer than the header, and the offending column on a header that
    names a column twice or names one the loader does not read.
    """
    path = os.fspath(path)
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    # lines end at "\n" only, as text mode reads them: splitlines would
    # also split at form feeds, off the file's line numbers
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise ConfigError(f"{path}: empty file")
    reader.fieldnames = fields = [name.strip() for name in reader.fieldnames]
    # a repeated name would keep its last column, an unknown one (a
    # misspelt sigma) would be dropped without a word
    for i, name in enumerate(fields):
        if name not in _CSV_COLUMNS:
            raise ConfigError(
                f"{path}: unknown column {name!r}; expected "
                f"{', '.join(_CSV_COLUMNS)}"
            )
        if name in fields[:i]:
            raise ConfigError(f"{path}: duplicate column {name!r}")
    if "T_K" not in fields:
        raise ConfigError(f"{path}: missing required column T_K")
    has_us = "value_us" in fields
    if has_us == ("rate_per_s" in fields):
        raise ConfigError(
            f"{path}: need exactly one of value_us or rate_per_s columns"
        )
    columns = [name for name in _CSV_COLUMNS if name in fields]
    # the reader skips blank lines: each row is named by its line number
    rows, line_numbers = [], []
    for row in reader:
        if None in row:  # the reader's key for cells past the header's
            raise ConfigError(
                f"{path}: row {reader.line_num} has more cells than the "
                f"header's {len(fields)} columns"
            )
        try:
            rows.append([float(row[name]) for name in columns])
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"{path}: malformed row {reader.line_num}: {dict(row)}",
            ) from exc
        line_numbers.append(reader.line_num)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    table = np.array(rows)
    if has_us:
        table[:, 1:] *= 1e-6
    t, value, *sigma = table.T
    sigma = sigma[0] if sigma else None
    # rates are checked as given: the point check's rates 1/rate and
    # sigma/rate**2 are the value and sigma they convert to
    bad = _first_bad_point(t, value, sigma)
    if bad is not None:
        raise ConfigError(f"{path}: {bad[1]} in row {line_numbers[bad[0]]}")
    if not has_us:
        rate = value
        value, sigma = 1.0 / rate, None if sigma is None else sigma / rate**2
    return DataSeries(kind=kind, t_kelvin=t, value_s=value, sigma_s=sigma)


# a dataclass, not a Record: perfbench/selftest.py perturbs a fit
# with dataclasses.replace
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


def _fit_report(model: str, names, lm, n_points, derived, curve) -> FitResult:
    """The :class:`FitResult` of an LM fit, its parameters named ``names``.

    ``curve(t_kelvin, *params)`` is the fitted rate model; the report's
    ``rate`` evaluates it at the fitted values.
    """
    values = dict(zip(names, (float(v) for v in lm.x)))
    return FitResult(
        model=model,
        param_names=names,
        values=values,
        sigmas=dict(zip(names, (float(s) for s in lm.sigmas()))),
        covariance=lm.covariance,
        ssr=lm.ssr,
        n_points=n_points,
        iterations=lm.iterations,
        derived=derived,
        rate=lambda t_kelvin: curve(t_kelvin, *values.values()),
    )


def _weighted(model_fn, jacobian_fn, rates, sigma_rates):
    """Residual and Jacobian callables of a fit, weighted by 1/sigma.

    A series without sigmas weighs every point 1.0, which changes no bit.
    """
    weights = np.ones(len(rates)) if sigma_rates is None else 1.0 / sigma_rates

    def residual(params: np.ndarray) -> np.ndarray:
        return (model_fn(params) - rates) * weights

    def jacobian(params: np.ndarray) -> np.ndarray:
        return jacobian_fn(params) * weights[:, None]

    return residual, jacobian


def _thermal_terms(t: np.ndarray, tc_kelvin: float):
    """Delta/T and sqrt(2 pi T/Delta) exp(-Delta/T), Delta = bcs_ratio * Tc."""
    delta = delta_from_tc(tc_kelvin)
    # far outside the data range the thermal term saturates to 0 or inf
    with np.errstate(over="ignore", divide="ignore"):
        ratio = delta / t
        thermal = np.sqrt(2.0 * np.pi / ratio) * np.exp(-ratio)
    return ratio, thermal


def t1_rate_model(
    t_kelvin: np.ndarray,
    gamma_plateau_per_s: float,
    tc_kelvin: float,
    amplitude_per_s: float,
) -> np.ndarray:
    """Relaxation-rate model: plateau plus thermally activated term."""
    terms = _thermal_terms(np.asarray(t_kelvin, dtype=float), tc_kelvin)
    return _t1_rates(terms, gamma_plateau_per_s, amplitude_per_s)


def _t1_rates(terms, gamma_plateau_per_s, amplitude_per_s) -> np.ndarray:
    """:func:`t1_rate_model` on the :func:`_thermal_terms` of its Tc."""
    return gamma_plateau_per_s + amplitude_per_s * terms[1]


def _t1_jacobian(terms, tc_kelvin: float, amplitude_per_s: float) -> np.ndarray:
    """Columns d/dGamma_plateau, d/dTc and d/dA of :func:`t1_rate_model`,
    on the :func:`_thermal_terms` of Tc."""
    ratio, thermal = terms
    jac = np.empty((len(ratio), 3))
    jac[:, 0] = 1.0
    # where Delta/T overflows, the thermal term and its slope are both 0
    growth = np.minimum(ratio + 0.5, np.finfo(float).max)
    jac[:, 1] = -amplitude_per_s * thermal * growth / tc_kelvin
    jac[:, 2] = thermal
    return jac


def _t1_problem(data: DataSeries):
    """Weighted residual and Jacobian callables of a T1(T) fit.

    Both take the thermal terms from a one-entry memo keyed by Tc, so the
    Jacobian at an accepted point, and the covariance's at the optimum,
    reuse the terms of the residual call that accepted it.  Tc stays in
    its bounds [0.05, 20] K, where equal values have equal bits.
    """
    terms = functools.lru_cache(maxsize=1)(
        functools.partial(_thermal_terms, data.t_kelvin))
    return _weighted(
        lambda params: _t1_rates(terms(params[1]), params[0], params[2]),
        lambda params: _t1_jacobian(terms(params[1]), params[1], params[2]),
        *data.rates(),
    )


def _t1_initial_guess(t, rates):
    plateau = float(sort_median(rates[: max(3, len(rates) // 4)]))
    plateau = max(plateau, 1e-12)
    tc_fallback = 1.3
    # Python floats: t_b / t_a overflows to inf quietly (the estimate then
    # falls back), where numpy scalars would print a RuntimeWarning
    t_a, t_b = float(t[-2]), float(t[-1])
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
    propagated uncertainty, and the thermal crossover temperature.  A
    fitted x_nqp above 0 with no crossover (see :func:`thermal_crossover`)
    is a domain error.

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
    guess = _t1_initial_guess(t, data.rates()[0])
    bounds = [(0.0, np.inf), (0.05, 20.0), (1e-300, np.inf)]
    lm = least_squares(*_t1_problem(data), guess, bounds=bounds)

    plateau, tc, amplitude = lm.x
    # at an amplitude near its 1e-300 bound these overflow: an infinite
    # x_nqp has no crossover and a variance that is not finite has no
    # sigma, and both end in a DomainError below.  A zero plateau leaves
    # x_nqp no amplitude term, not 0/0 where amplitude**2 underflows.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x_nqp = plateau / amplitude
        slope = -plateau / amplitude**2 if plateau else 0.0
        grad = np.array([1.0 / amplitude, 0.0, slope])
        if lm.covariance is not None:
            variance = float(grad @ lm.covariance @ grad)
    crossover = None
    if math.isfinite(x_nqp):
        crossover = thermal_crossover(x_nqp, delta_from_tc(tc))
    if crossover is None and x_nqp > 0:
        raise DomainError(
            f"no thermal crossover for the fitted x_nqp = {x_nqp:.6g} "
            f"and Tc = {tc:.6g} K inside [10 mK, Delta/2]"
        )
    derived = {"x_nqp_inferred": float(x_nqp)}
    if lm.covariance is not None:
        if not math.isfinite(variance):
            raise DomainError(f"x_nqp = {x_nqp:.6g} has variance {variance}")
        derived["x_nqp_sigma"] = math.sqrt(max(variance, 0.0))
    if crossover is not None:
        derived["crossover_K"] = crossover
    names = ("gamma_plateau_per_s", "tc_K", "amplitude_per_s")
    return _fit_report("t1_vs_temperature", names, lm, len(data), derived,
                       t1_rate_model)


# the public names of ._dephasing
_DEPHASING = frozenset({
    "ThermometryResult", "fit_t2_vs_temperature", "pure_dephasing_from_echo",
    "resonator_thermometry", "shot_noise_dephasing", "t2_rate_model",
})


def __getattr__(name: str):
    if name not in _DEPHASING:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import _dephasing

    value = getattr(_dephasing, name)
    globals()[name] = value
    return value
