"""Bracketed root finding and Levenberg-Marquardt least squares.

``root_find`` is a line-for-line port of scipy's ``brentq.c``, so it
returns the same bits as ``scipy.optimize.brentq``.  It turns a NaN
function value, a bracket without a sign change and an exhausted
iteration budget into exceptions, so callers never consume a root that
was not found.

``least_squares`` is a self-contained Levenberg-Marquardt engine: the
caller supplies the Jacobian in closed form, steps use Marquardt
diagonal scaling, box bounds are kept by step clipping, and the
iteration is deterministic float for float.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np

from ._record import Record
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    RankDeficiencyError,
)

# brentq's smallest allowed relative tolerance, _rtol in scipy.optimize
_BRENT_REL_TOL = 4.0 * sys.float_info.epsilon

DEFAULT_MAX_ITER = 200
# the relative step and relative decrease of the squared residual that
# end a least-squares fit
_STEP_TOL = 1e-10
_SSR_TOL = 1e-12

_LAMBDA_INIT = 1e-3
_LAMBDA_UP = 10.0
_LAMBDA_DOWN = 10.0
_LAMBDA_MAX = 1e14


def root_find(
    func: Callable[[float], float],
    lower: float,
    upper: float,
    abs_tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Find a root of ``func`` inside the bracket [lower, upper].

    Brent's method as in scipy's ``brentq`` (xtol = ``abs_tol``,
    rtol = 4 eps, at most ``max_iter`` iterations), returning the same
    bits.  The bracket must enclose a sign change; otherwise a
    :class:`BracketError` is raised.  A NaN function value raises
    :class:`DomainError` naming x, and an exhausted iteration budget
    :class:`ConvergenceError`.
    """

    def value(x: float) -> float:
        fx = float(func(x))
        if math.isnan(fx):
            raise DomainError(f"root finding: function is NaN at x = {x!r}")
        return fx

    xpre, xcur = float(lower), float(upper)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(
            f"no sign change on [{lower}, {upper}]: "
            f"f(lower)={fpre:.6e}, f(upper)={fcur:.6e}"
        )
    # from here on a line-for-line port of scipy/optimize/Zeros/brentq.c
    xblk = fblk = spre = scur = 0.0
    for _ in range(max_iter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (abs_tol + _BRENT_REL_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (
                    dblk * dpre * (fblk - fpre)
                )
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ConvergenceError(
        f"root finding did not converge after {max_iter} iterations",
        best=xcur,
    )


class LMResult(Record):
    """Raw optimizer output: parameters, covariance, and diagnostics."""

    __slots__ = ("x", "covariance", "ssr", "iterations", "converged")

    def __init__(
        self,
        x: np.ndarray,
        covariance: np.ndarray | None,
        ssr: float,
        iterations: int,
        converged: bool,
    ):
        self._assign(x, covariance, ssr, iterations, converged)

    def sigmas(self) -> np.ndarray:
        if self.covariance is None:
            return np.full(len(self.x), np.inf)
        return np.sqrt(np.diag(self.covariance))


def least_squares(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    bounds: Sequence[tuple[float, float]] | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> LMResult:
    """Levenberg-Marquardt minimization of a residual vector.

    ``jacobian_fn(x)`` returns the (residuals, parameters) matrix of
    derivatives of ``residual_fn`` at ``x``.  Iterates damped
    normal-equation steps with Marquardt scaling until the relative step
    falls below 1e-10 or the relative decrease of the squared residual
    falls below 1e-12.  Box bounds are handled by an active set:
    parameters pinned at a bound with the gradient pointing outward are
    frozen for that iteration, and accepted steps are clipped back into
    the box, so a parameter fixed by equal bounds stays where it is.  The
    covariance comes from the Jacobian at the optimum.

    Raises
    ------
    RankDeficiencyError
        If a Jacobian column is exactly zero (a parameter that leaves the
        residuals unchanged), which makes the scaled normal equations
        singular.
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
        jac = np.asarray(jacobian_fn(x), dtype=float)
        normal = jac.T @ jac
        gradient = jac.T @ residual
        diag = normal.diagonal().copy()
        if (diag == 0.0).any():
            dead = int(np.flatnonzero(diag == 0.0)[0])
            raise RankDeficiencyError(
                f"parameter {dead} has zero influence on the residuals",
                best=LMResult(x, None, ssr, iterations, False),
            )
        free = ~(
            ((x <= lower) & (gradient > 0.0))
            | ((x >= upper) & (gradient < 0.0))
        )
        if not free.any():
            # every parameter is pinned at a bound that the gradient
            # pushes against: a constrained stationary point
            converged = True
            break
        # the damping loop only rescales the diagonal term
        reduced = normal[free][:, free]
        scaling = np.diag(diag[free])
        descent = -gradient[free]
        accepted = False
        while lam <= _LAMBDA_MAX:
            try:
                delta_free = np.linalg.solve(reduced + lam * scaling, descent)
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
            f"no convergence after {max_iter} iterations (ssr={ssr:.6e})",
            best=result,
        )
    return result


def _covariance(jac, ssr: float) -> np.ndarray | None:
    """Covariance ssr/(m - n) (J^T J)^-1, or None when J^T J is singular."""
    jac = np.asarray(jac, dtype=float)
    m, n = jac.shape
    try:
        inverse = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(inverse)):
        return None
    scale = ssr / (m - n) if m > n else ssr
    return inverse * scale
