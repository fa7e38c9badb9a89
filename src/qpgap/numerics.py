"""Thin, strict wrappers around the adaptive quadrature and root finding
used by the physics modules.

Both wrappers turn silent accuracy losses into exceptions so callers never
consume a value that missed its requested tolerance.
"""

from __future__ import annotations

from typing import Callable

import scipy.integrate
import scipy.optimize

from .errors import BracketError, ConvergenceError

DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-300


def adaptive_integral(
    func: Callable[[float], float],
    lower: float,
    upper: float,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    limit: int = 200,
) -> float:
    """Integrate ``func`` over [lower, upper] to a relative tolerance.

    Infinite bounds are allowed.  Raises :class:`ConvergenceError` when the
    quadrature cannot certify the requested tolerance, carrying the best
    estimate on the exception.
    """
    value, abserr, _, *failure = scipy.integrate.quad(
        func, lower, upper, epsabs=abs_tol, epsrel=rel_tol, limit=limit,
        full_output=1,
    )
    if failure:
        raise ConvergenceError(
            f"quadrature did not converge: {failure[0]}", best=value
        )
    if abserr > max(rel_tol * abs(value), abs_tol):
        raise ConvergenceError(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance for "
            f"value {value:.6e}",
            best=value,
        )
    return value


def root_find(
    func: Callable[[float], float],
    lower: float,
    upper: float,
    abs_tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Find a root of ``func`` inside the bracket [lower, upper].

    The bracket must enclose a sign change; otherwise a
    :class:`BracketError` is raised.
    """
    f_lo = func(lower)
    f_hi = func(upper)
    if f_lo == 0.0:
        return lower
    if f_hi == 0.0:
        return upper
    if (f_lo > 0) == (f_hi > 0):
        raise BracketError(
            f"no sign change on [{lower}, {upper}]: "
            f"f(lower)={f_lo:.6e}, f(upper)={f_hi:.6e}"
        )
    root, result = scipy.optimize.brentq(
        func, lower, upper, xtol=abs_tol, maxiter=max_iter, full_output=True
    )
    if not result.converged:
        raise ConvergenceError(
            f"root finding did not converge after {max_iter} iterations",
            best=root,
        )
    return root
