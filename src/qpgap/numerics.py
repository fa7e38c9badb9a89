"""Bracketed root finding and the sorted median.

``root_find`` is a line-for-line port of scipy's ``brentq.c``, so it
returns the same bits as ``scipy.optimize.brentq``.  It turns a NaN
function value, a bracket without a sign change and an exhausted
iteration budget into exceptions, so callers never consume a root that
was not found.  Its one caller is the (EJ, EC) inversion; the thermal
crossover is solved in closed form in :mod:`qpgap.thermal`.

``sort_median`` is ``np.median`` over the last axis from one sort.  The
scan detector's row medians and median absolute deviations, read from
one sort, are ``qpgap.parity.sort_median_mad``.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .errors import BracketError, ConvergenceError, DomainError

# brentq's smallest allowed relative tolerance, _rtol in scipy.optimize
_BRENT_REL_TOL = 4.0 * sys.float_info.epsilon


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


def sort_median(values: np.ndarray) -> np.ndarray:
    """``np.median(values, axis=-1)``, NaN where a row holds one.

    One sort per row is faster than the partition ``np.median`` runs to
    find NaNs, and ``np.median`` imports ``numpy.ma`` on its first call,
    which cost a cold ``fit`` run more than 20 ms.
    """
    ordered = np.sort(values, axis=-1)
    half = ordered.shape[-1] // 2
    middle = ordered[..., half]
    if not ordered.shape[-1] % 2:
        middle = (ordered[..., half - 1] + middle) / 2
    return np.where(np.isnan(ordered[..., -1]), np.nan, middle)
