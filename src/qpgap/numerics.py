"""Strict adaptive quadrature and bracketed root finding, in pure Python.

``adaptive_integral`` is QUADPACK's globally adaptive Gauss-Kronrod 7/15
scheme (qag, with qagi's map for infinite ranges) and ``root_find`` is a
line-for-line port of scipy's ``brentq.c``, so it returns the same bits
as ``scipy.optimize.brentq``.  Both turn silent accuracy losses into
exceptions so callers never consume a value that missed its requested
tolerance.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable

from .errors import BracketError, ConvergenceError, DomainError

DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-300

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min
# brentq's smallest allowed relative tolerance, _rtol in scipy.optimize
_BRENT_REL_TOL = 4.0 * _EPS

# QUADPACK qk15: the Kronrod abscissae in (0, 1), descending, and their
# weights, then the weights of the embedded 7-point Gauss rule, whose
# abscissae are the odd-indexed Kronrod ones; the centre's weights apart
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327


def _kronrod15(g: Callable[[float], float], a: float, b: float):
    """QUADPACK qk15 on [a, b]: the 15-point estimate and its error."""
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    f_center = g(center)
    lows = [g(center - half * x) for x in _XGK]
    highs = [g(center + half * x) for x in _XGK]
    res_k = f_center * _WGK_CENTER
    res_g = f_center * _WG_CENTER
    res_abs = abs(res_k)
    for j, (w, lo, hi) in enumerate(zip(_WGK, lows, highs)):
        res_k += w * (lo + hi)
        res_abs += w * (abs(lo) + abs(hi))
        if j % 2:
            res_g += _WG[j // 2] * (lo + hi)
    mean = 0.5 * res_k
    res_asc = _WGK_CENTER * abs(f_center - mean) + sum(
        w * (abs(lo - mean) + abs(hi - mean))
        for w, lo, hi in zip(_WGK, lows, highs)
    )
    width = abs(half)
    res_abs *= width
    res_asc *= width
    error = abs((res_k - res_g) * half)
    if res_asc != 0.0 and error != 0.0:
        error = res_asc * min(1.0, (200.0 * error / res_asc) ** 1.5)
    if res_abs > _TINY / (50.0 * _EPS):
        error = max(50.0 * _EPS * res_abs, error)
    return res_k * half, error


def _finite_form(func, lower: float, upper: float):
    """An integrand and finite range with the same integral, lower < upper.

    Infinite ranges use QUADPACK qagi's map x = a + (1 - t)/t onto
    t in (0, 1]; a doubly infinite range is first folded onto (0, inf).
    Infinity sits at t = 0, where floats are dense, so no node rounds onto
    the singular end however far the bisection goes.
    """
    if math.isinf(lower) and math.isinf(upper):

        def folded(x: float) -> float:
            return func(x) + func(-x)

        return _finite_form(folded, 0.0, math.inf)
    if math.isinf(upper):
        return (lambda t: func(lower + (1.0 - t) / t) / (t * t)), 0.0, 1.0
    if math.isinf(lower):
        return (lambda t: func(upper - (1.0 - t) / t) / (t * t)), 0.0, 1.0
    return func, lower, upper


def adaptive_integral(
    func: Callable[[float], float],
    lower: float,
    upper: float,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    limit: int = 200,
) -> float:
    """Integrate ``func`` over [lower, upper] to a relative tolerance.

    Infinite bounds are allowed.  The subinterval with the largest error
    estimate is bisected until the summed estimate meets
    max(abs_tol, rel_tol |value|).  Raises :class:`ConvergenceError` when
    ``limit`` subintervals, or the float resolution, cannot certify the
    requested tolerance, carrying the best estimate on the exception.
    """
    if lower == upper:
        return 0.0
    if lower > upper:
        return -adaptive_integral(func, upper, lower, rel_tol, abs_tol, limit)
    g, a, b = _finite_form(func, lower, upper)
    part, error = _kronrod15(g, a, b)
    # heap of (-error, a, b, part): the worst subinterval comes first
    pieces = [(-error, a, b, part)]
    value = part
    # written so that a NaN estimate keeps bisecting and ends in an error
    while not error <= max(abs_tol, rel_tol * abs(value)):
        if len(pieces) >= limit:
            raise ConvergenceError(
                f"quadrature did not converge in {limit} subintervals: "
                f"error estimate {error:.3e} for value {value:.6e}",
                best=value,
            )
        _, a, b, _ = heapq.heappop(pieces)
        mid = 0.5 * (a + b)
        if max(abs(a), abs(b)) <= (1.0 + 100.0 * _EPS) * (
            abs(mid) + 1000.0 * _TINY
        ):
            raise ConvergenceError(
                f"quadrature subinterval [{a!r}, {b!r}] is too small to "
                f"bisect: error estimate {error:.3e} for value {value:.6e}",
                best=value,
            )
        for lo, hi in ((a, mid), (mid, b)):
            part, part_error = _kronrod15(g, lo, hi)
            heapq.heappush(pieces, (-part_error, lo, hi, part))
        value = math.fsum(piece[3] for piece in pieces)
        error = -math.fsum(piece[0] for piece in pieces)
    return value


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
