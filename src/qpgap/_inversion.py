"""Inversion of measured transition frequencies to (EJ, EC).

Only a config whose transmon is given as frequency ``targets`` runs the
inversion, so the config loader imports this module for such a config
alone, and :mod:`qpgap.transmon` resolves :func:`fit_ej_ec` from here on
first access.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .device import FrequencyTargets, TransmonParams
from .errors import DomainError
from .numerics import root_find
from .transmon import (
    _charge_offsets, _eigensystem, eigenspectrum, transition_frequency,
)


# EJ/EC of the inversion bracket, and its logarithms, which the root find
# searches
_RATIO_RANGE = (1.5, 2000.0)
_RATIO_BRACKET = (math.log(_RATIO_RANGE[0]), math.log(_RATIO_RANGE[1]))


def _unit_pair(ratio: float, dispersion: bool) -> tuple[float, float]:
    """(f_ge(ng=0), f_ge(ng=0.5)) or (f_ge, f_ef) of the unit-EC transmon."""
    unit = TransmonParams(EJ=ratio, EC=1.0)
    if dispersion:
        half = unit.with_ng(0.5)
        return transition_frequency(unit), transition_frequency(half)
    spectrum = eigenspectrum(unit, levels=3)
    return spectrum.f_ge, spectrum.f_ef


def _observable(a: float, b: float, dispersion: bool) -> float:
    """Relative ge dispersion |a - b| / mean, or the ratio f_ef / f_ge."""
    return abs(a - b) / ((a + b) / 2.0) if dispersion else b / a


@functools.cache
def _bracket_observables(dispersion: bool) -> tuple[float, float]:
    """The scale-free observable at both ends of the bracket, per kind.

    They do not depend on the targets, and the end at EJ/EC = 2000 is the
    largest solve of an inversion, so each kind computes them once.
    """
    return tuple(
        _observable(*_unit_pair(math.exp(x), dispersion), dispersion)
        for x in _RATIO_BRACKET
    )


def _solve_ratio(targets: FrequencyTargets) -> TransmonParams:
    """Exact (EJ, EC) for two targets from the scaling E = EC F(EJ/EC, ng).

    A scale-free observable of the unit-EC transmon pins EJ/EC in a 1-d
    root find: the relative ge dispersion for (ng0, ng05) targets, else
    f_ef/f_ge.  The measured scale (mean ge frequency, or f_ge) then sets
    EC.  With both optional targets present the ng05 pair is used.  A
    target whose observable no EJ/EC in the bracket reaches raises
    :class:`DomainError`.
    """
    dispersion = targets.f_ge_ng05 is not None
    measured = (
        targets.f_ge_ng0,
        targets.f_ge_ng05 if dispersion else targets.f_ef,
    )

    def scale(a: float, b: float) -> float:
        return (a + b) / 2.0 if dispersion else a

    target = _observable(*measured, dispersion)
    ends = _bracket_observables(dispersion)
    # root_find's sign rule on its end values: a zero end is a root
    at_lower, at_upper = (value - target for value in ends)
    if at_lower != 0.0 and at_upper != 0.0 and (
            (at_lower < 0.0) == (at_upper < 0.0)):
        name = ("relative ge dispersion |f_ge(ng=0) - f_ge(ng=0.5)| / mean"
                if dispersion else "ratio f_ef / f_ge")
        raise DomainError(
            f"targets admit no transmon with EJ/EC in [{_RATIO_RANGE[0]:g}, "
            f"{_RATIO_RANGE[1]:g}]: their {name} is {target:.6g}, outside "
            f"[{min(ends):.6g}, {max(ends):.6g}]"
        )
    # root_find evaluates the bracket ends first: the cache serves them
    known = dict(zip(_RATIO_BRACKET, ends))

    def residual(x: float) -> float:
        value = known.get(x)
        if value is None:
            pair = _unit_pair(math.exp(x), dispersion)
            value = _observable(*pair, dispersion)
        return value - target

    log_ratio = root_find(residual, *_RATIO_BRACKET, abs_tol=1e-12)
    ratio = math.exp(log_ratio)
    ec = scale(*measured) / scale(*_unit_pair(ratio, dispersion))
    return TransmonParams(EJ=ratio * ec, EC=ec)


def _target_residuals(
    params: TransmonParams, targets: FrequencyTargets
) -> np.ndarray:
    """Model minus measured frequency (GHz) for every supplied target."""
    residuals = [transition_frequency(params) - targets.f_ge_ng0]
    if targets.f_ge_ng05 is not None:
        residuals.append(
            transition_frequency(params.with_ng(0.5)) - targets.f_ge_ng05
        )
    if targets.f_ef is not None:
        residuals.append(transition_frequency(params, 1, 2) - targets.f_ef)
    return np.array(residuals)


def _level_gradients(params: TransmonParams, levels: int) -> np.ndarray:
    """dE_m/d(log EJ) and dE_m/d(log EC) of the lowest levels, (levels, 2).

    Hellmann-Feynman on the charge-basis matrix: dE_m/dEC =
    4 sum_n (n - ng)^2 v_n^2 and dE_m/dEJ = -sum_n v_n v_(n+1), exact for
    the truncated basis at a fixed cutoff.
    """
    _, vectors = _eigensystem(params, levels)
    charge = _charge_offsets(params.effective_n_cut, params.ng)
    d_ec = 4.0 * (charge**2 @ vectors**2)
    d_ej = -np.sum(vectors[:-1] * vectors[1:], axis=0)
    return np.column_stack([params.EJ * d_ej, params.EC * d_ec])


def _target_jacobian(
    params: TransmonParams, targets: FrequencyTargets
) -> np.ndarray:
    """Rows of :func:`_target_residuals` differentiated by (log EJ, log EC)."""
    at_zero = _level_gradients(params, 3 if targets.f_ef is not None else 2)
    rows = [at_zero[1] - at_zero[0]]
    if targets.f_ge_ng05 is not None:
        at_half = _level_gradients(params.with_ng(0.5), 2)
        rows.append(at_half[1] - at_half[0])
    if targets.f_ef is not None:
        rows.append(at_zero[2] - at_zero[1])
    return np.array(rows)


def _log_params(x: np.ndarray) -> TransmonParams:
    return TransmonParams(EJ=math.exp(x[0]), EC=math.exp(x[1]))


def fit_ej_ec(targets: FrequencyTargets) -> TransmonParams:
    """Infer (EJ, EC) from measured transition frequencies.

    Every level scales as E = EC F(EJ/EC, ng), so two targets are solved
    exactly: a scale-free observable of the unit-EC transmon fixes EJ/EC
    by a bracketed 1-d root find and the measured scale fixes EC.  With
    all three targets the (ng0, ng05) solution seeds a Levenberg-Marquardt
    refinement of log(EJ), log(EC) against every target, with the
    Jacobian from :func:`_level_gradients`.

    Returns
    -------
    TransmonParams
        Parameters whose model frequencies match exactly determined
        targets to better than 1 kHz.
    """
    fitted = _solve_ratio(targets)
    if targets.f_ge_ng05 is not None and targets.f_ef is not None:
        from .fitting import least_squares

        lm = least_squares(
            lambda x: _target_residuals(_log_params(x), targets),
            lambda x: _target_jacobian(_log_params(x), targets),
            [math.log(fitted.EJ), math.log(fitted.EC)],
        )
        return _log_params(lm.x)
    worst = float(np.max(np.abs(_target_residuals(fitted, targets))))
    if worst > 1e-6:
        raise DomainError(
            f"targets admit no transmon solution: residual {worst:.3g} GHz"
        )
    return fitted
