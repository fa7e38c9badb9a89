"""Charge-basis transmon spectra, charge dispersion, and cavity shifts.

The qubit is modeled in the Cooper-pair charge basis, where the
Hamiltonian is symmetric tridiagonal: 4 EC (n - ng)^2 on the diagonal and
-EJ/2 on the off-diagonals.  All energies are in GHz, offset charge ng is
in Cooper-pair units, and a parity flip shifts ng by 0.5.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import numpy as np

from ._record import Record
# the records live in .device, where the config loader reads them
from .device import CavityCoupling, FrequencyTargets, TransmonParams
from .errors import ConvergenceError, DomainError, NearResonanceError, positive
from .numerics import root_find
from .units import CONSTANTS


def _load_flapack(packages):
    """scipy's compiled LAPACK module, loaded from ``packages``' ``linalg/``.

    ``scipy.linalg.lapack`` re-exports the routines of this extension, but
    importing it first runs the ``scipy.linalg`` package, whose array-API
    layer pulls in ``numpy.f2py``, ``numpy.testing`` and more, none of it
    needed for LAPACK and most of a cold start's import time.  The module
    is registered under its full name, so a later ``import scipy.linalg``
    reuses it.
    """
    search = [os.path.join(entry, "linalg") for entry in packages]
    spec = importlib.machinery.PathFinder.find_spec("_flapack", search)
    if spec is None:
        raise ImportError(f"LAPACK extension _flapack not found in {search}")
    spec.name = "scipy.linalg._flapack"
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@functools.cache
def _lapack():
    """scipy's LAPACK module, loaded at the first eigensolve.

    The directories of the scipy package come from its import spec, so
    scipy's own ``__init__`` does not run, and commands that make no
    eigensolve load nothing of scipy.  Skipping that ``__init__`` gives up
    little: its numpy-version check only warns, the extension's own
    ``import_array`` still refuses a numpy of the wrong C ABI, and its
    distributor hook is empty in Linux and macOS wheels.  Some wheels
    (delvewheel builds for Windows) set up their shared-library paths
    there, so a failed direct load runs ``import scipy`` and tries again.
    A module already in ``sys.modules`` is reused.
    """
    if "scipy.linalg._flapack" in sys.modules:
        return sys.modules["scipy.linalg._flapack"]
    spec = importlib.util.find_spec("scipy")
    try:
        return _load_flapack(spec.submodule_search_locations if spec else [])
    except ImportError:
        import scipy

        return _load_flapack(scipy.__path__)


# Levels kept in perturbative cavity-shift sums.  Going to 12 levels moves
# the shift of every shipped device configuration by less than 1 percent.
DEFAULT_SHIFT_LEVELS = 10

# Solves kept by the memo.  One call sequence, a spectrum grid of 26 offset
# charges (even and odd branch) plus the sweet-spot dispersions and cavity
# shifts, makes 55 distinct solves.
_SOLVE_CACHE_SIZE = 128
# Charge grids kept, one per cutoff.  The automatic cutoff of the whole
# inversion bracket, EJ/EC from 1.5 to 2000, spans 13 to 90.
_GRID_CACHE_SIZE = 128


class Spectrum(Record):
    """Eigenenergies (GHz, ascending) of a transmon at fixed parameters."""

    __slots__ = ("energies", "params")
    _hidden = ("params",)

    def __init__(self, energies: np.ndarray, params: TransmonParams):
        # one per eigenspectrum call; see device.TransmonParams.__init__
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "params", params)

    def transition(self, i: int, j: int) -> float:
        """Transition frequency E_j - E_i in GHz."""
        return float(self.energies[j] - self.energies[i])

    @property
    def f_ge(self) -> float:
        return self.transition(0, 1)

    @property
    def f_ef(self) -> float:
        return self.transition(1, 2)


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _charge_grid(cut: int) -> np.ndarray:
    """The charge states -cut .. cut as floats, shared and read-only."""
    grid = np.arange(-cut, cut + 1, dtype=float)
    grid.flags.writeable = False
    return grid


def _tridiagonal_bands(params: TransmonParams) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal 4 EC (n - ng)^2 and off-diagonal -EJ/2 of the Hamiltonian.

    The bits of ``4.0 * EC * (charge - ng) ** 2``, computed in the one
    array the subtraction allocates.
    """
    cut = params.effective_n_cut
    diagonal = _charge_grid(cut) - params.ng
    np.multiply(diagonal, diagonal, out=diagonal)
    diagonal *= 4.0 * params.EC
    off_diagonal = np.full(2 * cut, -params.EJ / 2.0)
    return diagonal, off_diagonal


def build_hamiltonian(params: TransmonParams) -> np.ndarray:
    """Dense charge-basis Hamiltonian matrix in GHz.

    Returns
    -------
    ndarray
        Symmetric tridiagonal matrix of dimension 2*effective_n_cut + 1.
    """
    diagonal, off_diagonal = _tridiagonal_bands(params)
    matrix = np.diag(diagonal)
    idx = np.arange(len(off_diagonal))
    matrix[idx, idx + 1] = off_diagonal
    matrix[idx + 1, idx] = off_diagonal
    return matrix


def _check_info(routine: str, info: int) -> None:
    if info != 0:
        raise ConvergenceError(f"LAPACK {routine} failed with info = {info}")


def _tridiagonal_eigh(
    diagonal: np.ndarray, off_diagonal: np.ndarray, levels: int, vectors: bool
):
    """Lowest ``levels`` eigenvalues (and eigenvectors) of a tridiagonal band.

    Makes the LAPACK calls of ``scipy.linalg.eigvalsh_tridiagonal`` and
    ``eigh_tridiagonal`` with ``select="i"`` (bisection by ``dstebz``,
    inverse iteration by ``dstein``) with the same arguments, so the
    results are bit-identical, without the wrappers' argument handling.
    """
    if levels < 2:
        raise DomainError(f"levels must be >= 2, got {levels}")
    if levels > len(diagonal):
        raise DomainError(
            f"levels={levels} exceeds Hilbert space dimension {len(diagonal)}"
        )
    lapack = _lapack()
    m, energies, iblock, isplit, info = lapack.dstebz(
        diagonal, off_diagonal, 2, 0.0, 1.0, 1, levels, 0.0,
        "B" if vectors else "E",
    )
    _check_info("dstebz", info)
    energies = energies[:m]
    if not vectors:
        return energies
    states, info = lapack.dstein(
        diagonal, off_diagonal, energies, iblock, isplit
    )
    _check_info("dstein", info)
    # dstebz orders by split-off block; the caller wants ascending energies
    order = np.argsort(energies)
    return energies[order], states[:, order]


@functools.lru_cache(maxsize=_SOLVE_CACHE_SIZE)
def _solve(params: TransmonParams, levels: int, vectors: bool):
    """Memoized :func:`_tridiagonal_eigh` of the charge-basis Hamiltonian.

    The returned arrays are shared by every caller and read-only.
    """
    result = _tridiagonal_eigh(*_tridiagonal_bands(params), levels, vectors)
    for array in result if vectors else (result,):
        array.flags.writeable = False
    return result


def eigenspectrum(params: TransmonParams, levels: int = 3) -> Spectrum:
    """Lowest eigenenergies of the transmon Hamiltonian.

    Parameters
    ----------
    params:
        Transmon parameters.
    levels:
        Number of levels to return, >= 2.

    Returns
    -------
    Spectrum
        Energies in GHz, ascending, referenced to the raw Hamiltonian, in a
        read-only array.
    """
    return Spectrum(energies=_solve(params, levels, False), params=params)


def _eigensystem(params: TransmonParams, levels: int):
    """Lowest ``levels`` energies and eigenvectors (columns), read-only."""
    return _solve(params, levels, True)


def transition_frequency(
    params: TransmonParams, i: int = 0, j: int = 1
) -> float:
    """Transition frequency E_j - E_i in GHz at the params' offset charge."""
    return eigenspectrum(params, levels=max(i, j) + 1).transition(i, j)


def charge_dispersion(params: TransmonParams, transition: str = "ge") -> float:
    """Peak-to-peak charge dispersion of a transition in GHz.

    Defined as |f(ng = 0.5) - f(ng = 0)|, the full swing of the transition
    between the charge sweet spots.

    Parameters
    ----------
    transition:
        "ge" or "ef".
    """
    if transition == "ge":
        i, j = 0, 1
    elif transition == "ef":
        i, j = 1, 2
    else:
        raise DomainError(f"unknown transition {transition!r}")
    f_zero = transition_frequency(params.with_ng(0.0), i, j)
    f_half = transition_frequency(params.with_ng(0.5), i, j)
    return abs(f_half - f_zero)


def parity_frequencies(params: TransmonParams) -> tuple[float, float]:
    """ge frequencies (GHz) of the even and odd charge-parity branches.

    The odd branch sees the offset charge shifted by half a Cooper pair.
    """
    f_even = transition_frequency(params)
    f_odd = transition_frequency(params.with_ng(params.ng + 0.5))
    return f_even, f_odd


def parity_splitting(params: TransmonParams) -> float:
    """Absolute even/odd ge frequency difference in GHz."""
    f_even, f_odd = parity_frequencies(params)
    return abs(f_even - f_odd)


def _charge_elements(params: TransmonParams, vectors: np.ndarray) -> np.ndarray:
    charge = _charge_grid(params.effective_n_cut) - params.ng
    return np.abs(vectors.T @ (charge[:, None] * vectors))


def charge_matrix_elements(params: TransmonParams, levels: int) -> np.ndarray:
    """Magnitudes |<i| n |j>| of the charge operator between eigenstates.

    The charge operator is diagonal in the charge basis with entries
    (n - ng).  In the harmonic limit |<0| n |1>| approaches
    (EJ / 32 EC)^(1/4).

    Returns
    -------
    ndarray
        (levels, levels) symmetric matrix of magnitudes.
    """
    _, vectors = _eigensystem(params, levels)
    return _charge_elements(params, vectors)


def _level_shifts(
    params: TransmonParams,
    coupling: CavityCoupling,
    requested: tuple[int, ...],
    levels: int,
) -> list[float]:
    """Cavity shifts lambda_l (MHz) of the requested levels, in order.

    One eigensystem supplies both the level energies and the charge
    matrix elements.  The sums run over Python floats, the IEEE arithmetic
    of numpy's scalars at less cost per operation.  A shift that leaves
    the float range raises :class:`DomainError` naming the level pair.
    """
    for level in requested:
        if level >= levels:
            raise DomainError(f"level {level} outside truncation {levels}")
    energies, vectors = _eigensystem(params, levels)
    energies = energies.tolist()
    elements = _charge_elements(params, vectors).tolist()
    norm = elements[0][1]
    if norm == 0.0:  # at EJ = 0 the charge states do not mix
        raise DomainError(
            "cavity shifts scale g by the charge matrix element <0|n|1>, "
            f"which vanishes at EJ = {params.EJ} GHz, ng = {params.ng}"
        )
    g_ghz = coupling.g_mhz / 1e3
    nu_r = coupling.nu_r_ghz
    shifts = []
    for level in requested:
        shift = 0.0
        for other in range(levels):
            if other == level:
                continue
            g_lj = g_ghz * elements[level][other] / norm
            detuning = energies[level] - energies[other]
            for sign in (-1.0, 1.0):
                denom = detuning + sign * nu_r
                if abs(denom) <= 10.0 * g_lj:
                    raise NearResonanceError(
                        f"levels ({level}, {other}) are near-resonant with "
                        f"the cavity: |detuning -/+ nu_r| = {abs(denom):.4g} "
                        f"GHz vs 10 g_lj = {10.0 * g_lj:.4g} GHz"
                    )
                # past the check above a term is below g_lj / 10, so
                # only g_lj**2 can leave the float range
                try:
                    shift += g_lj**2 / denom
                except OverflowError:
                    raise DomainError(
                        f"the cavity shift of level {level} overflows at "
                        f"levels ({level}, {other}): g_lj = {g_lj:.4g} GHz"
                    ) from None
        shifts.append(shift * 1e3)
    return shifts


def dispersive_shift(
    params: TransmonParams,
    coupling: CavityCoupling,
    level: int,
    levels: int = DEFAULT_SHIFT_LEVELS,
) -> float:
    """Second-order cavity shift lambda_l for one qubit level, in MHz.

    lambda_l sums g_lj^2 [1/(f_l - f_j - nu_r) + 1/(f_l - f_j + nu_r)]
    over the other levels, with g_lj = g |<l|n|j>| / |<0|n|1>|.  The sum
    is truncated at ``levels`` eigenstates; widening the truncation to 12
    levels changes the result by under 1 percent for transmon-regime
    parameters.

    Raises
    ------
    NearResonanceError
        If any included transition from ``level`` lies within ten coupling
        matrix elements of the cavity frequency.
    """
    return _level_shifts(params, coupling, (level,), levels)[0]


def chi_shift(
    params: TransmonParams,
    coupling: CavityCoupling,
    levels: int = DEFAULT_SHIFT_LEVELS,
) -> float:
    """Dispersive shift chi = (lambda_e - lambda_g)/2 in MHz."""
    lam_e, lam_g = _level_shifts(params, coupling, (1, 0), levels)
    return (lam_e - lam_g) / 2.0


def resonator_dispersion(
    params: TransmonParams,
    coupling: CavityCoupling,
    method: str = "ground",
    levels: int = DEFAULT_SHIFT_LEVELS,
) -> float:
    """Charge dispersion transferred to the readout resonator, in kHz.

    With ``method="ground"`` (default) this is the swing of the
    ground-state cavity pull, |lambda_g(ng=0.5) - lambda_g(ng=0)|.  The
    alternative ``method="chi"`` uses the swing of chi instead.
    """
    if method == "ground":
        at_zero = dispersive_shift(params.with_ng(0.0), coupling, 0, levels)
        at_half = dispersive_shift(params.with_ng(0.5), coupling, 0, levels)
    elif method == "chi":
        at_zero = chi_shift(params.with_ng(0.0), coupling, levels)
        at_half = chi_shift(params.with_ng(0.5), coupling, levels)
    else:
        raise DomainError(f"unknown method {method!r}")
    return abs(at_half - at_zero) * 1e3


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
    charge = _charge_grid(params.effective_n_cut) - params.ng
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


def ej_from_normal_resistance(rn_ohm: float, delta_ghz: float) -> float:
    """Josephson energy (GHz) from junction resistance and gap.

    Uses the tunnel-junction relation EJ = (Delta/8) (RK/Rn) with the von
    Klitzing resistance RK.
    """
    positive("Rn", rn_ohm)
    positive("delta", delta_ghz)
    return (delta_ghz / 8.0) * (CONSTANTS.RK / rn_ohm)


def normal_resistance_from_ej(ej_ghz: float, delta_ghz: float) -> float:
    """Junction normal-state resistance (ohm) that yields ``ej_ghz``."""
    positive("EJ", ej_ghz)
    positive("delta", delta_ghz)
    return (delta_ghz / 8.0) * (CONSTANTS.RK / ej_ghz)
