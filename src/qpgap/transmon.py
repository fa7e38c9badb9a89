"""Charge-basis transmon spectra, charge dispersion, and cavity shifts.

The qubit is modeled in the Cooper-pair charge basis, where the
Hamiltonian is symmetric tridiagonal: 4 EC (n - ng)^2 on the diagonal and
-EJ/2 on the off-diagonals.  All energies are in GHz, offset charge ng is
in Cooper-pair units, and a parity flip shifts ng by 0.5.  Every
eigensolve goes through the memoized ``_solve``, the one LAPACK call
site: bisection by ``dstebz``, and inverse iteration by ``dstein`` when
eigenvectors are asked for.

The inversion of measured frequencies to (EJ, EC), :func:`fit_ej_ec`,
lives in the private module ``_inversion``, which only a config given as
frequency targets loads; the name resolves here on first access.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
import numpy as np

from ._record import Record
# the records live in .device, where the config loader reads them
from .device import CavityCoupling, FrequencyTargets, TransmonParams
from .errors import ConvergenceError, DomainError, NearResonanceError, integer


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
# Charge grids kept, one per cutoff, and off-diagonals, one per (cutoff,
# EJ).  The automatic cutoff of the whole inversion bracket, EJ/EC from
# 1.5 to 2000, spans 13 to 90.
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
        """Transition frequency E_j - E_i in GHz, for level indices ``i``
        and ``j`` from 0 to ``len(energies) - 1``."""
        top = len(self.energies) - 1
        integer("i", i, 0, top)
        integer("j", j, 0, top)
        return float(self.energies[j] - self.energies[i])

    @property
    def f_ge(self) -> float:
        return float(self.energies[1] - self.energies[0])

    @property
    def f_ef(self) -> float:
        return float(self.energies[2] - self.energies[1])


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _charge_grid(cut: int) -> np.ndarray:
    """The charge states -cut .. cut as floats, shared and read-only."""
    grid = np.arange(-cut, cut + 1, dtype=float)
    grid.flags.writeable = False
    return grid


@functools.lru_cache(maxsize=_GRID_CACHE_SIZE)
def _hopping(cut: int, EJ: float) -> np.ndarray:
    """The off-diagonal -EJ/2 of a 2 cut + 1 state band, shared and read-only.

    It does not depend on ng, so a grid over offset charge reuses one.
    """
    band = np.full(2 * cut, -EJ / 2.0)
    band.flags.writeable = False
    return band


@functools.lru_cache(maxsize=_SOLVE_CACHE_SIZE)
def _solve(params: TransmonParams, levels: int, vectors: bool):
    """Lowest ``levels`` energies (and eigenvectors, as columns) of the
    charge-basis Hamiltonian, memoized: the one LAPACK call site.

    The diagonal 4 EC (n - ng)^2 is computed in the one array the
    subtraction allocates; the off-diagonal is the shared read-only band
    of :func:`_hopping`.  Bisection by ``dstebz`` and, for an eigensystem
    only, inverse iteration by ``dstein`` are the calls that
    ``scipy.linalg.eigvalsh_tridiagonal`` and ``eigh_tridiagonal`` make
    with ``select="i"``, with the same arguments, so the results are
    bit-identical, without the wrappers' argument handling.  The returned
    arrays are shared by every caller and read-only.

    The callers check ``levels`` before the memo, which keys ``3.0`` and
    ``3`` alike.
    """
    cut = params.effective_n_cut
    if levels > 2 * cut + 1:
        raise DomainError(
            f"levels={levels} exceeds Hilbert space dimension {2 * cut + 1}"
        )
    diagonal = _charge_grid(cut) - params.ng
    np.multiply(diagonal, diagonal, out=diagonal)
    diagonal *= 4.0 * params.EC
    off_diagonal = _hopping(cut, params.EJ)
    lapack = _lapack()
    m, energies, iblock, isplit, info = lapack.dstebz(
        diagonal, off_diagonal, 2, 0.0, 1.0, 1, levels, 0.0,
        "B" if vectors else "E",
    )
    if info:
        raise ConvergenceError(f"LAPACK dstebz failed with info = {info}")
    energies = energies[:m]
    if not vectors:
        energies.flags.writeable = False
        return energies
    states, info = lapack.dstein(
        diagonal, off_diagonal, energies, iblock, isplit
    )
    if info:
        raise ConvergenceError(f"LAPACK dstein failed with info = {info}")
    # dstebz orders by split-off block; the caller wants ascending energies
    order = np.argsort(energies)
    energies, states = energies[order], states[:, order]
    energies.flags.writeable = False
    states.flags.writeable = False
    return energies, states


def eigenspectrum(params: TransmonParams, levels: int = 3) -> Spectrum:
    """Lowest eigenenergies of the transmon Hamiltonian.

    Parameters
    ----------
    params:
        Transmon parameters.
    levels:
        Number of levels to return, an integer >= 2.

    Returns
    -------
    Spectrum
        Energies in GHz, ascending, referenced to the raw Hamiltonian, in a
        read-only array.
    """
    integer("levels", levels, 2)
    return Spectrum(energies=_solve(params, levels, False), params=params)


def _eigensystem(params: TransmonParams, levels: int):
    """Lowest ``levels`` energies and eigenvectors (columns), read-only."""
    integer("levels", levels, 2)
    return _solve(params, levels, True)


def transition_frequency(
    params: TransmonParams, i: int = 0, j: int = 1
) -> float:
    """Transition frequency E_j - E_i in GHz at the params' offset charge,
    for level indices ``i`` and ``j`` >= 0: it solves max(i, j, 1) + 1
    levels, as :func:`eigenspectrum` solves 2 or more."""
    integer("i", i, 0)
    integer("j", j, 0)
    return eigenspectrum(params, levels=max(i, j, 1) + 1).transition(i, j)


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


def _charge_elements(params: TransmonParams, vectors: np.ndarray) -> np.ndarray:
    """Magnitudes |<i| n |j>| of the charge operator (n - ng) between the
    eigenstates in the columns of ``vectors``, a symmetric matrix."""
    charge = _charge_grid(params.effective_n_cut) - params.ng
    return np.abs(vectors.T @ (charge[:, None] * vectors))


def _level_shifts(
    params: TransmonParams,
    coupling: CavityCoupling,
    requested: tuple[int, ...],
) -> list[float]:
    """Cavity shifts lambda_l (MHz) of the requested levels, in order, each
    summed over the lowest ``DEFAULT_SHIFT_LEVELS`` eigenstates.

    One eigensystem supplies both the level energies and the charge
    matrix elements.  The sums run over Python floats, the IEEE arithmetic
    of numpy's scalars at less cost per operation.  A shift that leaves
    the float range raises :class:`DomainError` naming the level pair.
    """
    levels = DEFAULT_SHIFT_LEVELS
    for level in requested:
        # a negative level would index from the end
        integer("level", level, 0, levels - 1)
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
) -> float:
    """Second-order cavity shift lambda_l for one qubit level, in MHz.

    lambda_l sums g_lj^2 [1/(f_l - f_j - nu_r) + 1/(f_l - f_j + nu_r)]
    over the other levels, with g_lj = g |<l|n|j>| / |<0|n|1>|.  The sum
    is truncated at ``DEFAULT_SHIFT_LEVELS`` (10) eigenstates; widening
    the truncation to 12 levels changes the result by under 1 percent for
    transmon-regime parameters.

    Raises
    ------
    NearResonanceError
        If any included transition from ``level`` lies within ten coupling
        matrix elements of the cavity frequency.
    """
    return _level_shifts(params, coupling, (level,))[0]


def chi_shift(params: TransmonParams, coupling: CavityCoupling) -> float:
    """Dispersive shift chi = (lambda_e - lambda_g)/2 in MHz."""
    lam_e, lam_g = _level_shifts(params, coupling, (1, 0))
    return (lam_e - lam_g) / 2.0


def resonator_dispersion(
    params: TransmonParams,
    coupling: CavityCoupling,
    method: str = "ground",
) -> float:
    """Charge dispersion transferred to the readout resonator, in kHz.

    With ``method="ground"`` (default) this is the swing of the
    ground-state cavity pull, |lambda_g(ng=0.5) - lambda_g(ng=0)|.  The
    alternative ``method="chi"`` uses the swing of chi instead.
    """
    if method == "ground":
        at_zero = dispersive_shift(params.with_ng(0.0), coupling, 0)
        at_half = dispersive_shift(params.with_ng(0.5), coupling, 0)
    elif method == "chi":
        at_zero = chi_shift(params.with_ng(0.0), coupling)
        at_half = chi_shift(params.with_ng(0.5), coupling)
    else:
        raise DomainError(f"unknown method {method!r}")
    return abs(at_half - at_zero) * 1e3


def __getattr__(name: str):
    if name == "fit_ej_ec":
        from ._inversion import fit_ej_ec

        globals()[name] = fit_ej_ec
        return fit_ej_ec
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
