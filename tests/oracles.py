"""Reference forms that the tests compare the package against.

The package computes these quantities another way (a tridiagonal solve,
array-wise scan synthesis), so the direct forms live here, written for
clarity rather than speed.
"""

import numpy as np

from qpgap.errors import DomainError
from qpgap.transmon import transition_frequency


def tridiagonal_bands(params) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal 4 EC (n - ng)^2 and off-diagonal -EJ/2 of the charge-basis
    Hamiltonian, from the closed form."""
    cut = params.effective_n_cut
    charge = np.arange(-cut, cut + 1.0)
    return (4.0 * params.EC * (charge - params.ng) ** 2,
            np.full(2 * cut, -params.EJ / 2.0))


def build_hamiltonian(params) -> np.ndarray:
    """Dense charge-basis Hamiltonian matrix in GHz, of dimension
    2*effective_n_cut + 1."""
    diagonal, off_diagonal = tridiagonal_bands(params)
    matrix = np.diag(diagonal)
    idx = np.arange(len(off_diagonal))
    matrix[idx, idx + 1] = off_diagonal
    matrix[idx + 1, idx] = off_diagonal
    return matrix


def parity_frequencies(params) -> tuple[float, float]:
    """ge frequencies (GHz) of the even and odd charge-parity branches.

    The odd branch sees the offset charge shifted by half a Cooper pair.
    """
    f_even = transition_frequency(params)
    f_odd = transition_frequency(params.with_ng(params.ng + 0.5))
    return f_even, f_odd


def dwell_fractions(trace, t0: float, t1: float) -> tuple[float, float]:
    """Exact (even, odd) dwell fractions of a parity trace inside the
    window [t0, t1]."""
    if not 0.0 <= t0 < t1 <= trace.duration_s + 1e-12:
        raise DomainError(f"window [{t0}, {t1}] outside trace")
    lo = int(np.searchsorted(trace.switch_times, t0, side="right"))
    hi = int(np.searchsorted(trace.switch_times, t1, side="left"))
    edges = [t0, *trace.switch_times[lo:hi], t1]
    dwell = [0.0, 0.0]
    parity = (trace.initial_parity + lo) % 2
    for start, end in zip(edges[:-1], edges[1:]):
        dwell[parity] += end - start
        parity = (parity + 1) % 2
    total = t1 - t0
    return dwell[0] / total, dwell[1] / total


def ng_at(trace, t: float) -> float:
    """Offset charge of a charge trace at time ``t``."""
    idx = int(np.searchsorted(trace.jump_times, t, side="right"))
    return float(trace.ng_values[idx])
