"""Stochastic charge-parity dynamics and synthetic two-tone spectroscopy.

Parity switching is a symmetric telegraph process with exponential dwell
times; offset charge wanders by uniform sub-Cooper-pair jumps at the TLS
reconfiguration rate.  A scan weights the even- and odd-parity Lorentzian
branches of each pixel by their exact dwell fractions inside it, and the
detector side recovers peak counts and a parity-lifetime verdict from the
synthetic record.

Both sides work array-wise.  Synthesis merges the switch and jump times
once and cuts every pixel into segments between events.  It sums the
segment weights of each (offset charge, parity) state a pixel visits, in
time order, and adds one Lorentzian per visited state, in the order the
pixel first visits them, so a pixel that switches hundreds of times adds
two or three terms.  The terms go into the scan in blocks of pixel rows,
and each block's noise is drawn into one buffer that the whole scan
reuses.  The result is bit-identical to a per-pixel loop that sums each
state's dwell in time order and adds the states in first-visit order; a
loop that adds one Lorentzian per segment gives the same bits wherever a
pixel visits each state at most once.  Detection sorts each block of
rows once, into one reused buffer, and reads both the row medians and
the MADs (median absolute deviations) of its thresholds from that sort.
It tests the local-maximum condition only at the samples above the
thresholds and clusters the survivors; it keeps the results as arrays,
which the verdict and the CLI's peak table read, and builds a per-row
:class:`PeakSet` only on request.

All random draws derive from a single master seed through independent
spawned streams, so traces and scans are reproducible bit for bit
regardless of execution order.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._record import Record
from .errors import CoverageError, DomainError, non_negative, positive
# the noise rates and the scan limit live in .noise, where the config
# loader reads them
from .noise import (DEFAULT_PIXEL_SECONDS, DEFAULT_TLS_RATE,
                    MAX_SCAN_SAMPLES, NoiseModel)
from .numerics import sort_median_mad
from .transmon import TransmonParams, transition_frequency

_EVEN = 0
_ODD = 1
_PARITY_NAMES = {"even": _EVEN, "odd": _ODD}

# A run of exponential waits is drawn in blocks of this size until the
# cumulative time passes the requested duration.
_BLOCK = 4096

# Scans are synthesized and graded in blocks of this many pixel rows, which
# bounds the per-block temporaries (gathered Lorentzians, detection masks)
# and sizes the one noise buffer and the one sort buffer of a scan.
_ROWS = 256

# The most work one input may ask for: expected events (rate x duration)
# of one Poisson process, and scan samples (``noise.MAX_SCAN_SAMPLES``).
MAX_EXPECTED_EVENTS = 10_000_000


def _exponential_arrivals(
    rate_per_s: float, duration_s: float, rng: np.random.Generator
) -> np.ndarray:
    """Arrival times of a Poisson process on [0, duration)."""
    if rate_per_s == 0.0:
        return np.empty(0)
    expected = rate_per_s * duration_s
    if not expected <= MAX_EXPECTED_EVENTS:
        raise DomainError(
            f"rate {rate_per_s:g}/s over {duration_s:g} s expects "
            f"{expected:.3g} events, more than {MAX_EXPECTED_EVENTS:.3g}"
        )
    times = []
    t = 0.0
    while t < duration_s:
        waits = rng.exponential(1.0 / rate_per_s, size=_BLOCK)
        arrivals = t + np.cumsum(waits)
        times.append(arrivals)
        t = arrivals[-1]
    merged = np.concatenate(times)
    return merged[merged < duration_s]


class ParityTrace(Record):
    """Telegraph record of charge parity over [0, duration).

    ``switch_times`` are the strictly increasing parity-flip instants;
    parity starts at ``initial_parity`` (0 even, 1 odd) and flips at each.
    """

    __slots__ = ("switch_times", "duration_s", "initial_parity", "seed")
    _hidden = ("seed",)
    _defaults = {"initial_parity": _EVEN, "seed": None}

    def parity_at(self, t: float) -> int:
        """Parity (0 even, 1 odd) at time ``t``."""
        flips = int(np.searchsorted(self.switch_times, t, side="right"))
        return (self.initial_parity + flips) % 2

    def dwell_fractions(self, t0: float, t1: float) -> tuple[float, float]:
        """Exact (even, odd) dwell fractions inside the window [t0, t1]."""
        if not 0.0 <= t0 < t1 <= self.duration_s + 1e-12:
            raise DomainError(f"window [{t0}, {t1}] outside trace")
        lo = int(np.searchsorted(self.switch_times, t0, side="right"))
        hi = int(np.searchsorted(self.switch_times, t1, side="left"))
        edges = [t0, *self.switch_times[lo:hi], t1]
        dwell = [0.0, 0.0]
        parity = (self.initial_parity + lo) % 2
        for start, end in zip(edges[:-1], edges[1:]):
            dwell[parity] += end - start
            parity = (parity + 1) % 2
        total = t1 - t0
        return dwell[_EVEN] / total, dwell[_ODD] / total

    @property
    def switch_count(self) -> int:
        return len(self.switch_times)


class ChargeTrace(Record):
    """Piecewise-constant offset charge over [0, duration).

    ``ng_values`` has one more entry than ``jump_times``; the first entry
    is the initial offset charge.
    """

    __slots__ = ("jump_times", "ng_values", "duration_s", "seed")
    _hidden = ("seed",)
    _defaults = {"seed": None}

    def ng_at(self, t: float) -> float:
        idx = int(np.searchsorted(self.jump_times, t, side="right"))
        return float(self.ng_values[idx])

    def visited_values(self) -> np.ndarray:
        return np.asarray(self.ng_values, dtype=float)


def simulate_parity(
    gamma_per_s: float,
    duration_s: float,
    seed: int,
    initial_parity: str = "even",
) -> ParityTrace:
    """Draw a telegraph parity trace with exponential dwell times.

    A zero rate returns a trace with no switches.  The same seed gives an
    identical trace on every platform and thread count.
    """
    non_negative("rate", gamma_per_s)
    positive("duration", duration_s)
    if initial_parity not in _PARITY_NAMES:
        raise DomainError(
            f"initial parity must be 'even' or 'odd', got {initial_parity!r}"
        )
    rng = np.random.default_rng(seed)
    times = _exponential_arrivals(gamma_per_s, duration_s, rng)
    return ParityTrace(
        switch_times=times,
        duration_s=duration_s,
        initial_parity=_PARITY_NAMES[initial_parity],
        seed=seed,
    )


def simulate_offset_charge(
    model: NoiseModel,
    duration_s: float,
    seed: int,
    ng_initial: float = 0.0,
) -> ChargeTrace:
    """Draw the TLS-driven offset-charge trajectory.

    Jumps arrive as a Poisson process at the model's TLS rate; each jump
    adds a uniform(0, 1) shift to ng, reduced modulo 1.
    """
    positive("duration", duration_s)
    rng = np.random.default_rng(seed)
    times = _exponential_arrivals(model.tls_rate_per_s, duration_s, rng)
    values = np.empty(len(times) + 1)
    values[0] = ng_initial % 1.0
    if len(times):
        shifts = rng.uniform(0.0, 1.0, size=len(times))
        values[1:] = (values[0] + np.cumsum(shifts)) % 1.0
    return ChargeTrace(
        jump_times=times, ng_values=values, duration_s=duration_s, seed=seed
    )


class ScanConfig(Record):
    """Frequency grid and pixel integration settings of a scan."""

    __slots__ = ("f_min_ghz", "f_max_ghz", "n_freq", "pixel_seconds")
    _defaults = {"n_freq": 161, "pixel_seconds": DEFAULT_PIXEL_SECONDS}

    def _check(self) -> None:
        if not self.f_max_ghz > self.f_min_ghz:
            raise DomainError("frequency window is empty")
        if self.n_freq < 3:
            raise DomainError(f"n_freq must be >= 3, got {self.n_freq}")
        if self.n_freq > MAX_SCAN_SAMPLES:
            raise DomainError(
                f"n_freq must be at most {MAX_SCAN_SAMPLES}, got {self.n_freq}"
            )
        positive("pixel time", self.pixel_seconds)

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.f_min_ghz, self.f_max_ghz, self.n_freq)


def scan_window(
    params: TransmonParams, linewidth_mhz: float, pad_linewidths: float = 5.0
) -> tuple[float, float]:
    """Frequency window covering both parity branches at every offset charge.

    The ge frequency swings between its values at ng = 0.5 and ng = 0, so
    that band, padded by a few linewidths, covers every branch position.
    """
    f_low = transition_frequency(params.with_ng(0.5))
    f_high = transition_frequency(params.with_ng(0.0))
    pad = pad_linewidths * linewidth_mhz / 1e3
    return f_low - pad, f_high + pad


class SpectroscopyScan(Record):
    """Synthetic parity-resolved spectroscopy record.

    ``amplitudes`` has one row per time pixel and one column per grid
    frequency.  ``branch_freqs_ghz`` carries the model (even, odd) branch
    frequencies at each pixel midpoint, the curves a measurement would
    overlay on the scan.
    """

    __slots__ = (
        "frequencies_ghz", "pixel_starts_s", "amplitudes", "branch_freqs_ghz",
        "linewidth_mhz", "snr", "pixel_seconds", "seed",
    )

    @property
    def n_pixels(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def duration_s(self) -> float:
        return self.n_pixels * self.pixel_seconds

    def metadata(self) -> dict:
        return {
            "seed": self.seed,
            "n_pixels": self.n_pixels,
            "n_freq": int(self.amplitudes.shape[1]),
            "f_min_ghz": float(self.frequencies_ghz[0]),
            "f_max_ghz": float(self.frequencies_ghz[-1]),
            "pixel_seconds": self.pixel_seconds,
            "linewidth_mhz": self.linewidth_mhz,
            "snr": self.snr,
        }


def _branch_table(
    params: TransmonParams, ng_values: np.ndarray, freqs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(even, odd) ge frequencies of every distinct offset charge.

    Returns the (n_distinct, 2) branch table in visit order and, for each
    entry of ``ng_values``, its row in that table.  Every branch is checked
    against the frequency grid as it is first computed.
    """
    row_of: dict[float, int] = {}
    branches: list[tuple[float, float]] = []
    slot = np.empty(len(ng_values), dtype=np.intp)
    for i, ng in enumerate(ng_values):
        key = float(ng)
        if key not in row_of:
            pair = (
                transition_frequency(params.with_ng(key)),
                transition_frequency(params.with_ng(key + 0.5)),
            )
            for f_branch in pair:
                if not freqs[0] <= f_branch <= freqs[-1]:
                    raise CoverageError(
                        f"branch at {f_branch:.6f} GHz (ng={ng:.4f}) outside "
                        f"grid [{freqs[0]:.6f}, {freqs[-1]:.6f}] GHz"
                    )
            row_of[key] = len(branches)
            branches.append(pair)
        slot[i] = row_of[key]
    return np.array(branches), slot


def _pixel_terms(
    times: np.ndarray,
    states: np.ndarray,
    t0: np.ndarray,
    pixel_seconds: float,
    n_states: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The Lorentzian terms of every pixel: one per visited state.

    Pixel i spans [t0, t0 + pixel_seconds]; events at either end lie
    outside it.  Its segments run between t0, its events in time order and
    its end, and segment k has the state after event lo + k.  A term's
    dwell is the sum of its state's segment weights in time order, and a
    pixel's terms follow the order in which its states are first visited
    by a segment of nonzero width.  Returns each pixel's first term and
    term count, and every term's dwell and state, in pixel order.
    """
    t1 = t0 + pixel_seconds
    lo = np.searchsorted(times, t0, side="right")
    hi = np.searchsorted(times, t1, side="left")
    count = hi - lo + 1
    last = np.cumsum(count) - 1
    first = last - (hi - lo)
    # segment j ends at event[j], or at t1 when it is its pixel's last
    event = np.repeat(lo - first, count)
    event += np.arange(len(event))
    end = np.append(times, np.inf)[event]
    end[last] = t1
    weight = np.empty_like(end)
    np.subtract(end[1:], end[:-1], out=weight[1:])
    weight[first] = end[first] - t0
    weight /= pixel_seconds
    state = states[event]
    # merge the visits of each (pixel, state); a zero-width segment (at
    # coincident events) visits nothing and would add +0.0
    pixel = np.repeat(np.arange(len(t0)), count)
    if not weight.all():
        visited = np.flatnonzero(weight)
        weight, pixel, state = weight[visited], pixel[visited], state[visited]
    key = pixel * n_states
    key += state
    _, first_visit, term = np.unique(
        key, return_index=True, return_inverse=True
    )
    dwell = np.bincount(term, weights=weight)
    first_visit.sort()
    count = np.bincount(pixel[first_visit], minlength=len(t0))
    return (np.cumsum(count) - count, count, dwell[term[first_visit]],
            state[first_visit])


def synthesize_scan(
    params: TransmonParams,
    parity_trace: ParityTrace,
    charge_trace: ChargeTrace,
    config: ScanConfig,
    linewidth_mhz: float = 1.0,
    snr: float = 10.0,
    seed: int = 0,
) -> SpectroscopyScan:
    """Integrate the two-branch qubit response into a pixel scan.

    Within each pixel the response is the dwell-weighted sum of unit-peak
    Lorentzians at the even- and odd-parity ge frequencies (dwell fractions
    integrated analytically from the traces, not sampled), plus white
    Gaussian noise with standard deviation 1/snr.

    Raises
    ------
    CoverageError
        If any branch frequency visited during the scan falls outside the
        frequency grid.
    """
    positive("linewidth", linewidth_mhz)
    positive("snr", snr)
    if abs(parity_trace.duration_s - charge_trace.duration_s) > 1e-9:
        raise DomainError("parity and charge traces cover different durations")
    pixels = parity_trace.duration_s / config.pixel_seconds + 1e-9
    if pixels < 1:
        raise DomainError("trace shorter than one pixel")
    if not pixels * config.n_freq <= MAX_SCAN_SAMPLES:
        raise DomainError(
            f"scan of {pixels:.3g} pixels x {config.n_freq} frequencies "
            f"exceeds {MAX_SCAN_SAMPLES:.3g} samples"
        )
    n_pixels = int(pixels)

    freqs = config.frequencies()
    branches, ng_slot = _branch_table(
        params, charge_trace.visited_values(), freqs
    )
    hwhm_ghz = linewidth_mhz / 2e3
    # Lorentzian denominator of state 2 * (branch-table row) + parity
    denominators = 1.0 + ((freqs - branches.reshape(-1, 1)) / hwhm_ghz) ** 2

    # Switches and jumps merged into one event list; ``states[m]`` is the
    # joint state after the first m events.
    jump_times = charge_trace.jump_times
    times = np.concatenate([jump_times, parity_trace.switch_times])
    order = np.argsort(times, kind="stable")
    times = times[order]
    flips = np.zeros(len(times) + 1, dtype=np.intp)
    np.cumsum(order >= len(jump_times), out=flips[1:])
    states = 2 * ng_slot[np.arange(len(flips)) - flips]
    states += (flips + parity_trace.initial_parity) & 1

    pixel_starts = np.arange(n_pixels) * config.pixel_seconds
    head, n_terms, dwell, state = _pixel_terms(
        times, states, pixel_starts, config.pixel_seconds, len(denominators)
    )
    noise_rng = np.random.default_rng(
        np.random.SeedSequence(seed).spawn(1)[0]
    )
    amplitudes = np.empty((n_pixels, len(freqs)))
    noise = np.empty((min(_ROWS, n_pixels), len(freqs)))
    for first in range(0, n_pixels, _ROWS):
        # every row takes its first term in place, then its later terms
        # in order, the rows that have a k-th term together
        rows = amplitudes[first:first + _ROWS]
        heads = head[first:first + _ROWS]
        terms = n_terms[first:first + _ROWS]
        # the states index the table, and mode="raise" would copy via a
        # temporary block
        np.take(denominators, state[heads], axis=0, out=rows, mode="clip")
        np.divide(dwell[heads, None], rows, out=rows)
        for k in range(1, terms.max()):
            sub = np.flatnonzero(terms > k)
            kth = heads[sub] + k
            rows[sub] += dwell[kth, None] / denominators[state[kth]]
        # bit for bit normal(0.0, 1.0 / snr): numpy draws 0.0 + scale * z,
        # and the 0.0 only turns -0.0 into 0.0, which the positive row
        # absorbs
        draws = noise[:len(rows)]
        noise_rng.standard_normal(out=draws)
        draws *= 1.0 / snr
        rows += draws

    midpoints = (pixel_starts + (pixel_starts + config.pixel_seconds)) / 2.0
    branch_freqs = branches[
        ng_slot[np.searchsorted(jump_times, midpoints, side="right")]
    ]
    return SpectroscopyScan(
        frequencies_ghz=freqs,
        pixel_starts_s=pixel_starts,
        amplitudes=amplitudes,
        branch_freqs_ghz=branch_freqs,
        linewidth_mhz=linewidth_mhz,
        snr=snr,
        pixel_seconds=config.pixel_seconds,
        seed=seed,
    )


class PeakSet(Record):
    """Detected peaks in one scan row: count (capped at 2) and positions."""

    __slots__ = ("count", "positions_ghz", "threshold")


def _detect_rows(
    freqs: np.ndarray,
    amplitudes: np.ndarray,
    linewidth_mhz: float,
    threshold_k: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Threshold-and-cluster peak detection on every row of ``amplitudes``.

    Returns per-row peak counts, (n_rows, 2) peak positions in ascending
    order padded with NaN, and thresholds.  Rows are processed in blocks.
    """
    positive("threshold_k", threshold_k)
    positive("linewidth", linewidth_mhz)
    lw_ghz = linewidth_mhz / 1e3
    n_rows, n_freq = amplitudes.shape
    counts = np.zeros(n_rows, dtype=np.intp)
    positions = np.full((n_rows, 2), np.nan)
    thresholds = np.empty(n_rows)
    ordered = np.empty((min(_ROWS, n_rows), n_freq))
    for first in range(0, n_rows, _ROWS):
        block = amplitudes[first:first + _ROWS]
        median, mad = sort_median_mad(block, ordered)
        threshold = median + threshold_k * (1.4826 * mad)
        thresholds[first:first + _ROWS] = threshold

        # Local maxima among the samples above threshold: a sample tops its
        # left neighbour and at least equals its right one; the first and
        # last columns must top their one neighbour.
        flat = block.reshape(-1)
        index = np.flatnonzero(block > threshold[:, None])
        amp = flat[index]
        row, col = np.divmod(index, n_freq)
        first_col, last_col = col == 0, col == n_freq - 1
        right = flat.take(index + 1, mode="clip")
        is_max = (first_col | (amp > flat.take(index - 1, mode="clip"))) & (
            last_col | np.where(first_col, amp > right, amp >= right)
        )
        row, amp, pos = row[is_max], amp[is_max], freqs[col[is_max]]
        if len(row) == 0:
            continue

        # A candidate joins its row's previous candidate's cluster when it
        # lies within one linewidth of it; a cluster peaks at its first
        # maximum (the stable sort keeps column order among equals).
        opens = np.empty(len(row), dtype=bool)
        opens[0] = True
        np.not_equal(row[1:], row[:-1], out=opens[1:])
        opens[1:] |= ~(pos[1:] - pos[:-1] <= lw_ghz)
        best = np.lexsort((-amp, np.cumsum(opens)))[opens]
        row, amp, pos = row[best], amp[best], pos[best]

        # Each row keeps its two strongest peaks by (amplitude, frequency).
        order = np.lexsort((-pos, -amp, row))
        row, pos = row[order], pos[order]
        rank = np.arange(len(row)) - np.searchsorted(row, row)
        kept = rank < 2
        row = row + first
        counts[row[rank == 0]] = 1
        counts[row[rank == 1]] = 2
        positions[row[kept], rank[kept]] = pos[kept]
    positions.sort(axis=1)
    return counts, positions, thresholds


def _peak_sets(
    counts: np.ndarray, positions: np.ndarray, thresholds: np.ndarray
) -> tuple[PeakSet, ...]:
    """One PeakSet per row from the arrays of :func:`_detect_rows`."""
    return tuple(
        PeakSet(count=count, positions_ghz=(low, high)[:count], threshold=level)
        for count, low, high, level in zip(
            counts.tolist(),
            positions[:, 0].tolist(),
            positions[:, 1].tolist(),
            thresholds.tolist(),
        )
    )


def detect_peaks(
    frequencies_ghz: np.ndarray,
    amplitudes: np.ndarray,
    linewidth_mhz: float,
    threshold_k: float = 5.0,
) -> PeakSet:
    """Threshold-and-cluster peak detection on one scan row.

    Local maxima above median + k robust standard deviations (MAD scaled
    by 1.4826 for Gaussian consistency) are clustered within one linewidth;
    each cluster contributes one peak at its strongest sample, and the two
    strongest peaks are kept.  At the default k the false-positive rate on
    pure noise rows is below 1 in 100.
    """
    freqs = np.asarray(frequencies_ghz, dtype=float)
    row = np.asarray(amplitudes, dtype=float)
    if freqs.shape != row.shape or row.ndim != 1:
        raise DomainError("frequencies and amplitudes must be equal 1-d arrays")
    if not len(row):
        raise DomainError("amplitudes hold no samples")
    return _peak_sets(
        *_detect_rows(freqs, row[None, :], linewidth_mhz, threshold_k)
    )[0]


class LifetimeEstimate(Record):
    """Parity-lifetime verdict recovered from a scan.

    ``kind`` is one of "upper_bound" (both branches visible inside single
    pixels), "lower_bound" (one branch, never alternating), "estimate"
    (duration over observed alternations), or "inconclusive".

    The detection pass is kept as arrays, one entry per scan row in pixel
    order: ``counts`` (0, 1 or 2 peaks), ``positions_ghz`` ((n_rows, 2),
    ascending, NaN where a row has fewer peaks) and ``thresholds``.
    ``peaks`` builds one :class:`PeakSet` per row from them on first read.
    """

    __slots__ = (
        "kind", "seconds", "alternations", "two_peak_fraction",
        "single_peak_fraction", "counts", "positions_ghz", "thresholds",
        "__dict__",  # holds the cached ``peaks``
    )
    _hidden = _uncompared = ("counts", "positions_ghz", "thresholds")

    @cached_property
    def peaks(self) -> tuple[PeakSet, ...]:
        """The detected peaks of every scan row, in pixel order."""
        return _peak_sets(self.counts, self.positions_ghz, self.thresholds)

    def describe(self) -> str:
        if self.kind == "upper_bound":
            return (
                f"two-branch: parity lifetime <= {self.seconds:g} s "
                "(both parities within one pixel)"
            )
        if self.kind == "lower_bound":
            return (
                f"single-branch: parity lifetime >= {self.seconds:g} s "
                "(no alternation over the scan)"
            )
        if self.kind == "estimate":
            return (
                f"parity lifetime ~= {self.seconds:g} s "
                f"({self.alternations} alternations)"
            )
        return (
            "inconclusive: branches unresolved at this linewidth or too "
            "few attributable peaks"
        )


def estimate_parity_lifetime(
    scan: SpectroscopyScan, threshold_k: float = 5.0
) -> LifetimeEstimate:
    """Classify a scan into a parity-lifetime verdict.

    Pixels showing both branches in at least 90 percent of rows bound the
    lifetime above by one pixel.  Otherwise single-peak pixels are
    attributed to the nearer model branch; the lifetime follows from the
    alternation count of that branch sequence, or is bounded below by the
    scan duration when the branch never alternates.
    """
    counts, positions, thresholds = _detect_rows(
        scan.frequencies_ghz, scan.amplitudes, scan.linewidth_mhz, threshold_k
    )
    # Single-peak rows are attributed to the nearer model branch (even on
    # a tie) unless the branches are unresolved or the peak is far from both.
    lw_ghz = scan.linewidth_mhz / 1e3
    single = counts == 1
    f_even, f_odd = scan.branch_freqs_ghz[single].T
    position = positions[single, 0]
    d_even = np.abs(position - f_even)
    d_odd = np.abs(position - f_odd)
    odd = d_odd < d_even
    attributable = ~(np.abs(f_even - f_odd) < lw_ghz) & ~(
        np.where(odd, d_odd, d_even) > 3.0 * lw_ghz
    )
    assigned = odd[attributable]
    alternations = int(np.count_nonzero(assigned[1:] != assigned[:-1]))

    two_peak_fraction = float(np.mean(counts == 2))
    if two_peak_fraction >= 0.9:
        kind, seconds, alternations = "upper_bound", scan.pixel_seconds, 0
    elif alternations > 0:
        kind, seconds = "estimate", scan.duration_s / alternations
    elif len(assigned) >= 0.5 * scan.n_pixels:
        kind, seconds = "lower_bound", scan.duration_s
    else:
        kind, seconds = "inconclusive", math.nan
    return LifetimeEstimate(
        kind=kind,
        seconds=seconds,
        alternations=alternations,
        two_peak_fraction=two_peak_fraction,
        single_peak_fraction=float(np.mean(counts == 1)),
        counts=counts,
        positions_ghz=positions,
        thresholds=thresholds,
    )
