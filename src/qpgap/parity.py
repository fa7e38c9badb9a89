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
thresholds and fills each row's threshold.  The survivors of every block
wait for one pass per scan, which clusters and ranks them without a sort
and fills each row's peak count and positions.  The results are kept as
arrays, which the verdict and the CLI's peak table read.

Both sides are per-block kernels, :class:`_ScanSynthesis` and
:class:`_RowDetection`, whose verdict is the second half of
:func:`estimate_parity_lifetime`.  :func:`synthesize_scan` and
:func:`estimate_parity_lifetime` loop over them for a whole scan, and the
``parity-sim`` command drives the same kernels to grade and write each
block as it is made, without holding the scan.

All random draws derive from a single master seed through independent
spawned streams, so traces and scans are reproducible bit for bit
regardless of execution order.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .errors import CoverageError, DomainError, integer, non_negative, positive
# the noise rates, the scan limit and the records live in .device, where
# the config loader reads them
from .device import (DEFAULT_PIXEL_SECONDS, DEFAULT_TLS_RATE,
                     MAX_SCAN_SAMPLES, NoiseModel, TransmonParams)
from .transmon import transition_frequency

_EVEN = 0
_ODD = 1

# A run of exponential waits is drawn in blocks of this size until the
# cumulative time passes the requested duration.
_BLOCK = 4096

# Scans are synthesized and graded in blocks of as many whole pixel rows
# as fit in this many samples, and at least one row.  Each block pays the
# same numpy call overhead, which a fixed sample count spreads over the
# same work whatever the scan width; and the per-block temporaries
# (gathered Lorentzians, detection masks), the one noise buffer and the
# one sort buffer of a scan are bounded by samples, not rows.  At 161
# columns a block is 256 rows.
_BLOCK_SAMPLES = 256 * 161


def _block_rows(n_freq: int) -> int:
    """Pixel rows in one scan block of ``n_freq`` columns."""
    return max(1, _BLOCK_SAMPLES // n_freq)


# The detection threshold in robust standard deviations above a row's
# median.
_THRESHOLD_K = 5.0

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


def _check_event_times(name: str, times, duration_s: float) -> None:
    """Raise unless ``times`` is 1-d, sorted and inside [0, duration);
    equal neighbours pass.

    At the largest rates ``t + wait`` can round to ``t``, and synthesis
    drops the zero-width segment two equal times make.  The check reads
    the event times once and no scan sample; once they are sorted, the
    first and last entries bound the rest.
    """
    times = np.asarray(times)
    if times.ndim != 1:
        raise DomainError(f"{name} must be 1-d, got shape {times.shape}")
    if not np.all(times[1:] >= times[:-1]):
        raise DomainError(f"{name} must be sorted (non-decreasing)")
    if len(times) and not (times[0] >= 0.0 and times[-1] < duration_s):
        raise DomainError(
            f"{name} must lie in [0, duration) = [0, {duration_s}), got "
            f"[{times[0]}, {times[-1]}]"
        )


class ParityTrace(Record):
    """Telegraph record of charge parity over [0, duration).

    ``switch_times`` are the sorted (non-decreasing) parity-flip
    instants; parity starts at ``initial_parity`` (0 even, 1 odd) and
    flips at each.
    """

    __slots__ = ("switch_times", "duration_s", "initial_parity", "seed")
    _hidden = ("seed",)
    _defaults = {"initial_parity": _EVEN, "seed": None}

    def _check(self) -> None:
        positive("duration", self.duration_s)
        _check_event_times("switch_times", self.switch_times, self.duration_s)
        # synthesis adds the parity to integer flip counts
        integer("initial parity", self.initial_parity, _EVEN, _ODD)

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

    def _check(self) -> None:
        positive("duration", self.duration_s)
        _check_event_times("jump_times", self.jump_times, self.duration_s)
        if np.shape(self.ng_values) != (len(self.jump_times) + 1,):
            raise DomainError("ng_values needs one entry more than jump_times")

    def visited_values(self) -> np.ndarray:
        return np.asarray(self.ng_values, dtype=float)


def simulate_parity(
    gamma_per_s: float,
    duration_s: float,
    seed: int,
) -> ParityTrace:
    """Draw a telegraph parity trace with exponential dwell times, starting
    even.

    A zero rate returns a trace with no switches.  The same seed gives an
    identical trace on every platform and thread count.
    """
    non_negative("rate", gamma_per_s)
    positive("duration", duration_s)
    integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    times = _exponential_arrivals(gamma_per_s, duration_s, rng)
    return ParityTrace(switch_times=times, duration_s=duration_s, seed=seed)


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
    integer("seed", seed, 0)
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
        if not -math.inf < self.f_min_ghz < self.f_max_ghz < math.inf:
            raise DomainError("frequency window must be finite and non-empty")
        integer("n_freq", self.n_freq, 3, MAX_SCAN_SAMPLES)
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
    frequency; ``frequencies_ghz`` is finite and strictly ascending.
    ``branch_freqs_ghz`` carries the model (even, odd) branch frequencies
    at each pixel midpoint, the curves a measurement would overlay on the
    scan, one row per pixel.
    """

    __slots__ = (
        "frequencies_ghz", "pixel_starts_s", "amplitudes", "branch_freqs_ghz",
        "linewidth_mhz", "snr", "pixel_seconds", "seed",
    )

    def _check(self) -> None:
        # the amplitudes by shape only: an isfinite pass would read every
        # sample of a scan
        shape = np.shape(self.amplitudes)
        if len(shape) != 2 or not shape[1]:
            raise DomainError(f"amplitudes need 2 axes, 1+ columns: {shape}")
        if not shape[0]:
            # a scan shorter than one pixel; its verdict would grade no row
            raise DomainError("scan has no pixel rows")
        freqs = np.asarray(self.frequencies_ghz)
        if freqs.shape != shape[1:]:
            raise DomainError("frequencies_ghz needs one entry per column")
        # the detector joins a row's maxima by their frequency gaps
        if not (np.isfinite(freqs).all() and np.all(freqs[1:] > freqs[:-1])):
            raise DomainError(
                "frequencies_ghz must be finite and strictly ascending"
            )
        if np.shape(self.pixel_starts_s)[:1] != shape[:1]:
            raise DomainError("pixel_starts_s needs one row per pixel")
        if np.shape(self.branch_freqs_ghz) != (shape[0], 2):
            raise DomainError("branch_freqs_ghz needs shape (n_pixels, 2)")
        positive("pixel_seconds", self.pixel_seconds)

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
            "n_freq": len(self.frequencies_ghz),
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


class _ScanSynthesis:
    """A scan ready to synthesize, one block of ``block_rows`` pixel rows
    (:func:`_block_rows`, at most the scan's) at a time.

    The constructor checks every input and builds every per-scan table
    (the branch table, the Lorentzian denominators, the terms of each
    pixel, the model branches at the pixel midpoints), so an input that
    fails does so before the first row is made.  :meth:`blocks` then fills
    the rows in pixel order; each block draws its noise from the one
    stream into one reused buffer, so a row does not depend on where the
    blocks are written.  The object carries every field of
    :class:`SpectroscopyScan` except ``amplitudes``.
    """

    def __init__(
        self,
        params: TransmonParams,
        parity_trace: ParityTrace,
        charge_trace: ChargeTrace,
        config: ScanConfig,
        linewidth_mhz: float,
        snr: float,
        seed: int,
    ):
        positive("linewidth", linewidth_mhz)
        positive("snr", snr)
        integer("seed", seed, 0)
        if abs(parity_trace.duration_s - charge_trace.duration_s) > 1e-9:
            raise DomainError(
                "parity and charge traces cover different durations"
            )
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
        self._denominators = (
            1.0 + ((freqs - branches.reshape(-1, 1)) / hwhm_ghz) ** 2
        )

        # Switches and jumps merged into one event list; ``states[m]`` is
        # the joint state after the first m events.
        jump_times = charge_trace.jump_times
        times = np.concatenate([jump_times, parity_trace.switch_times])
        order = np.argsort(times, kind="stable")
        times = times[order]
        flips = np.zeros(len(times) + 1, dtype=np.intp)
        np.cumsum(order >= len(jump_times), out=flips[1:])
        states = 2 * ng_slot[np.arange(len(flips)) - flips]
        states += (flips + parity_trace.initial_parity) & 1

        pixel_starts = np.arange(n_pixels) * config.pixel_seconds
        self._head, self._n_terms, self._dwell, self._state = _pixel_terms(
            times, states, pixel_starts, config.pixel_seconds,
            len(self._denominators),
        )
        self._noise_rng = np.random.default_rng(
            np.random.SeedSequence(seed).spawn(1)[0]
        )
        self.block_rows = min(_block_rows(len(freqs)), n_pixels)
        self._noise = np.empty((self.block_rows, len(freqs)))

        ends = pixel_starts + config.pixel_seconds
        midpoints = (pixel_starts + ends) / 2.0
        self.frequencies_ghz = freqs
        self.pixel_starts_s = pixel_starts
        self.branch_freqs_ghz = branches[
            ng_slot[np.searchsorted(jump_times, midpoints, side="right")]
        ]
        self.linewidth_mhz = linewidth_mhz
        self.snr = snr
        self.pixel_seconds = config.pixel_seconds
        self.seed = seed

    @property
    def n_pixels(self) -> int:
        return len(self.pixel_starts_s)

    # the scan's metadata reads no amplitude
    metadata = SpectroscopyScan.metadata

    def blocks(self, out: np.ndarray):
        """Fill the scan's rows into ``out`` a block at a time, yielding
        each block's first pixel index and its rows once they are filled.

        ``out`` has the scan's shape, or one block's (``block_rows``
        rows), which every block then reuses.
        """
        n_pixels, size = self.n_pixels, self.block_rows
        for first in range(0, n_pixels, size):
            start = first if len(out) == n_pixels else 0
            rows = out[start:start + min(size, n_pixels - first)]
            self._fill(first, rows)
            yield first, rows

    def _fill(self, first: int, rows: np.ndarray) -> None:
        """Synthesize the pixel rows from ``first`` on into ``rows``."""
        # every row takes its first term in place, then its later terms
        # in order, the rows that have a k-th term together
        dwell, state = self._dwell, self._state
        denominators = self._denominators
        heads = self._head[first:first + len(rows)]
        terms = self._n_terms[first:first + len(rows)]
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
        draws = self._noise[:len(rows)]
        self._noise_rng.standard_normal(out=draws)
        draws *= 1.0 / self.snr
        rows += draws


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
    synthesis = _ScanSynthesis(
        params, parity_trace, charge_trace, config, linewidth_mhz, snr, seed
    )
    amplitudes = np.empty((synthesis.n_pixels, config.n_freq))
    for _ in synthesis.blocks(amplitudes):
        pass
    return SpectroscopyScan(
        frequencies_ghz=synthesis.frequencies_ghz,
        pixel_starts_s=synthesis.pixel_starts_s,
        amplitudes=amplitudes,
        branch_freqs_ghz=synthesis.branch_freqs_ghz,
        linewidth_mhz=linewidth_mhz,
        snr=snr,
        pixel_seconds=config.pixel_seconds,
        seed=seed,
    )


def sort_median_mad(
    values: np.ndarray, buffer: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row medians and median absolute deviations of a 2-d ``values``.

    Bit for bit ``median = qpgap.numerics.sort_median(values)`` and
    ``sort_median(np.abs(values - median[:, None]))``, from one sort:
    the rows are copied into the first rows of ``buffer`` (a float array
    at least as tall as ``values`` and exactly as wide), which are left
    holding the sorted deviations.
    """
    n = values.shape[1]
    ordered = buffer[:len(values)]
    np.copyto(ordered, values)
    ordered.sort(axis=1)
    half = n // 2
    median = ordered[:, half]
    if not n % 2:
        median = (ordered[:, half - 1] + median) / 2
    median = np.where(np.isnan(ordered[:, -1]), np.nan, median)
    ordered -= median[:, None]

    # Rounding keeps x - m non-decreasing along a sorted row, so |x - m|
    # falls, then rises, and the k smallest deviations are k neighbours:
    # the k-th smallest is the least, over runs of k, of the larger end
    # max(m - x[i], x[i+k-1] - m), as fl(m - x) = -fl(x - m).  NaN
    # anywhere in a row reaches its minimum.  The negation gives a zero
    # deviation and a NaN the sign bit that |x - m| clears; abs clears it.
    # The ends are laid out run by run (transposed, C-ordered), so the
    # minimum reduces along axis 0 in one inner loop per run across all
    # rows, not one per row.  A minimum is exact in any order.
    def kth_smallest(k: int) -> np.ndarray:
        ends = np.negative(ordered[:, :n - k + 1].T, order="C")
        np.maximum(ends, ordered[:, k - 1:].T, out=ends)
        return np.abs(ends.min(axis=0))

    mad = kth_smallest(half + 1)
    if not n % 2:
        mad = (kth_smallest(half) + mad) / 2
    return median, mad


def _starts(keys: np.ndarray) -> np.ndarray:
    """True at the first of ``keys`` and where a key differs from the one
    before it."""
    opens = np.empty(len(keys), dtype=bool)
    opens[0] = True
    np.not_equal(keys[1:], keys[:-1], out=opens[1:])
    return opens


def _run_largest(values: np.ndarray, opens: np.ndarray,
                 last: bool) -> np.ndarray:
    """Index of the first (or the ``last``) largest of each run of
    ``values``, a run opening where ``opens`` is True."""
    run = np.cumsum(opens)
    top = np.maximum.reduceat(values, np.flatnonzero(opens))
    hits = np.flatnonzero(values == top[run - 1])
    run = run[hits]
    if last:
        return hits[_starts(run[::-1])[::-1]]
    return hits[_starts(run)]


def _grown(values: np.ndarray, kept: int, size: int) -> np.ndarray:
    """A new array of ``size`` entries that starts with the first
    ``kept`` of ``values``."""
    grown = np.empty(size, dtype=values.dtype)
    grown[:kept] = values[:kept]
    return grown


class _RowDetection:
    """Threshold-and-cluster peak detection on the rows of a scan, one
    block of at most :func:`_block_rows` rows at a time.

    The per-row arrays are ``thresholds``, ``counts`` (0, 1 or 2 peaks)
    and ``positions_ghz`` ((n_rows, 2), ascending, NaN where a row has
    fewer peaks).  :meth:`grade` fills each row's threshold and keeps the
    row's local maxima; the per-scan pass :meth:`_cluster` then fills
    ``counts`` and ``positions_ghz`` for every row graded since its last
    run.  :meth:`verdict` runs the pass and grades the filled arrays, and
    :func:`_detect_rows` runs it before it returns.  A row's entries depend
    on that row alone, so the blocks may be any size up to that.
    """

    def __init__(
        self,
        freqs: np.ndarray,
        n_rows: int,
        linewidth_mhz: float,
    ):
        positive("linewidth", linewidth_mhz)
        self.freqs = freqs
        self.lw_ghz = linewidth_mhz / 1e3
        self.counts = np.zeros(n_rows, dtype=np.intp)
        self.positions_ghz = np.full((n_rows, 2), np.nan)
        self.thresholds = np.empty(n_rows)
        self._ordered = np.empty(
            (min(_block_rows(len(freqs)), n_rows), len(freqs))
        )
        # The first ``_n_maxima`` entries hold the flat scan index and the
        # amplitude of each local maximum graded since the last
        # :meth:`_cluster`; two a row fit, and a scan with more grows them.
        self._index = np.empty(2 * n_rows, dtype=np.intp)
        self._amp = np.empty(2 * n_rows)
        self._n_maxima = 0

    def grade(self, first: int, block: np.ndarray) -> None:
        """Detect the peaks of ``block``, the rows from ``first`` on."""
        n_freq = block.shape[1]
        median, mad = sort_median_mad(block, self._ordered)
        threshold = median + _THRESHOLD_K * (1.4826 * mad)
        self.thresholds[first:first + len(block)] = threshold

        # Local maxima among the samples above threshold: a sample tops its
        # left neighbour and at least equals its right one; the first and
        # last columns must top their one neighbour.
        flat = block.reshape(-1)
        index = np.flatnonzero(block > threshold[:, None])
        amp = flat[index]
        col = index % n_freq
        first_col, last_col = col == 0, col == n_freq - 1
        right = flat.take(index + 1, mode="clip")
        is_max = (first_col | (amp > flat.take(index - 1, mode="clip"))) & (
            last_col | np.where(first_col, amp > right, amp >= right)
        )
        index, amp = index[is_max], amp[is_max]
        index += first * n_freq
        start = self._n_maxima
        end = self._n_maxima = start + len(index)
        if end > len(self._amp):
            self._index = _grown(self._index, start, 2 * end)
            self._amp = _grown(self._amp, start, 2 * end)
        self._index[start:end] = index
        self._amp[start:end] = amp

    def _cluster(self) -> None:
        """Cluster and rank the local maxima :meth:`grade` collected since
        the last pass, filling their rows' ``counts`` and ``positions_ghz``.

        A row's maxima follow in column order, so along the ascending grid
        a cluster opens at a row's first maximum and after each gap of
        more than one linewidth, and peaks at its first largest maximum.
        A row keeps its two largest peaks, the higher frequency first
        among equals, which is the last largest peak in column order.
        """
        n, self._n_maxima = self._n_maxima, 0
        if not n:
            return
        row, col = np.divmod(self._index[:n], len(self.freqs))
        amp = self._amp[:n]
        pos = self.freqs[col]
        opens = _starts(row)
        opens[1:] |= ~(pos[1:] - pos[:-1] <= self.lw_ghz)
        peak = _run_largest(amp, opens, last=False)
        row, amp, pos = row[peak], amp[peak], pos[peak]
        opens = _starts(row)
        top = _run_largest(amp, opens, last=True)
        # every candidate is above a threshold, so -inf marks the first
        # peak; a row with no other peak returns it again
        amp[top] = -np.inf
        runner = _run_largest(amp, opens, last=True)
        pair = runner != top
        row = row[top]
        self.counts[row] = 1 + pair
        positions = self.positions_ghz
        positions[row, 0] = pos[np.minimum(top, runner)]
        positions[row[pair], 1] = pos[np.maximum(top, runner)[pair]]

    def verdict(
        self, branch_freqs_ghz: np.ndarray, pixel_seconds: float
    ) -> "LifetimeEstimate":
        """The parity-lifetime verdict of the graded rows, one pixel each,
        with the model (even, odd) branches of each pixel."""
        self._cluster()
        counts, positions = self.counts, self.positions_ghz
        # Single-peak rows are attributed to the nearer model branch (even
        # on a tie) unless the branches are unresolved or the peak is far
        # from both.
        lw_ghz = self.lw_ghz
        single = counts == 1
        f_even, f_odd = branch_freqs_ghz[single].T
        position = positions[single, 0]
        d_even = np.abs(position - f_even)
        d_odd = np.abs(position - f_odd)
        odd = d_odd < d_even
        attributable = ~(np.abs(f_even - f_odd) < lw_ghz) & ~(
            np.where(odd, d_odd, d_even) > 3.0 * lw_ghz
        )
        assigned = odd[attributable]
        alternations = int(np.count_nonzero(assigned[1:] != assigned[:-1]))

        n_pixels = len(counts)
        duration_s = n_pixels * pixel_seconds
        two_peak_fraction = float(np.mean(counts == 2))
        if two_peak_fraction >= 0.9:
            kind, seconds, alternations = "upper_bound", pixel_seconds, 0
        elif alternations > 0:
            kind, seconds = "estimate", duration_s / alternations
        elif len(assigned) >= 0.5 * n_pixels:
            kind, seconds = "lower_bound", duration_s
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
            thresholds=self.thresholds,
        )


def _detect_rows(
    freqs: np.ndarray,
    amplitudes: np.ndarray,
    linewidth_mhz: float,
) -> _RowDetection:
    """Threshold-and-cluster peak detection on every row of ``amplitudes``,
    a block of :func:`_block_rows` rows at a time.

    Local maxima above median + ``_THRESHOLD_K`` (5) robust standard
    deviations (MAD scaled by 1.4826 for Gaussian consistency) are
    clustered within one linewidth; each cluster contributes one peak at
    its strongest sample, and the two strongest peaks are kept.  The
    false-positive rate on pure noise rows is below 1 in 100.
    """
    detection = _RowDetection(freqs, len(amplitudes), linewidth_mhz)
    size = _block_rows(len(freqs))
    for first in range(0, len(amplitudes), size):
        detection.grade(first, amplitudes[first:first + size])
    detection._cluster()
    return detection


class LifetimeEstimate(Record):
    """Parity-lifetime verdict recovered from a scan.

    ``kind`` is one of "upper_bound" (both branches visible inside single
    pixels), "lower_bound" (one branch, never alternating), "estimate"
    (duration over observed alternations), or "inconclusive".

    The detection pass is kept as arrays, one entry per scan row in pixel
    order: ``counts`` (0, 1 or 2 peaks), ``positions_ghz`` ((n_rows, 2),
    ascending, NaN where a row has fewer peaks) and ``thresholds``.
    """

    __slots__ = (
        "kind", "seconds", "alternations", "two_peak_fraction",
        "single_peak_fraction", "counts", "positions_ghz", "thresholds",
    )
    _hidden = _uncompared = ("counts", "positions_ghz", "thresholds")

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


def estimate_parity_lifetime(scan: SpectroscopyScan) -> LifetimeEstimate:
    """Classify a scan into a parity-lifetime verdict.

    Pixels showing both branches in at least 90 percent of rows bound the
    lifetime above by one pixel.  Otherwise single-peak pixels are
    attributed to the nearer model branch; the lifetime follows from the
    alternation count of that branch sequence, or is bounded below by the
    scan duration when the branch never alternates.
    """
    return _detect_rows(
        scan.frequencies_ghz, scan.amplitudes, scan.linewidth_mhz
    ).verdict(scan.branch_freqs_ghz, scan.pixel_seconds)
