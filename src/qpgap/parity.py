"""Stochastic charge-parity dynamics and synthetic two-tone spectroscopy.

Parity switching is a symmetric telegraph process with exponential dwell
times; offset charge wanders by uniform sub-Cooper-pair jumps at the TLS
reconfiguration rate.  A scan integrates the qubit response pixel by pixel,
weighting the even- and odd-parity Lorentzian branches by their exact dwell
fractions inside each pixel, and the detector side recovers peak counts and
a parity-lifetime verdict from the synthetic record.

All random draws derive from a single master seed through independent
spawned streams, so traces and scans are reproducible bit for bit
regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, DomainError
from .transmon import TransmonParams, transition_frequency

DEFAULT_TLS_RATE = 1.0 / 180.0
DEFAULT_PIXEL_SECONDS = 0.2

_EVEN = 0
_ODD = 1
_PARITY_NAMES = {"even": _EVEN, "odd": _ODD}

# A run of exponential waits is drawn in blocks of this size until the
# cumulative time passes the requested duration.
_BLOCK = 4096


@dataclass(frozen=True)
class NoiseModel:
    """Rates of the two noise processes acting on the qubit.

    ``gamma_parity_per_s`` is the charge-parity switching rate and
    ``tls_rate_per_s`` the offset-charge reconfiguration rate; each jump
    shifts ng by a uniform amount reduced modulo one Cooper pair.
    """

    gamma_parity_per_s: float
    tls_rate_per_s: float = DEFAULT_TLS_RATE

    def __post_init__(self):
        if self.gamma_parity_per_s < 0:
            raise DomainError(
                f"parity rate must be non-negative, got {self.gamma_parity_per_s}"
            )
        if self.tls_rate_per_s < 0:
            raise DomainError(
                f"TLS rate must be non-negative, got {self.tls_rate_per_s}"
            )


def _exponential_arrivals(
    rate_per_s: float, duration_s: float, rng: np.random.Generator
) -> np.ndarray:
    """Arrival times of a Poisson process on [0, duration)."""
    if rate_per_s == 0.0:
        return np.empty(0)
    times = []
    t = 0.0
    while t < duration_s:
        waits = rng.exponential(1.0 / rate_per_s, size=_BLOCK)
        arrivals = t + np.cumsum(waits)
        times.append(arrivals)
        t = arrivals[-1]
    merged = np.concatenate(times)
    return merged[merged < duration_s]


@dataclass(frozen=True)
class ParityTrace:
    """Telegraph record of charge parity over [0, duration).

    ``switch_times`` are the strictly increasing parity-flip instants;
    parity starts at ``initial_parity`` (0 even, 1 odd) and flips at each.
    """

    switch_times: np.ndarray
    duration_s: float
    initial_parity: int = _EVEN
    seed: int | None = field(default=None, repr=False)

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


@dataclass(frozen=True)
class ChargeTrace:
    """Piecewise-constant offset charge over [0, duration).

    ``ng_values`` has one more entry than ``jump_times``; the first entry
    is the initial offset charge.
    """

    jump_times: np.ndarray
    ng_values: np.ndarray
    duration_s: float
    seed: int | None = field(default=None, repr=False)

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
    if gamma_per_s < 0:
        raise DomainError(f"rate must be non-negative, got {gamma_per_s}")
    if duration_s <= 0:
        raise DomainError(f"duration must be positive, got {duration_s}")
    if initial_parity not in _PARITY_NAMES:
        raise DomainError(f"initial parity must be 'even' or 'odd'")
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
    if duration_s <= 0:
        raise DomainError(f"duration must be positive, got {duration_s}")
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


@dataclass(frozen=True)
class ScanConfig:
    """Frequency grid and pixel integration settings of a scan."""

    f_min_ghz: float
    f_max_ghz: float
    n_freq: int = 161
    pixel_seconds: float = DEFAULT_PIXEL_SECONDS

    def __post_init__(self):
        if self.f_max_ghz <= self.f_min_ghz:
            raise DomainError("frequency window is empty")
        if self.n_freq < 3:
            raise DomainError(f"n_freq must be >= 3, got {self.n_freq}")
        if self.pixel_seconds <= 0:
            raise DomainError("pixel time must be positive")

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


@dataclass(frozen=True)
class SpectroscopyScan:
    """Synthetic parity-resolved spectroscopy record.

    ``amplitudes`` has one row per time pixel and one column per grid
    frequency.  ``branch_freqs_ghz`` carries the model (even, odd) branch
    frequencies at each pixel midpoint, the curves a measurement would
    overlay on the scan.
    """

    frequencies_ghz: np.ndarray
    pixel_starts_s: np.ndarray
    amplitudes: np.ndarray
    branch_freqs_ghz: np.ndarray
    linewidth_mhz: float
    snr: float
    pixel_seconds: float
    seed: int

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


def _branch_cache(params: TransmonParams):
    cache: dict[float, tuple[float, float]] = {}

    def branches(ng: float) -> tuple[float, float]:
        key = float(ng)
        if key not in cache:
            f_even = transition_frequency(params.with_ng(key))
            f_odd = transition_frequency(params.with_ng(key + 0.5))
            cache[key] = (f_even, f_odd)
        return cache[key]

    return branches


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
    if linewidth_mhz <= 0:
        raise DomainError(f"linewidth must be positive, got {linewidth_mhz}")
    if snr <= 0:
        raise DomainError(f"snr must be positive, got {snr}")
    if abs(parity_trace.duration_s - charge_trace.duration_s) > 1e-9:
        raise DomainError("parity and charge traces cover different durations")
    n_pixels = int(parity_trace.duration_s / config.pixel_seconds + 1e-9)
    if n_pixels < 1:
        raise DomainError("trace shorter than one pixel")

    freqs = config.frequencies()
    branches = _branch_cache(params)
    for ng in charge_trace.visited_values():
        for f_branch in branches(ng):
            if not freqs[0] <= f_branch <= freqs[-1]:
                raise CoverageError(
                    f"branch at {f_branch:.6f} GHz (ng={ng:.4f}) outside "
                    f"grid [{freqs[0]:.6f}, {freqs[-1]:.6f}] GHz"
                )

    hwhm_ghz = linewidth_mhz / 2e3
    noise_rng = np.random.default_rng(
        np.random.SeedSequence(seed).spawn(1)[0]
    )
    amplitudes = np.empty((n_pixels, len(freqs)))
    branch_freqs = np.empty((n_pixels, 2))
    pixel_starts = np.arange(n_pixels) * config.pixel_seconds

    for i in range(n_pixels):
        t0 = pixel_starts[i]
        t1 = t0 + config.pixel_seconds
        row = np.zeros(len(freqs))
        for start, end, parity, ng in _joint_segments(
            parity_trace, charge_trace, t0, t1
        ):
            weight = (end - start) / config.pixel_seconds
            center = branches(ng)[parity]
            row += weight / (1.0 + ((freqs - center) / hwhm_ghz) ** 2)
        ng_mid = charge_trace.ng_at((t0 + t1) / 2.0)
        branch_freqs[i] = branches(ng_mid)
        amplitudes[i] = row + noise_rng.normal(0.0, 1.0 / snr, size=len(freqs))

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


def _joint_segments(
    parity_trace: ParityTrace, charge_trace: ChargeTrace, t0: float, t1: float
):
    """Yield (start, end, parity, ng) pieces of the joint trajectory."""
    p_lo = int(np.searchsorted(parity_trace.switch_times, t0, side="right"))
    p_hi = int(np.searchsorted(parity_trace.switch_times, t1, side="left"))
    c_lo = int(np.searchsorted(charge_trace.jump_times, t0, side="right"))
    c_hi = int(np.searchsorted(charge_trace.jump_times, t1, side="left"))
    events = sorted(
        [(float(t), "p") for t in parity_trace.switch_times[p_lo:p_hi]]
        + [(float(t), "c") for t in charge_trace.jump_times[c_lo:c_hi]]
    )
    parity = (parity_trace.initial_parity + p_lo) % 2
    ng_index = c_lo
    cursor = t0
    for time, kind in events:
        if time > cursor:
            yield cursor, time, parity, float(charge_trace.ng_values[ng_index])
            cursor = time
        if kind == "p":
            parity = (parity + 1) % 2
        else:
            ng_index += 1
    if t1 > cursor:
        yield cursor, t1, parity, float(charge_trace.ng_values[ng_index])


@dataclass(frozen=True)
class PeakSet:
    """Detected peaks in one scan row: count (capped at 2) and positions."""

    count: int
    positions_ghz: tuple[float, ...]
    threshold: float


def detect_peaks(
    frequencies_ghz: np.ndarray,
    amplitudes: np.ndarray,
    linewidth_mhz: float,
    threshold_k: float = 5.0,
) -> PeakSet:
    """Threshold-and-cluster peak detection on one scan row.

    Local maxima above median + k robust standard deviations (MAD scaled
    by 1.4826 for Gaussian consistency) are clustered within one linewidth;
    each cluster contributes one peak at its strongest sample.  At the
    default k the false-positive rate on pure noise rows is below 1 in 100.
    """
    freqs = np.asarray(frequencies_ghz, dtype=float)
    row = np.asarray(amplitudes, dtype=float)
    if freqs.shape != row.shape or row.ndim != 1:
        raise DomainError("frequencies and amplitudes must be equal 1-d arrays")
    if threshold_k <= 0:
        raise DomainError(f"threshold_k must be positive, got {threshold_k}")
    median = float(np.median(row))
    sigma = 1.4826 * float(np.median(np.abs(row - median)))
    threshold = median + threshold_k * sigma

    inner = (row[1:-1] > row[:-2]) & (row[1:-1] >= row[2:])
    is_max = np.zeros(len(row), dtype=bool)
    is_max[1:-1] = inner
    is_max[0] = row[0] > row[1]
    is_max[-1] = row[-1] > row[-2]
    candidates = np.flatnonzero(is_max & (row > threshold))
    if len(candidates) == 0:
        return PeakSet(count=0, positions_ghz=(), threshold=threshold)

    lw_ghz = linewidth_mhz / 1e3
    clusters: list[list[int]] = [[int(candidates[0])]]
    for idx in candidates[1:]:
        if freqs[idx] - freqs[clusters[-1][-1]] <= lw_ghz:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    peaks = []
    for members in clusters:
        best = max(members, key=lambda j: row[j])
        peaks.append((row[best], freqs[best]))
    peaks.sort(reverse=True)
    kept = sorted(pos for _, pos in peaks[:2])
    return PeakSet(
        count=len(kept), positions_ghz=tuple(kept), threshold=threshold
    )


@dataclass(frozen=True)
class LifetimeEstimate:
    """Parity-lifetime verdict recovered from a scan.

    ``kind`` is one of "upper_bound" (both branches visible inside single
    pixels), "lower_bound" (one branch, never alternating), "estimate"
    (duration over observed alternations), or "inconclusive".  ``peaks``
    holds the detected peaks of every scan row, in pixel order.
    """

    kind: str
    seconds: float
    alternations: int
    two_peak_fraction: float
    single_peak_fraction: float
    peaks: tuple[PeakSet, ...] = field(repr=False)

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
    lw_ghz = scan.linewidth_mhz / 1e3
    peaks = tuple(
        detect_peaks(
            scan.frequencies_ghz, row, scan.linewidth_mhz, threshold_k
        )
        for row in scan.amplitudes
    )
    counts = np.array([row_peaks.count for row_peaks in peaks])
    assigned: list[tuple[int, int]] = []
    for i, row_peaks in enumerate(peaks):
        if row_peaks.count != 1:
            continue
        f_even, f_odd = scan.branch_freqs_ghz[i]
        if abs(f_even - f_odd) < lw_ghz:
            continue
        position = row_peaks.positions_ghz[0]
        distances = (abs(position - f_even), abs(position - f_odd))
        branch = int(np.argmin(distances))
        if distances[branch] > 3.0 * lw_ghz:
            continue
        assigned.append((i, branch))

    alternations = sum(
        1 for (_, a), (_, b) in zip(assigned, assigned[1:]) if a != b
    )
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
        peaks=peaks,
    )
