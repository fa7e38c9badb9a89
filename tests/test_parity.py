import math
import tracemalloc

import numpy as np
import pytest

from qpgap.errors import CoverageError, DomainError
from qpgap.parity import (
    _BLOCK_SAMPLES,
    _THRESHOLD_K,
    DEFAULT_PIXEL_SECONDS,
    MAX_EXPECTED_EVENTS,
    MAX_SCAN_SAMPLES,
    ChargeTrace,
    NoiseModel,
    ParityTrace,
    ScanConfig,
    SpectroscopyScan,
    _block_rows,
    _detect_rows,
    _RowDetection,
    estimate_parity_lifetime,
    scan_window,
    simulate_offset_charge,
    simulate_parity,
    synthesize_scan,
)
from qpgap.transmon import TransmonParams, transition_frequency
from oracles import dwell_fractions, ng_at, parity_frequencies

SENSITIVE = TransmonParams(EJ=5.92, EC=0.400)  # 26 MHz parity splitting
INSENSITIVE = TransmonParams(EJ=21.67, EC=0.150)


def _flat_charge(duration_s: float, ng: float = 0.0) -> ChargeTrace:
    return ChargeTrace(
        jump_times=np.empty(0),
        ng_values=np.array([ng]),
        duration_s=duration_s,
    )


def _scan_config(duration_s: float, n_freq: int = 161) -> ScanConfig:
    f_min, f_max = scan_window(SENSITIVE, linewidth_mhz=1.0)
    return ScanConfig(f_min_ghz=f_min, f_max_ghz=f_max, n_freq=n_freq)


# ------------------------------------------------------------- telegraph


def test_parity_trace_is_deterministic():
    a = simulate_parity(2.0, 50.0, seed=7)
    b = simulate_parity(2.0, 50.0, seed=7)
    assert np.array_equal(a.switch_times, b.switch_times)
    c = simulate_parity(2.0, 50.0, seed=8)
    assert not np.array_equal(a.switch_times, c.switch_times)


def test_parity_trace_times_sorted_and_bounded():
    trace = simulate_parity(5.0, 20.0, seed=3)
    times = trace.switch_times
    assert np.all(np.diff(times) > 0)
    assert times[0] >= 0.0 and times[-1] < 20.0


def test_zero_rate_never_switches():
    trace = simulate_parity(0.0, 100.0, seed=1)
    assert trace.switch_count == 0
    assert dwell_fractions(trace, 0.0, 100.0) == (1.0, 0.0)


def test_initial_parity_is_honored():
    assert simulate_parity(1.0, 10.0, seed=1).initial_parity == 0
    trace = ParityTrace(switch_times=np.empty(0), duration_s=10.0,
                        initial_parity=np.int64(1))
    assert dwell_fractions(trace, 0.0, 10.0) == (0.0, 1.0)


def test_switch_counts_are_poisson():
    # mean and variance of the count match Poisson(rate * duration)
    # within four standard errors over many seeds
    rate, duration, n = 2.0, 10.0, 600
    lam = rate * duration
    counts = np.array(
        [simulate_parity(rate, duration, seed=s).switch_count
         for s in range(n)],
        dtype=float,
    )
    assert abs(counts.mean() - lam) < 4.0 * np.sqrt(lam / n)
    var_se = np.sqrt((lam + 2.0 * lam**2) / n)
    assert abs(counts.var() - lam) < 4.0 * var_se


def test_dwell_fractions_are_exact():
    trace = ParityTrace(
        switch_times=np.array([0.3, 0.7]), duration_s=1.0
    )
    even, odd = dwell_fractions(trace, 0.0, 1.0)
    assert even == pytest.approx(0.6, abs=1e-15)
    assert odd == pytest.approx(0.4, abs=1e-15)
    assert dwell_fractions(trace, 0.0, 0.25) == (1.0, 0.0)
    assert dwell_fractions(trace, 0.35, 0.65) == (0.0, 1.0)
    with pytest.raises(DomainError):
        dwell_fractions(trace, 0.5, 2.0)


def test_offset_charge_trace_shape():
    model = NoiseModel(gamma_parity_per_s=1.0, tls_rate_per_s=0.5)
    trace = simulate_offset_charge(model, 100.0, seed=11, ng_initial=0.2)
    assert len(trace.ng_values) == len(trace.jump_times) + 1
    assert ng_at(trace, 0.0) == pytest.approx(0.2)
    values = trace.visited_values()
    assert np.all((values >= 0.0) & (values < 1.0))
    assert trace.jump_times.size > 10  # ~50 expected jumps


def test_offset_charge_jump_rate():
    model = NoiseModel(gamma_parity_per_s=1.0, tls_rate_per_s=1.0 / 180.0)
    counts = [
        simulate_offset_charge(model, 1800.0, seed=s).jump_times.size
        for s in range(100)
    ]
    # lam = 10 per trace; four standard errors over 100 traces
    assert abs(np.mean(counts) - 10.0) < 4.0 * np.sqrt(10.0 / 100)


def test_noise_model_rejects_negative_rates():
    with pytest.raises(DomainError):
        NoiseModel(gamma_parity_per_s=-1.0)
    with pytest.raises(DomainError):
        NoiseModel(gamma_parity_per_s=1.0, tls_rate_per_s=-0.1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gamma_parity_per_s": math.nan},
        {"gamma_parity_per_s": math.inf},
        {"gamma_parity_per_s": 1.0, "tls_rate_per_s": math.nan},
    ],
)
def test_noise_model_rejects_non_finite_rates(kwargs):
    with pytest.raises(DomainError):
        NoiseModel(**kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_simulators_reject_bad_durations_and_rates(bad):
    with pytest.raises(DomainError):
        simulate_parity(1.0, bad, seed=1)
    with pytest.raises(DomainError):
        simulate_offset_charge(NoiseModel(1.0), bad, seed=1)
    with pytest.raises(DomainError):
        simulate_parity(bad, 1.0, seed=1)


# ------------------------------------------------------------- synthesis


def test_scan_window_covers_both_branches():
    f_min, f_max = scan_window(SENSITIVE, linewidth_mhz=1.0)
    for ng in (0.0, 0.25, 0.5, 0.77):
        f_even, f_odd = parity_frequencies(SENSITIVE.with_ng(ng))
        assert f_min < f_even < f_max
        assert f_min < f_odd < f_max


def test_scan_rows_match_dwell_weighted_lorentzians():
    # one pixel, one parity switch at a known instant, negligible noise:
    # every sample must equal the dwell-weighted two-Lorentzian model
    parity = ParityTrace(switch_times=np.array([0.05]), duration_s=0.2)
    charge = _flat_charge(0.2, ng=0.1)
    config = _scan_config(0.2)
    scan = synthesize_scan(
        SENSITIVE, parity, charge, config,
        linewidth_mhz=1.0, snr=1e9, seed=5,
    )
    assert scan.n_pixels == 1
    f_even, f_odd = parity_frequencies(SENSITIVE.with_ng(0.1))
    np.testing.assert_allclose(scan.branch_freqs_ghz[0], [f_even, f_odd])
    hwhm = 1.0 / 2e3
    freqs = scan.frequencies_ghz
    expected = 0.25 / (1.0 + ((freqs - f_even) / hwhm) ** 2)
    expected += 0.75 / (1.0 + ((freqs - f_odd) / hwhm) ** 2)
    np.testing.assert_allclose(scan.amplitudes[0], expected, atol=1e-6)


def test_scan_is_deterministic():
    parity = simulate_parity(100.0, 2.0, seed=20)
    charge = simulate_offset_charge(
        NoiseModel(gamma_parity_per_s=100.0), 2.0, seed=21
    )
    config = _scan_config(2.0)
    a = synthesize_scan(SENSITIVE, parity, charge, config, seed=30)
    b = synthesize_scan(SENSITIVE, parity, charge, config, seed=30)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = synthesize_scan(SENSITIVE, parity, charge, config, seed=31)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_scan_rejects_uncovered_branches():
    parity = simulate_parity(0.0, 1.0, seed=1)
    charge = _flat_charge(1.0)
    f_even, _ = parity_frequencies(SENSITIVE)
    narrow = ScanConfig(
        f_min_ghz=f_even - 0.002, f_max_ghz=f_even + 0.002, n_freq=21
    )
    with pytest.raises(CoverageError):
        synthesize_scan(SENSITIVE, parity, charge, narrow)


def test_scan_config_rejects_nan():
    with pytest.raises(DomainError):
        ScanConfig(f_min_ghz=4.0, f_max_ghz=4.5, pixel_seconds=math.nan)
    with pytest.raises(DomainError):
        ScanConfig(f_min_ghz=math.nan, f_max_ghz=4.5)


@pytest.mark.parametrize("window", [(4.0, math.inf), (-math.inf, 4.5),
                                    (4.5, 4.0)])
def test_scan_config_rejects_a_non_finite_or_reversed_window(window):
    # an infinite end was accepted, and the grid read [nan, inf, ...]
    with pytest.raises(DomainError, match="^frequency window must be"):
        ScanConfig(*window)


@pytest.mark.parametrize("n_freq", [3.5, 161.0, True, np.int64(2)])
def test_scan_config_rejects_a_non_integer_n_freq(n_freq):
    # 3.5 used to escape np.linspace as a bare TypeError, and True read
    # "must be >= 3, got True"
    with pytest.raises(DomainError, match="^n_freq must be an integer from 3"):
        ScanConfig(f_min_ghz=4.0, f_max_ghz=4.5, n_freq=n_freq)
    assert ScanConfig(4.0, 4.5, n_freq=np.int64(3)).frequencies().size == 3


@pytest.mark.parametrize("field", ["linewidth_mhz", "snr"])
def test_scan_rejects_nan_linewidth_and_snr(field):
    parity = simulate_parity(0.0, 1.0, seed=1)
    with pytest.raises(DomainError):
        synthesize_scan(SENSITIVE, parity, _flat_charge(1.0),
                        _scan_config(1.0), **{field: math.nan})


def test_scan_rejects_mismatched_traces():
    parity = simulate_parity(1.0, 2.0, seed=1)
    charge = _flat_charge(3.0)
    with pytest.raises(DomainError):
        synthesize_scan(SENSITIVE, parity, charge, _scan_config(2.0))


# --------------------------------------------------------- peak detection


def _detect(freqs, rows, linewidth_mhz):
    return _detect_rows(freqs, np.atleast_2d(rows), linewidth_mhz)


def _peak_rows(detection):
    """(count, positions, threshold) of each row of a detection or an
    estimate, positions ascending."""
    positions = detection.positions_ghz
    return [
        (count, (low, high)[:count], threshold)
        for count, low, high, threshold in zip(
            detection.counts.tolist(), positions[:, 0].tolist(),
            positions[:, 1].tolist(), detection.thresholds.tolist(),
        )
    ]


def _row_peaks(freqs, row, linewidth_mhz):
    """(count, positions, threshold) of one row detected on its own."""
    return _peak_rows(_detect(freqs, row, linewidth_mhz))[0]


def test_noise_rows_rarely_trigger_peaks():
    rng = np.random.default_rng(12345)
    freqs = np.linspace(4.3, 4.5, 161)
    rows = rng.normal(0.0, 0.05, size=(10_000, 161))
    hits = np.count_nonzero(_detect(freqs, rows, linewidth_mhz=1.0).counts)
    assert hits / 10_000 < 0.01


def test_single_peak_position_recovered():
    freqs = np.linspace(4.30, 4.50, 161)
    center = 4.4137
    hwhm = 1.0 / 2e3
    rng = np.random.default_rng(7)
    row = 1.0 / (1.0 + ((freqs - center) / hwhm) ** 2)
    row += rng.normal(0.0, 0.05, size=freqs.size)
    count, positions, _ = _row_peaks(freqs, row, linewidth_mhz=1.0)
    assert count == 1
    step = freqs[1] - freqs[0]
    assert abs(positions[0] - center) <= 0.5 * step + 1e-12


def test_two_peaks_resolved():
    freqs = np.linspace(4.30, 4.50, 161)
    hwhm = 1.0 / 2e3
    rng = np.random.default_rng(9)
    row = 0.5 / (1.0 + ((freqs - 4.36) / hwhm) ** 2)
    row += 0.5 / (1.0 + ((freqs - 4.44) / hwhm) ** 2)
    row += rng.normal(0.0, 0.05, size=freqs.size)
    count, positions, _ = _row_peaks(freqs, row, linewidth_mhz=1.0)
    assert count == 2
    assert positions[0] == pytest.approx(4.36, abs=0.002)
    assert positions[1] == pytest.approx(4.44, abs=0.002)


def test_detection_validates_arguments():
    freqs = np.linspace(4.3, 4.5, 11)
    with pytest.raises(DomainError, match="^linewidth must be "):
        _detect(freqs, np.zeros(11), linewidth_mhz=0.0)


# ------------------------------------------------------ lifetime verdicts


def _run_scan(gamma: float, duration: float, seed: int, n_freq: int = 161):
    parity = simulate_parity(gamma, duration, seed=seed)
    charge = simulate_offset_charge(
        NoiseModel(gamma_parity_per_s=gamma), duration, seed=seed + 1
    )
    config = _scan_config(duration, n_freq=n_freq)
    return synthesize_scan(
        SENSITIVE, parity, charge, config,
        linewidth_mhz=1.0, snr=20.0, seed=seed + 2,
    )


def test_fast_switching_gives_upper_bound():
    # parity flips ~200 times per pixel, so both branches appear in
    # every pixel at close to equal weight
    scan = _run_scan(1000.0, duration=4.0, seed=40)
    parity = simulate_parity(1000.0, 4.0, seed=40)
    for i in range(scan.n_pixels):
        even, odd = dwell_fractions(
            parity, i * scan.pixel_seconds, (i + 1) * scan.pixel_seconds
        )
        assert abs(even - 0.5) < 0.10
    estimate = estimate_parity_lifetime(scan)
    assert estimate.kind == "upper_bound"
    assert estimate.seconds == pytest.approx(scan.pixel_seconds)
    assert estimate.two_peak_fraction >= 0.9
    assert "two-branch" in estimate.describe()


def test_frozen_parity_gives_lower_bound():
    scan = _run_scan(0.0, duration=40.0, seed=50)
    estimate = estimate_parity_lifetime(scan)
    assert estimate.kind == "lower_bound"
    assert estimate.seconds == pytest.approx(40.0)
    assert estimate.alternations == 0
    assert "single-branch" in estimate.describe()


def test_slow_switching_estimates_rate():
    # median estimate over a few seeds lands within 2x of 1/gamma
    gamma = 0.01
    estimates = []
    for seed in range(60, 65):
        scan = _run_scan(gamma, duration=400.0, seed=seed, n_freq=61)
        verdict = estimate_parity_lifetime(scan)
        if verdict.kind == "estimate":
            estimates.append(verdict.seconds)
    assert len(estimates) >= 3
    median = float(np.median(estimates))
    assert 0.5 / gamma <= median <= 2.0 / gamma


def test_merged_branches_are_inconclusive():
    # charge-insensitive device: branches sit on top of each other, so a
    # single peak carries no parity information
    f_min, f_max = scan_window(INSENSITIVE, linewidth_mhz=1.0)
    config = ScanConfig(f_min_ghz=f_min, f_max_ghz=f_max, n_freq=61)
    parity = simulate_parity(0.0, 10.0, seed=70)
    charge = _flat_charge(10.0)
    scan = synthesize_scan(
        INSENSITIVE, parity, charge, config,
        linewidth_mhz=1.0, snr=20.0, seed=71,
    )
    estimate = estimate_parity_lifetime(scan)
    assert estimate.kind == "inconclusive"
    assert "inconclusive" in estimate.describe()


def test_estimate_keeps_the_per_row_peaks():
    scan = _run_scan(0.01, duration=20.0, seed=61, n_freq=61)
    estimate = estimate_parity_lifetime(scan)
    rows = [
        _row_peaks(scan.frequencies_ghz, row, scan.linewidth_mhz)
        for row in scan.amplitudes
    ]
    assert _peak_rows(estimate) == rows


# ------------------------------------------- oracle for the array-wise path
#
# Per-pixel synthesis loops and the per-row detector that the array-wise
# code replaced, kept here as the references it must match.  The scan
# matches the per-state loop bit for bit: each pixel sums the dwell of
# every (offset charge, parity) state in time order and adds one
# Lorentzian per state, in the order the states are first visited.  The
# per-segment loop adds one Lorentzian per segment instead; it differs
# only in the last bits of pixels that revisit a state.


def _reference_segments(parity_trace, charge_trace, t0, t1):
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


def _reference_scan(params, parity_trace, charge_trace, config,
                    linewidth_mhz, snr, seed, per_state=True):
    """(amplitudes, branch_freqs) from the per-pixel loop.

    Each segment's weight is its width over the pixel time; ``per_state``
    sums the weights of a state in time order before dividing.
    """
    cache = {}

    def branches(ng):
        key = float(ng)
        if key not in cache:
            cache[key] = (
                transition_frequency(params.with_ng(key)),
                transition_frequency(params.with_ng(key + 0.5)),
            )
        return cache[key]

    n_pixels = int(parity_trace.duration_s / config.pixel_seconds + 1e-9)
    freqs = config.frequencies()
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
        terms = [
            ((ng, parity), (end - start) / config.pixel_seconds)
            for start, end, parity, ng in _reference_segments(
                parity_trace, charge_trace, t0, t1
            )
        ]
        if per_state:
            dwell = {}  # first insertion fixes the order: first visit
            for state, weight in terms:
                dwell[state] = dwell.get(state, 0.0) + weight
            terms = list(dwell.items())
        for (ng, parity), weight in terms:
            center = branches(ng)[parity]
            row += weight / (1.0 + ((freqs - center) / hwhm_ghz) ** 2)
        ng_mid = ng_at(charge_trace, (t0 + t1) / 2.0)
        branch_freqs[i] = branches(ng_mid)
        amplitudes[i] = row + noise_rng.normal(0.0, 1.0 / snr, size=len(freqs))
    return amplitudes, branch_freqs


def _reference_peaks(freqs, row, linewidth_mhz, threshold_k=5.0):
    """The per-row threshold-and-cluster detector: (count, positions,
    threshold) of one row."""
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
        return 0, (), threshold
    lw_ghz = linewidth_mhz / 1e3
    clusters = [[int(candidates[0])]]
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
    return len(kept), tuple(kept), threshold


def _reference_estimate(scan, threshold_k=5.0):
    """(kind, seconds, alternations, two, single) from the per-row loop."""
    lw_ghz = scan.linewidth_mhz / 1e3
    peaks = [
        _reference_peaks(scan.frequencies_ghz, row, scan.linewidth_mhz,
                         threshold_k)
        for row in scan.amplitudes
    ]
    counts = np.array([count for count, _, _ in peaks])
    assigned = []
    for i, (count, positions, _) in enumerate(peaks):
        if count != 1:
            continue
        f_even, f_odd = scan.branch_freqs_ghz[i]
        if abs(f_even - f_odd) < lw_ghz:
            continue
        position = positions[0]
        distances = (abs(position - f_even), abs(position - f_odd))
        branch = int(np.argmin(distances))
        if distances[branch] > 3.0 * lw_ghz:
            continue
        assigned.append(branch)
    alternations = sum(1 for a, b in zip(assigned, assigned[1:]) if a != b)
    two = float(np.mean(counts == 2))
    if two >= 0.9:
        kind, seconds, alternations = "upper_bound", scan.pixel_seconds, 0
    elif alternations > 0:
        kind, seconds = "estimate", scan.duration_s / alternations
    elif len(assigned) >= 0.5 * scan.n_pixels:
        kind, seconds = "lower_bound", scan.duration_s
    else:
        kind, seconds = "inconclusive", math.nan
    return peaks, (kind, seconds, alternations, two,
                   float(np.mean(counts == 1)))


def _assert_matches_reference(params, parity, charge, config,
                              linewidth_mhz=1.0, snr=20.0, seed=3):
    scan = synthesize_scan(params, parity, charge, config,
                           linewidth_mhz=linewidth_mhz, snr=snr, seed=seed)
    amplitudes, branch_freqs = _reference_scan(
        params, parity, charge, config, linewidth_mhz, snr, seed
    )
    assert np.array_equal(scan.amplitudes, amplitudes)
    assert np.array_equal(scan.branch_freqs_ghz, branch_freqs)
    per_segment, _ = _reference_scan(
        params, parity, charge, config, linewidth_mhz, snr, seed,
        per_state=False,
    )
    np.testing.assert_allclose(scan.amplitudes, per_segment, rtol=0,
                               atol=1e-13)
    estimate = estimate_parity_lifetime(scan)
    peaks, verdict = _reference_estimate(scan)
    assert _peak_rows(estimate) == peaks
    kind, seconds, alternations, two, single = verdict
    assert (estimate.kind, estimate.alternations) == (kind, alternations)
    assert (estimate.two_peak_fraction, estimate.single_peak_fraction) == (
        two, single
    )
    assert estimate.seconds == seconds or (
        math.isnan(estimate.seconds) and math.isnan(seconds)
    )
    return scan


def _charge(jump_times, ng_values, duration_s):
    return ChargeTrace(
        jump_times=np.asarray(jump_times, dtype=float),
        ng_values=np.asarray(ng_values, dtype=float),
        duration_s=duration_s,
    )


def test_switch_on_a_pixel_boundary_matches_reference():
    # 0.2 and 0.4 are exactly the starts of pixels 1 and 2
    parity = ParityTrace(switch_times=np.array([0.2, 0.4, 0.5]),
                         duration_s=1.0)
    charge = _charge([0.4, 0.6], [0.1, 0.3, 0.8], 1.0)
    _assert_matches_reference(SENSITIVE, parity, charge, _scan_config(1.0))


def test_simultaneous_switch_and_jump_match_reference():
    parity = ParityTrace(switch_times=np.array([0.05, 0.3, 0.9]),
                         duration_s=1.0, initial_parity=1)
    charge = _charge([0.3, 0.9], [0.0, 0.45, 0.2], 1.0)
    _assert_matches_reference(SENSITIVE, parity, charge, _scan_config(1.0))


def test_hundreds_of_segments_in_one_pixel_match_reference():
    switches = np.linspace(0.2, 0.4, 402)[1:-1]
    parity = ParityTrace(switch_times=switches, duration_s=1.0)
    charge = _charge([0.25, 0.31, 0.37, 0.7], [0.1, 0.2, 0.3, 0.4, 0.5], 1.0)
    _assert_matches_reference(SENSITIVE, parity, charge, _scan_config(1.0))


def test_one_pixel_scan_matches_reference():
    parity = ParityTrace(switch_times=np.array([0.05, 0.12]),
                         duration_s=0.2)
    charge = _charge([0.12], [0.6, 0.15], 0.2)
    scan = _assert_matches_reference(
        SENSITIVE, parity, charge, _scan_config(0.2)
    )
    assert scan.n_pixels == 1


@pytest.mark.parametrize("gamma", [0.0, 0.5, 40.0])
def test_partial_row_block_matches_reference(gamma):
    # one full block of 61-column rows and 3 rows of a second
    n_pixels = _block_rows(61) + 3
    duration = n_pixels * DEFAULT_PIXEL_SECONDS
    parity = simulate_parity(gamma, duration, seed=81)
    charge = simulate_offset_charge(
        NoiseModel(gamma_parity_per_s=gamma, tls_rate_per_s=0.2),
        duration, seed=82,
    )
    scan = _assert_matches_reference(
        SENSITIVE, parity, charge, _scan_config(duration, n_freq=61)
    )
    assert scan.n_pixels == n_pixels


@pytest.mark.parametrize(
    "gamma, duration, n_freq", [(1000.0, 2.0, 161), (0.01, 400.0, 61)]
)
def test_simulated_regimes_match_reference(gamma, duration, n_freq):
    parity = simulate_parity(gamma, duration, seed=90)
    charge = simulate_offset_charge(
        NoiseModel(gamma_parity_per_s=gamma), duration, seed=91
    )
    _assert_matches_reference(
        SENSITIVE, parity, charge, _scan_config(duration, n_freq=n_freq),
        seed=92,
    )


def test_coverage_error_names_first_uncovered_charge():
    f_even, _ = parity_frequencies(SENSITIVE)
    narrow = ScanConfig(
        f_min_ghz=f_even - 0.002, f_max_ghz=f_even + 0.002, n_freq=21
    )
    parity = simulate_parity(0.0, 1.0, seed=1)
    charge = _charge([0.3, 0.6], [0.25, 0.0, 0.5], 1.0)
    with pytest.raises(
        CoverageError,
        match=r"^branch at \d+\.\d{6} GHz \(ng=0\.2500\) outside grid "
        r"\[\d+\.\d{6}, \d+\.\d{6}\] GHz$",
    ):
        synthesize_scan(SENSITIVE, parity, charge, narrow)


def _cluster_rows():
    """Rows with 0, 1, 2 and more clusters, plateaus and tied maxima."""
    freqs = np.linspace(4.30, 4.50, 161)
    rng = np.random.default_rng(17)
    base = rng.normal(0.0, 0.01, size=(8, freqs.size))
    rows = base.copy()
    rows[1, 40] = 1.0                                 # one peak
    rows[2, [30, 120]] = [0.8, 0.6]                   # two peaks
    rows[3, [20, 60, 100, 140]] = [0.5, 0.9, 0.7, 0.6]  # four peaks
    rows[4, [50, 52]] = 1.0                           # tied within a cluster
    rows[4, 51] = 0.5
    rows[5, [20, 60, 100]] = 0.7                      # tied across clusters
    rows[6, [80, 81, 82]] = 0.9                       # plateau
    rows[7, [10, 12, 14, 90]] = [0.6, 0.9, 0.6, 0.4]  # one wide cluster
    return freqs, rows


def _comparable(peaks):
    """A row's peaks with a NaN threshold that compares equal."""
    count, positions, threshold = peaks
    return count, positions, "nan" if math.isnan(threshold) else threshold


@pytest.mark.parametrize("threshold_k", [_THRESHOLD_K, 3.0])
@pytest.mark.parametrize("width", [161, 160])
@pytest.mark.parametrize("linewidth_mhz", [1.0, 5.0])
def test_batched_detection_matches_reference(
    monkeypatch, linewidth_mhz, width, threshold_k
):
    # odd and even row lengths take different median paths; a NaN sample
    # makes its row's median NaN, as np.median does; the detector reads
    # the threshold constant at each call
    monkeypatch.setattr("qpgap.parity._THRESHOLD_K", threshold_k)
    freqs, rows = _cluster_rows()
    rng = np.random.default_rng(23)
    noisy = rng.normal(0.0, 0.05, size=(600, freqs.size))
    noisy[::3, 70] += 1.0
    noisy[::5, 75] += 0.8
    noisy[7, 33] = np.nan
    rows = np.vstack([rows, noisy])[:, :width]
    freqs = freqs[:width]
    expected = [_reference_peaks(freqs, row, linewidth_mhz, threshold_k)
                for row in rows]
    scan = SpectroscopyScan(
        frequencies_ghz=freqs,
        pixel_starts_s=np.arange(len(rows)) * 0.2,
        amplitudes=rows,
        branch_freqs_ghz=np.tile([4.35, 4.45], (len(rows), 1)),
        linewidth_mhz=linewidth_mhz,
        snr=20.0,
        pixel_seconds=0.2,
        seed=0,
    )
    expected = [_comparable(peaks) for peaks in expected]
    found = _peak_rows(estimate_parity_lifetime(scan))
    assert [_comparable(peaks) for peaks in found] == expected
    for row, peaks in zip(rows, expected):
        assert _comparable(_row_peaks(freqs, row, linewidth_mhz)) == peaks
    assert {peaks[0] for peaks in expected} == {0, 1, 2}


def test_cluster_rows_pick_first_maximum_and_top_two():
    freqs, rows = _cluster_rows()
    found = [_row_peaks(freqs, row, linewidth_mhz=5.0) for row in rows]
    positions = [peaks[1] for peaks in found]
    assert found[0][0] == 0
    assert positions[1] == (freqs[40],)
    assert positions[2] == (freqs[30], freqs[120])
    assert positions[3] == (freqs[60], freqs[100])
    assert positions[4] == (freqs[50],)
    # equal amplitudes: the higher frequencies win
    assert positions[5] == (freqs[60], freqs[100])
    assert positions[6] == (freqs[80],)
    assert positions[7] == (freqs[12], freqs[90])


def test_jumps_at_pixel_midpoints_match_reference():
    # branch_freqs_ghz is taken at (t0 + t1) / 2, which for some pixels
    # rounds differently from t0 + pixel_seconds / 2; a jump exactly there
    # counts as already happened
    n_pixels = 40
    duration = n_pixels * DEFAULT_PIXEL_SECONDS
    starts = np.arange(n_pixels) * DEFAULT_PIXEL_SECONDS
    midpoints = (starts + (starts + DEFAULT_PIXEL_SECONDS)) / 2.0
    assert np.any(midpoints != starts + DEFAULT_PIXEL_SECONDS / 2.0)
    charge = _charge(midpoints, np.linspace(0.0, 0.9, n_pixels + 1), duration)
    parity = simulate_parity(2.0, duration, seed=5)
    _assert_matches_reference(
        SENSITIVE, parity, charge, _scan_config(duration, n_freq=61)
    )


# Grid and linewidth with exact binary spacing, so that ties are exact.
_DYADIC_FREQS = 4.0 + np.arange(161) / 1024
_DYADIC_LW_MHZ = 1.953125  # 2 / 1024 GHz


def _dyadic_scan(rows, branch_freqs):
    rows = np.asarray(rows, dtype=float)
    return SpectroscopyScan(
        frequencies_ghz=_DYADIC_FREQS,
        pixel_starts_s=np.arange(len(rows)) * 0.2,
        amplitudes=rows,
        branch_freqs_ghz=np.asarray(branch_freqs, dtype=float),
        linewidth_mhz=_DYADIC_LW_MHZ,
        snr=20.0,
        pixel_seconds=0.2,
        seed=0,
    )


def test_scan_record_rejects_mismatched_shapes():
    # a scan with no frequency columns used to reach estimate_parity_lifetime
    # and fail there with an IndexError
    rows = np.zeros((3, len(_DYADIC_FREQS)))
    branches = np.tile([4.05, 4.1], (3, 1))
    bad = [
        dict(amplitudes=np.zeros((3, 0)), frequencies_ghz=_DYADIC_FREQS[:0]),
        dict(amplitudes=rows[0]),
        dict(frequencies_ghz=_DYADIC_FREQS[1:]),
        dict(pixel_starts_s=np.arange(2) * 0.2),
        dict(branch_freqs_ghz=branches[:2]),
        dict(branch_freqs_ghz=np.float64(4.05)),
    ]
    for fields in bad:
        with pytest.raises(DomainError):
            SpectroscopyScan(**{
                "frequencies_ghz": _DYADIC_FREQS,
                "pixel_starts_s": np.arange(3) * 0.2, "amplitudes": rows,
                "branch_freqs_ghz": branches, "linewidth_mhz": _DYADIC_LW_MHZ,
                "snr": 20.0, "pixel_seconds": 0.2, "seed": 0, **fields,
            })
    assert _dyadic_scan(rows, branches).n_pixels == 3


def _scan_fields(**fields):
    # 40 rows of one peak each, on the even branch: "lower_bound", 40 x 1 s
    rows = np.zeros((40, len(_DYADIC_FREQS)))
    rows[:, 80] = 1.0
    return {
        "frequencies_ghz": _DYADIC_FREQS, "pixel_starts_s": np.arange(40.0),
        "amplitudes": rows,
        "branch_freqs_ghz": np.tile([_DYADIC_FREQS[80], 4.1], (40, 1)),
        "linewidth_mhz": _DYADIC_LW_MHZ, "snr": 20.0, "pixel_seconds": 1.0,
        "seed": 0, **fields,
    }


def test_scan_fields_grade_a_lower_bound():
    estimate = estimate_parity_lifetime(SpectroscopyScan(**_scan_fields()))
    assert (estimate.kind, estimate.seconds) == ("lower_bound", 40.0)


@pytest.mark.parametrize("bad", ["nan", "inf", "descending", "repeated"])
def test_scan_record_rejects_unordered_or_non_finite_frequencies(bad):
    # the detector joins maxima by their frequency gap: a NaN frequency
    # used to grade as a clean "lower_bound 40 s", and a reversed grid
    # joined every maximum of a row into one cluster
    freqs = _DYADIC_FREQS.copy()
    if bad == "descending":
        freqs = freqs[::-1]
    else:
        freqs[7] = {"nan": np.nan, "inf": np.inf, "repeated": freqs[6]}[bad]
    with pytest.raises(
        DomainError, match="^frequencies_ghz must be finite and strictly"
    ):
        SpectroscopyScan(**_scan_fields(frequencies_ghz=freqs))


@pytest.mark.parametrize("shape", [(40,), (40, 3), (40, 1)])
def test_scan_record_rejects_a_branch_table_not_of_two_columns(shape):
    # (n,) and (n, 3) used to escape the verdict as a bare ValueError
    with pytest.raises(
        DomainError, match=r"^branch_freqs_ghz needs shape \(n_pixels, 2\)"
    ):
        SpectroscopyScan(**_scan_fields(branch_freqs_ghz=np.full(shape, 4.05)))


@pytest.mark.parametrize("seconds", [-1.0, 0.0, math.nan, math.inf])
def test_scan_record_rejects_a_bad_pixel_time(seconds):
    # -1 used to grade "lower_bound -40 s", and NaN a lifetime of nan
    with pytest.raises(DomainError, match="^pixel_seconds must be positive"):
        SpectroscopyScan(**_scan_fields(pixel_seconds=seconds))


def test_scan_record_rejects_zero_rows():
    # a scan with no pixel rows used to grade as "parity lifetime >= 0 s",
    # with NaN peak fractions and two RuntimeWarnings
    with pytest.raises(DomainError, match="no pixel rows"):
        _dyadic_scan(np.zeros((0, len(_DYADIC_FREQS))), np.zeros((0, 2)))


def test_trace_records_reject_unsorted_times_and_bad_shapes():
    # a charge trace one value short used to reach synthesize_scan and fail
    # there with an IndexError; unsorted switch times were accepted
    with pytest.raises(DomainError, match="ng_values"):
        ChargeTrace(jump_times=[1.0], ng_values=[0.1], duration_s=2)
    with pytest.raises(DomainError, match="sorted"):
        ParityTrace(switch_times=[0.5, 0.2], duration_s=1.0)
    bad_parity = [
        dict(switch_times=np.array([[0.2, 0.5]])),
        dict(switch_times=np.array([0.2, np.nan])),
        dict(initial_parity=2),
        # non-finite durations are rows of test_magnitudes.py
        dict(duration_s=0.0),
    ]
    for fields in bad_parity:
        with pytest.raises(DomainError):
            ParityTrace(**{"switch_times": np.array([0.2, 0.5]),
                           "duration_s": 1.0, **fields})
    bad_charge = [
        dict(jump_times=np.array([0.6, 0.4])),
        dict(jump_times=np.array([[0.4, 0.6]])),
        dict(ng_values=np.array([0.1, 0.2, 0.3, 0.4])),
        dict(ng_values=np.array([[0.1, 0.2, 0.3]])),
        dict(duration_s=0.0),
    ]
    for fields in bad_charge:
        with pytest.raises(DomainError):
            ChargeTrace(**{"jump_times": np.array([0.4, 0.6]),
                           "ng_values": np.array([0.1, 0.2, 0.3]),
                           "duration_s": 1.0, **fields})


def test_coincident_event_times_are_accepted():
    # at the largest rates t + wait can round to t; synthesis drops the
    # zero-width segment, so equal neighbours are not an error
    parity = ParityTrace(switch_times=np.array([0.05, 0.3, 0.3, 0.9]),
                         duration_s=1.0)
    charge = _charge([0.3, 0.3], [0.0, 0.45, 0.2], 1.0)
    _assert_matches_reference(SENSITIVE, parity, charge, _scan_config(1.0))


def test_pixels_visiting_each_state_once_keep_the_per_segment_bits():
    # no pixel comes back to a state it has left, so summing per state
    # adds the same terms in the same order as summing per segment
    n_pixels = 30
    duration = n_pixels * DEFAULT_PIXEL_SECONDS
    parity = ParityTrace(switch_times=np.array([0.05, 0.5, 1.23, 3.31]),
                         duration_s=duration, initial_parity=1)
    charge = _charge([0.1, 0.52, 1.3, 4.0], [0.1, 0.35, 0.6, 0.2, 0.9],
                     duration)
    config = _scan_config(duration, n_freq=61)
    for i in range(n_pixels):
        t0 = i * DEFAULT_PIXEL_SECONDS
        states = [
            (ng, p) for _, _, p, ng in _reference_segments(
                parity, charge, t0, t0 + DEFAULT_PIXEL_SECONDS
            )
        ]
        assert len(set(states)) == len(states)
    scan = _assert_matches_reference(SENSITIVE, parity, charge, config)
    per_segment, _ = _reference_scan(
        SENSITIVE, parity, charge, config, 1.0, 20.0, 3, per_state=False
    )
    assert np.array_equal(scan.amplitudes, per_segment)


def test_revisited_states_sum_their_dwell_first():
    # pixel 0 goes even, odd, even: one even term of dwell 0.25 + 0.5,
    # added before the odd one
    parity = ParityTrace(switch_times=np.array([0.05, 0.1]), duration_s=0.2)
    charge = _flat_charge(0.2, ng=0.1)
    config = _scan_config(0.2)
    scan = synthesize_scan(SENSITIVE, parity, charge, config,
                           linewidth_mhz=1.0, snr=1e300, seed=5)
    f_even, f_odd = parity_frequencies(SENSITIVE.with_ng(0.1))
    freqs = scan.frequencies_ghz
    hwhm = 1.0 / 2e3
    weights = np.diff([0.0, 0.05, 0.1, 0.2]) / 0.2
    expected = (weights[0] + weights[2]) / (
        1.0 + ((freqs - f_even) / hwhm) ** 2
    ) + weights[1] / (1.0 + ((freqs - f_odd) / hwhm) ** 2)
    noise = np.random.default_rng(
        np.random.SeedSequence(5).spawn(1)[0]
    ).normal(0.0, 1e-300, size=freqs.size)
    assert np.array_equal(scan.amplitudes[0], expected + noise)


def _edge_rows():
    """Rows whose maxima tie at the first column, the last column and
    between equal interior neighbours; no row is noisy, so MAD is zero
    and every positive sample is above threshold."""
    rows = np.zeros((8, 161))
    rows[0, [0, 1]] = 1.0                  # tie at column 0: no peak
    rows[1, [0, 1]] = [1.0, 0.5]           # column 0 tops its neighbour
    rows[2, [-2, -1]] = 1.0                # tie at column -1: peak at -2
    rows[3, [-2, -1]] = [0.5, 1.0]         # column -1 tops its neighbour
    rows[4, [40, 42]] = 0.5                # equal neighbours of 41
    rows[4, 41] = 0.9
    rows[5, [60, 61, 62]] = [0.7, 0.7, 0.3]  # equal left pair: 60 peaks
    rows[6, [90, 91, 92]] = [0.3, 0.7, 0.7]  # equal right pair: 91 peaks
    rows[7, [0, -1]] = 0.6                 # both ends, rows 6 and 8 beside
    return rows


def test_edge_and_tied_maxima_match_reference():
    rows = _edge_rows()
    expected = [
        _reference_peaks(_DYADIC_FREQS, row, _DYADIC_LW_MHZ) for row in rows
    ]
    assert [positions for _, positions, _ in expected] == [
        (),
        (_DYADIC_FREQS[0],),
        (_DYADIC_FREQS[-2],),
        (_DYADIC_FREQS[-1],),
        (_DYADIC_FREQS[41],),
        (_DYADIC_FREQS[60],),
        (_DYADIC_FREQS[91],),
        (_DYADIC_FREQS[0], _DYADIC_FREQS[-1]),
    ]
    found = [_row_peaks(_DYADIC_FREQS, row, _DYADIC_LW_MHZ) for row in rows]
    assert found == expected
    # the rows of one block: a row's first and last samples sit next to
    # its neighbours' last and first ones in memory
    scan = _dyadic_scan(rows, np.tile([4.01, 4.1], (len(rows), 1)))
    assert _peak_rows(estimate_parity_lifetime(scan)) == expected


def test_gap_of_exactly_one_linewidth_joins_the_cluster():
    row = np.zeros(161)
    row[[40, 41, 42, 100]] = [0.9, 0.2, 1.0, 0.8]
    peaks = _row_peaks(_DYADIC_FREQS, row, _DYADIC_LW_MHZ)
    assert peaks[1] == (_DYADIC_FREQS[42], _DYADIC_FREQS[100])
    assert peaks == _reference_peaks(_DYADIC_FREQS, row, _DYADIC_LW_MHZ)


def _pass_rows(width):
    """2 * _block_rows(width) + 37 rows whose local maxima cross the
    per-scan cluster pass from three blocks: integer spikes on a zero
    floor (heavy ties and a MAD of zero), ±0, 1 and +inf spikes on a
    floor of -1 (both zeros above threshold), noisy rows, and maxima in
    the last column of row r and the first of row r + 1, inside a block
    and across each block boundary."""
    rng = np.random.default_rng(29)
    size = _block_rows(width)
    n_rows = 2 * size + 37
    spikes = rng.random((n_rows, width)) < 0.3
    rows = np.where(spikes, rng.integers(1, 4, (n_rows, width)), 0.0)
    rows[1::3] = np.where(
        spikes[1::3],
        rng.choice([0.0, -0.0, 1.0, np.inf], (len(rows[1::3]), width)),
        -1.0,
    )
    rows[2::3] = rng.normal(0.0, 0.05, (len(rows[2::3]), width))
    noisy = spikes[2::3]
    rows[2::3] += np.where(noisy, rng.integers(0, 2, noisy.shape), 0)
    ends = [5, size - 1, 2 * size - 1, n_rows - 2]
    rows[ends] = rows[[r + 1 for r in ends]] = 0.0
    rows[ends, -1] = 5.0
    rows[[r + 1 for r in ends], 0] = 5.0
    return rows, ends


@pytest.mark.parametrize("width", [3, 4, 61, 161, 162])
@pytest.mark.parametrize("linewidth_mhz", [0.5, 1.0, 30.0])
def test_per_scan_pass_matches_reference(monkeypatch, linewidth_mhz, width):
    # blocks of at most 256 rows, so every width crosses two block
    # boundaries in at most 549 rows; 161 columns and wider keep the rule
    monkeypatch.setattr("qpgap.parity._BLOCK_SAMPLES",
                        min(256 * width, _BLOCK_SAMPLES))
    freqs = 4.0 + np.arange(width) / 1024
    rows, ends = _pass_rows(width)
    with np.errstate(invalid="ignore"):  # inf - inf in the deviations
        expected = [
            _comparable(_reference_peaks(freqs, row, linewidth_mhz))
            for row in rows
        ]
        found = _peak_rows(_detect(freqs, rows, linewidth_mhz))
    assert [_comparable(peaks) for peaks in found] == expected
    # two clusters need a gap of more than a linewidth, and a row of 3 or
    # 4 samples has only its largest above its threshold
    paired = width > 4 and freqs[-1] - freqs[0] > linewidth_mhz / 1e3
    assert {peaks[0] for peaks in expected} >= ({1, 2} if paired else {1})
    # a maximum in row r's last column and one in row r + 1's first are
    # within a linewidth (at 30 MHz), and still peaks of their own rows
    for r in ends:
        assert found[r][:2] == (1, (freqs[-1],))
        assert found[r + 1][:2] == (1, (freqs[0],))


@pytest.mark.parametrize("rows_per_block", [1, 7, _block_rows(161)])
def test_detection_arrays_do_not_depend_on_the_block_size(rows_per_block):
    freqs = 4.0 + np.arange(161) / 1024
    rows, _ = _pass_rows(len(freqs))
    with np.errstate(invalid="ignore"):  # inf - inf in the deviations
        # _detect_rows grades blocks of _block_rows(161) rows and runs no
        # verdict
        whole = _detect_rows(freqs, rows, 1.0)
        detection = _RowDetection(freqs, len(rows), 1.0)
        for first in range(0, len(rows), rows_per_block):
            detection.grade(first, rows[first:first + rows_per_block])
    assert np.count_nonzero(whole.counts == 2)
    detection.verdict(np.tile([4.05, 4.1], (len(rows), 1)), 0.2)
    for name in ("counts", "positions_ghz", "thresholds"):
        assert getattr(detection, name).tobytes() == (
            getattr(whole, name).tobytes()
        )


def test_equidistant_peak_is_attributed_to_even_branch():
    # rows alternate between a peak on the odd branch, with the branches
    # exactly one linewidth apart (still resolved), and a peak exactly
    # midway between the branches, which counts as even, at exactly three
    # linewidths from each (still attributable)
    position = _DYADIC_FREQS[80]
    rows = np.zeros((10, 161))
    rows[:, 80] = 1.0
    odd_row = (position - 2 / 1024, position)
    tie_row = (position - 6 / 1024, position + 6 / 1024)
    scan = _dyadic_scan(rows, [odd_row, tie_row] * 5)
    estimate = estimate_parity_lifetime(scan)
    assert (estimate.kind, estimate.alternations) == ("estimate", 9)
    _, verdict = _reference_estimate(scan)
    assert verdict[:3] == (estimate.kind, estimate.seconds, 9)


def test_row_wise_and_slot_loop_blocks_match_reference():
    # 300 switches inside pixel 0 of the first block of 61-column rows
    # (one pixel revisiting two states 150 times each, next to single-state
    # pixels); the second block of 44 rows has a few switches, so some of
    # its rows add a second term and the others only their first
    size = _block_rows(61)
    n_pixels = size + 44
    duration = n_pixels * DEFAULT_PIXEL_SECONDS
    dense = np.linspace(0.0, DEFAULT_PIXEL_SECONDS, 302)[1:-1]
    sparse = size * DEFAULT_PIXEL_SECONDS + np.array([0.3, 1.1, 4.7, 6.05])
    parity = ParityTrace(switch_times=np.concatenate([dense, sparse]),
                         duration_s=duration)
    charge = _charge([0.1, 30.0, 55.0], [0.1, 0.35, 0.6, 0.2], duration)
    scan = _assert_matches_reference(
        SENSITIVE, parity, charge, _scan_config(duration, n_freq=61)
    )
    assert scan.n_pixels == n_pixels


@pytest.mark.parametrize(
    "parity", [1.0, np.float64(0.0), True], ids=["float", "float64", "bool"]
)
def test_trace_rejects_an_initial_parity_that_is_not_an_int(parity):
    # a float parity escaped synthesis as a bare TypeError from
    # bitwise_and, and a bool read as 0 or 1
    with pytest.raises(DomainError,
                       match="^initial parity must be an integer from 0 to 1"):
        ParityTrace(switch_times=[0.2, 0.5], duration_s=1.0,
                    initial_parity=parity)


@pytest.mark.parametrize("time", [-5.0, 1.0], ids=["negative", "duration"])
@pytest.mark.parametrize("record", ["parity", "charge"])
def test_trace_rejects_an_event_time_outside_the_duration(record, time):
    # a switch at -5 s flipped every pixel of a scan to the odd branch
    times = np.array([0.2, time]) if time > 0.0 else np.array([time, 0.2])
    if record == "parity":
        name = "switch_times"
        build = lambda: ParityTrace(switch_times=times, duration_s=1.0)
    else:
        name = "jump_times"
        build = lambda: ChargeTrace(jump_times=times,
                                    ng_values=[0.1, 0.3, 0.6], duration_s=1.0)
    with pytest.raises(DomainError, match=rf"^{name} must lie in \[0, "):
        build()


def test_initial_parity_error_names_the_value():
    with pytest.raises(DomainError, match="got 'up'"):
        ParityTrace(switch_times=[], duration_s=1.0, initial_parity="up")


# ------------------------------------------------------------ work bounds


def test_event_budget_refuses_one_event_past_the_limit():
    # refused before the first draw: nothing near the limit is simulated
    duration = 1000.0
    rate = (MAX_EXPECTED_EVENTS + 1) / duration
    with pytest.raises(DomainError, match="events"):
        simulate_parity(rate, duration, seed=1)
    model = NoiseModel(0.0, tls_rate_per_s=rate)
    with pytest.raises(DomainError, match="events"):
        simulate_offset_charge(model, duration, seed=1)
    with pytest.raises(DomainError, match="events"):
        simulate_parity(1e300, 1e300, seed=1)


def test_scan_budget_refuses_one_pixel_past_the_limit():
    n_freq = 100
    with pytest.raises(DomainError, match="n_freq"):
        _scan_config(1.0, n_freq=MAX_SCAN_SAMPLES + 1)
    f_min, f_max = scan_window(SENSITIVE, linewidth_mhz=1.0)
    # one pixel row past the limit, and a pixel count that overflows
    for duration, pixel_seconds in (
        (1.0, 1.0 / (MAX_SCAN_SAMPLES // n_freq + 1)),
        (1e10, 1e-300),
    ):
        config = ScanConfig(
            f_min_ghz=f_min, f_max_ghz=f_max, n_freq=n_freq,
            pixel_seconds=pixel_seconds,
        )
        with pytest.raises(DomainError, match="samples"):
            synthesize_scan(
                SENSITIVE, simulate_parity(0.0, duration, seed=1),
                _flat_charge(duration), config,
            )


def test_protected_scan_allocates_no_scan_sized_temporary():
    # a 1000 s protected scan, 5000 x 161: synthesis holds the scan plus
    # per-block temporaries, and grading per-block temporaries alone
    duration = 1000.0
    parity = simulate_parity(0.001, duration, seed=17)
    charge = simulate_offset_charge(
        NoiseModel(gamma_parity_per_s=0.001), duration, seed=18
    )
    config = _scan_config(duration)
    tracemalloc.start()
    try:
        scan = synthesize_scan(
            SENSITIVE, parity, charge, config,
            linewidth_mhz=1.0, snr=20.0, seed=19,
        )
        _, synthesis_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        estimate_parity_lifetime(scan)
        _, grading_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scan.amplitudes.shape == (5000, 161)
    block = _block_rows(161) * scan.amplitudes[0].nbytes
    assert synthesis_peak <= scan.amplitudes.nbytes + 4 * block
    assert grading_peak - base <= 4 * block


def test_wide_scan_allocates_blocks_of_samples_not_rows():
    # 200 pixels x 20,000 frequencies, a 32 MB scan of two rows a block.
    # Synthesis holds the scan plus a few blocks: the noise buffer, the
    # temporaries of a block's later terms, and the Lorentzian table of
    # the scan's two states on the frequency grid (one block between
    # them).  Grading holds a few blocks plus the per-row arrays and the
    # per-maximum arrays of the cluster pass.
    duration = 200 * DEFAULT_PIXEL_SECONDS
    parity = simulate_parity(0.5, duration, seed=41)
    charge = simulate_offset_charge(
        NoiseModel(gamma_parity_per_s=0.5), duration, seed=42
    )
    config = _scan_config(duration, n_freq=20_000)
    tracemalloc.start()
    try:
        scan = synthesize_scan(
            SENSITIVE, parity, charge, config,
            linewidth_mhz=1.0, snr=20.0, seed=43,
        )
        _, synthesis_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        estimate = estimate_parity_lifetime(scan)
        _, grading_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    amps = scan.amplitudes
    assert amps.shape == (200, 20_000)
    assert parity.switch_count and not len(charge.jump_times)
    block = _block_rows(20_000) * amps[0].nbytes
    assert synthesis_peak - amps.nbytes <= 6 * block
    # the interior local maxima above threshold, which the cluster pass
    # reads: a few hundred a row along the noisy top of each peak
    mid = amps[:, 1:-1]
    maxima = np.count_nonzero(
        (mid > amps[:, :-2]) & (mid >= amps[:, 2:])
        & (mid > estimate.thresholds[:, None])
    )
    assert maxima > 100 * len(amps)
    assert grading_peak - base <= 4 * block + 96 * maxima + 64 * len(amps)
