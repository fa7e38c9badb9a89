import numpy as np
import pytest

from qpgap.errors import CoverageError, DomainError
from qpgap.parity import (
    ChargeTrace,
    NoiseModel,
    ParityTrace,
    ScanConfig,
    detect_peaks,
    estimate_parity_lifetime,
    scan_window,
    simulate_offset_charge,
    simulate_parity,
    synthesize_scan,
)
from qpgap.transmon import TransmonParams, parity_frequencies

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
    assert trace.parity_at(50.0) == 0


def test_initial_parity_is_honored():
    trace = simulate_parity(0.0, 10.0, seed=1, initial_parity="odd")
    assert trace.parity_at(5.0) == 1
    with pytest.raises(DomainError):
        simulate_parity(1.0, 10.0, seed=1, initial_parity="up")


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


def test_parity_at_follows_switches():
    trace = ParityTrace(
        switch_times=np.array([1.0, 3.0]), duration_s=5.0
    )
    assert trace.parity_at(0.5) == 0
    assert trace.parity_at(2.0) == 1
    assert trace.parity_at(4.0) == 0


def test_dwell_fractions_are_exact():
    trace = ParityTrace(
        switch_times=np.array([0.3, 0.7]), duration_s=1.0
    )
    even, odd = trace.dwell_fractions(0.0, 1.0)
    assert even == pytest.approx(0.6, abs=1e-15)
    assert odd == pytest.approx(0.4, abs=1e-15)
    assert trace.dwell_fractions(0.0, 0.25) == (1.0, 0.0)
    assert trace.dwell_fractions(0.35, 0.65) == (0.0, 1.0)
    with pytest.raises(DomainError):
        trace.dwell_fractions(0.5, 2.0)


def test_offset_charge_trace_shape():
    model = NoiseModel(gamma_parity_per_s=1.0, tls_rate_per_s=0.5)
    trace = simulate_offset_charge(model, 100.0, seed=11, ng_initial=0.2)
    assert len(trace.ng_values) == len(trace.jump_times) + 1
    assert trace.ng_at(0.0) == pytest.approx(0.2)
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


def test_scan_rejects_mismatched_traces():
    parity = simulate_parity(1.0, 2.0, seed=1)
    charge = _flat_charge(3.0)
    with pytest.raises(DomainError):
        synthesize_scan(SENSITIVE, parity, charge, _scan_config(2.0))


# --------------------------------------------------------- peak detection


def test_noise_rows_rarely_trigger_peaks():
    rng = np.random.default_rng(12345)
    freqs = np.linspace(4.3, 4.5, 161)
    rows = rng.normal(0.0, 0.05, size=(10_000, 161))
    hits = sum(
        detect_peaks(freqs, row, linewidth_mhz=1.0).count > 0
        for row in rows
    )
    assert hits / 10_000 < 0.01


def test_single_peak_position_recovered():
    freqs = np.linspace(4.30, 4.50, 161)
    center = 4.4137
    hwhm = 1.0 / 2e3
    rng = np.random.default_rng(7)
    row = 1.0 / (1.0 + ((freqs - center) / hwhm) ** 2)
    row += rng.normal(0.0, 0.05, size=freqs.size)
    peaks = detect_peaks(freqs, row, linewidth_mhz=1.0)
    assert peaks.count == 1
    step = freqs[1] - freqs[0]
    assert abs(peaks.positions_ghz[0] - center) <= 0.5 * step + 1e-12


def test_two_peaks_resolved():
    freqs = np.linspace(4.30, 4.50, 161)
    hwhm = 1.0 / 2e3
    rng = np.random.default_rng(9)
    row = 0.5 / (1.0 + ((freqs - 4.36) / hwhm) ** 2)
    row += 0.5 / (1.0 + ((freqs - 4.44) / hwhm) ** 2)
    row += rng.normal(0.0, 0.05, size=freqs.size)
    peaks = detect_peaks(freqs, row, linewidth_mhz=1.0)
    assert peaks.count == 2
    assert peaks.positions_ghz[0] == pytest.approx(4.36, abs=0.002)
    assert peaks.positions_ghz[1] == pytest.approx(4.44, abs=0.002)


def test_detect_peaks_validates_arguments():
    freqs = np.linspace(4.3, 4.5, 11)
    with pytest.raises(DomainError):
        detect_peaks(freqs, np.zeros(10), linewidth_mhz=1.0)
    with pytest.raises(DomainError):
        detect_peaks(freqs, np.zeros(11), linewidth_mhz=1.0, threshold_k=0.0)


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
        even, odd = parity.dwell_fractions(
            i * scan.pixel_seconds, (i + 1) * scan.pixel_seconds
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
        detect_peaks(scan.frequencies_ghz, row, scan.linewidth_mhz)
        for row in scan.amplitudes
    ]
    assert list(estimate.peaks) == rows
