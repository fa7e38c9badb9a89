"""parity_scan: one in-process parity scan per operation.

An operation simulates the parity and offset-charge traces, takes the
scan window, synthesizes the scan and grades it.  Operations cycle over
the three regimes of acceptance criterion 8; every operation has its own
scan seed drawn from the benchmark seed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from qpgap.parity import (
    NoiseModel,
    ScanConfig,
    estimate_parity_lifetime,
    scan_window,
    simulate_offset_charge,
    simulate_parity,
    synthesize_scan,
)
from qpgap.transmon import TransmonParams

import stats

NAME = "parity_scan"
LINEWIDTH_MHZ = 1.0
SNR = 20.0
PIXEL_SECONDS = 0.2  # ScanConfig default

# regime -> (EJ, EC, gamma per s, duration s, n_freq)
REGIMES = {
    "fast": (7.417, 0.403, 1000.0, 20.0, 161),
    "moderate": (5.92, 0.400, 0.01, 400.0, 61),
    "protected": (5.92, 0.400, 0.001, 1000.0, 161),
}
CYCLE = tuple(REGIMES)
OPS_PER_CYCLE = len(CYCLE)
WARMUP_REGIME = "fast"


class Workload:
    name = NAME

    def __init__(self, seed: int, root: Path):
        # every workload takes (seed, root); scans read no files
        self.seed = seed
        self.warmup = (WARMUP_REGIME, self._scan_seed(-1))

    def _scan_seed(self, index: int) -> int:
        rng = np.random.default_rng([self.seed, 8, index + 1])
        return int(rng.integers(0, 2**31 - 3))

    def item(self, index: int):
        """Input of operation ``index``: its regime and scan seed."""
        return CYCLE[index % len(CYCLE)], self._scan_seed(index)

    def run(self, item, tr):
        regime, seed = item
        ej, ec, gamma, duration, n_freq = REGIMES[regime]
        params = TransmonParams(EJ=ej, EC=ec)
        with tr.span("parity.simulate"):
            parity = simulate_parity(gamma, duration, seed=seed)
            charge = simulate_offset_charge(
                NoiseModel(gamma_parity_per_s=gamma), duration, seed=seed + 1
            )
        with tr.span("transmon.scan_window"):
            f_min, f_max = scan_window(params, LINEWIDTH_MHZ)
        config = ScanConfig(f_min_ghz=f_min, f_max_ghz=f_max, n_freq=n_freq)
        with tr.span(f"parity.synthesize.{regime}"):
            scan = synthesize_scan(
                params, parity, charge, config,
                linewidth_mhz=LINEWIDTH_MHZ, snr=SNR, seed=seed + 2,
            )
        with tr.span(f"parity.estimate.{regime}"):
            estimate = estimate_parity_lifetime(scan)
        return {"parity": parity, "charge": charge, "scan": scan,
                "estimate": estimate}

    def check(self, item, out):
        """Summary of one operation and the problems found in it."""
        regime, _ = item
        _, _, gamma, duration, n_freq = REGIMES[regime]
        scan, estimate = out["scan"], out["estimate"]
        switches = out["parity"].switch_count
        problems = []
        n_pixels = int(duration / PIXEL_SECONDS + 1e-9)
        if scan.amplitudes.shape != (n_pixels, n_freq):
            problems.append(f"scan shape {scan.amplitudes.shape}")
        if not (np.isfinite(scan.amplitudes).all()
                and np.isfinite(scan.branch_freqs_ghz).all()):
            problems.append("non-finite scan value")
        if estimate.kind not in ("upper_bound", "lower_bound", "estimate",
                                 "inconclusive"):
            problems.append(f"unknown verdict {estimate.kind!r}")
        elif estimate.kind != "inconclusive" and not (
            math.isfinite(estimate.seconds) and estimate.seconds > 0
        ):
            problems.append(f"verdict {estimate.kind} with {estimate.seconds} s")
        summary = {
            "regime": regime,
            "kind": estimate.kind,
            "seconds": estimate.seconds,
            "expected": _expected_verdict(regime, switches, duration, estimate),
            "pixels": scan.amplitudes.shape[0],
            "samples": scan.amplitudes.size,
            "switches": switches,
            "jumps": len(out["charge"].jump_times),
        }
        return summary, problems

    def calibrate(self, summaries):
        """Criterion 8 over the run: verdict shares and moderate lifetime."""
        problems = []
        for regime in CYCLE:
            rows = [s for s in summaries if s["regime"] == regime]
            hits = sum(s["expected"] for s in rows)
            problems += stats.share_check(
                f"parity {regime} expected verdicts", hits, len(rows)
            )
        gamma = REGIMES["moderate"][2]
        lifetimes = [s["seconds"] for s in summaries
                     if s["regime"] == "moderate" and s["kind"] == "estimate"]
        if lifetimes:
            mid = stats.median(lifetimes)
            if not 0.5 / gamma <= mid <= 2.0 / gamma:
                problems.append(
                    f"parity moderate median lifetime {mid:.4g} s not within "
                    f"2x of {1 / gamma:g} s"
                )
        else:
            problems.append("parity moderate: no lifetime estimate")
        return problems

    def layer_metrics(self, tr, summaries):
        """Per-layer metrics of the parity layer from spans and summaries."""
        def ms(name):
            return (1e3 * stats.median(tr.durations(name)), "ms")

        metrics = {"parity.simulate_ms": ms("parity.simulate")}
        synth_total = est_total = 0.0
        for regime in CYCLE:
            synth = tr.durations(f"parity.synthesize.{regime}")
            est = tr.durations(f"parity.estimate.{regime}")
            synth_total += sum(synth)
            est_total += sum(est)
            metrics[f"parity.synthesize_ms.{regime}"] = (
                1e3 * stats.median(synth), "ms")
            metrics[f"parity.estimate_ms.{regime}"] = (
                1e3 * stats.median(est), "ms")
        samples = sum(s["samples"] for s in summaries)
        metrics["parity.synthesize_ns_per_sample"] = (
            1e9 * synth_total / samples, "ns")
        metrics["parity.estimate_ns_per_sample"] = (
            1e9 * est_total / samples, "ns")
        for key in ("pixels", "samples", "switches", "jumps"):
            metrics[f"parity.{key}"] = (
                sum(s[key] for s in summaries), "count")
        for regime in CYCLE:
            rows = [s for s in summaries if s["regime"] == regime]
            metrics[f"parity.expected_verdict_frac.{regime}"] = (
                sum(s["expected"] for s in rows) / len(rows), "frac")
        metrics["transmon.scan_window_ms"] = ms("transmon.scan_window")
        return metrics


def _expected_verdict(regime, switches, duration, estimate) -> bool:
    """The verdict criterion 8 expects for this regime and trace."""
    if regime == "fast":
        return (estimate.kind == "upper_bound"
                and estimate.seconds == PIXEL_SECONDS)
    if regime == "protected" and switches == 0:
        # no switch at all: one branch over the whole scan
        return estimate.kind == "lower_bound" and estimate.seconds == duration
    return estimate.kind == "estimate"
