"""``scripts/layers.py``: its worker records what the benchmark's layer
metrics read."""

import importlib
import math
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class _Spans:
    """The worker's span samples, read as a tracer's ``durations``."""

    def __init__(self, ms: dict):
        self.ms = ms

    def durations(self, name: str) -> list[float]:
        return [1e-3 * value for value in self.ms[name]]


# the fewest operations that visit every span: device_sweep loads the
# targets config (config.load_targets) at operation 3 and parity_scan
# reaches the protected regime at operation 2
@pytest.mark.parametrize("name, ops, counter_keys", [
    ("device_sweep", 4, {"served", "inversions"}),
    ("parity_scan", 3, {"fast", "moderate", "protected"}),
])
def test_layer_worker_records_every_span_the_layer_metrics_read(
        name, ops, counter_keys, monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "scripts"))  # undone with sys.path
    layers = importlib.import_module("layers")
    result = layers.worker(name, REPO, 1, ops)

    assert set(result["counter"]) == counter_keys
    if name == "parity_scan":
        for counts in result["counter"].values():
            assert set(counts) == {"segments", "states", "maxima",
                                   "clusters"}
            assert 0 < counts["states"] <= counts["segments"]
            assert 0 < counts["clusters"] <= counts["maxima"]
    else:
        assert 0 <= result["counter"]["served"] <= result["counter"]["inversions"]
    assert len(result["op_ms"]) == ops
    tracer = importlib.import_module("tracer")
    workload = importlib.import_module(name).Workload(1, REPO)
    summaries = []
    for index in range(ops):
        item = workload.item(index)
        summaries.append(workload.check(item, workload.run(
            item, tracer.Tracer(False)))[0])
    # a span the worker did not record is a KeyError here
    metrics = workload.layer_metrics(_Spans(result["ms"]), summaries)
    assert all(math.isfinite(value) for value, _ in metrics.values())


def test_detection_counts_are_the_maxima_the_detector_clusters(
        monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "scripts"))
    layers = importlib.import_module("layers")
    from qpgap.parity import (_ROWS, NoiseModel, ScanConfig, _RowDetection,
                              scan_window, simulate_offset_charge,
                              simulate_parity, synthesize_scan)
    from qpgap.transmon import TransmonParams

    params = TransmonParams(EJ=5.92, EC=0.400)
    f_min, f_max = scan_window(params, 1.0)
    scan = synthesize_scan(
        params, simulate_parity(0.05, 200.0, seed=3),
        simulate_offset_charge(NoiseModel(0.05), 200.0, seed=4),
        ScanConfig(f_min_ghz=f_min, f_max_ghz=f_max), snr=20.0, seed=5,
    )
    detection = _RowDetection(scan.frequencies_ghz, scan.n_pixels, 1.0)
    for first in range(0, scan.n_pixels, _ROWS):
        detection.grade(first, scan.amplitudes[first:first + _ROWS])
    maxima = detection._n_maxima
    detection._cluster()
    found, clusters = layers.detection_counts(scan, detection.thresholds)
    assert found == maxima
    assert detection.counts.sum() <= clusters <= maxima
