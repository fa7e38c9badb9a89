"""Mutated shipped configs and CSVs keep the CLI's exit-code contract.

Every run must return 0, 2 or 3, print ``error: ...`` on failure and let
no exception escape ``main``.  Replacement values come from fixed pools
chosen so that no mutation enlarges a scan past a few thousand pixels of
the configured frequency grid (``n_freq`` only shrinks, the smallest
positive number is 1e-3 s per pixel, the duration is fixed) or a charge
basis past a few thousand states.

Scan sizes and noise rates are fuzzed in-process against the work bounds
of ``qpgap.parity``: past ``MAX_SCAN_SAMPLES`` or ``MAX_EXPECTED_EVENTS``
a scan is refused with DomainError before any work, and below 10^5
samples it is synthesized and graded.
"""

import contextlib
import copy
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qpgap.cli import main
from qpgap.errors import DomainError
from qpgap.parity import (
    MAX_EXPECTED_EVENTS,
    MAX_SCAN_SAMPLES,
    NoiseModel,
    ScanConfig,
    estimate_parity_lifetime,
    scan_window,
    simulate_offset_charge,
    simulate_parity,
    synthesize_scan,
)
from qpgap.transmon import TransmonParams

REPO = Path(__file__).resolve().parent.parent
CONFIGS = sorted((REPO / "configs").glob("*.json"))
T1_CSV = REPO / "data" / "t1_vs_temperature_1p.csv"
T2_CSV = REPO / "data" / "t2star_vs_temperature_1p.csv"

JSON_VALUES = [
    None, True, False, "x", "20", "", [], {}, [1.0], [[1.0, 2.0]],
    [[1.0, 2.0], [3.0, 1.0]], {"length_um": 1.0}, -1, 0, 1, 3, 0.5, -0.5,
    1e-3, 1e3, math.nan, math.inf, -math.inf, 10**400,
]
CSV_CELLS = [
    "", "x", "nan", "inf", "-1", "0", "1e308", "1e-308", "0.5", "5",
    "T_K", "value_us", "rate_per_s", "sigma",
]


def _paths(node, prefix=()):
    """The key path of every value inside a parsed JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)) and child:
            yield from _paths(child, prefix + (key,))


def _mutate_config(data, document):
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        paths = list(_paths(document))
        if not paths:
            break
        *parents, key = data.draw(st.sampled_from(paths), label="path")
        parent = document
        for part in parents:
            parent = parent[part]
        action = data.draw(st.sampled_from(["replace", "delete"]))
        if action == "delete":
            del parent[key]
        else:
            value = data.draw(st.sampled_from(JSON_VALUES), label="value")
            parent[key] = copy.deepcopy(value)
    return json.dumps(document)


def _mutate_csv(data, text):
    rows = [line.split(",") for line in text.splitlines()]
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        if not rows:
            break
        action = data.draw(st.sampled_from(["cell", "drop_row", "drop_column"]))
        index = data.draw(st.integers(0, len(rows) - 1), label="row")
        if action == "drop_row":
            del rows[index]
            continue
        row = rows[index]
        if not row:
            continue
        column = data.draw(st.integers(0, len(row) - 1), label="column")
        if action == "drop_column":
            for each in rows:
                if column < len(each):
                    del each[column]
        else:
            row[column] = data.draw(st.sampled_from(CSV_CELLS), label="cell")
    return "\n".join(",".join(row) for row in rows) + "\n"


def _argv(command, config, t1, t2, out):
    return {
        "spectrum": ["spectrum", config],
        "qp": ["qp", config],
        "parity-sim": ["parity-sim", config, "--duration", "1",
                       "--format", "json", "--out", out, "--svg"],
        "fit t1": ["fit", "t1", t1, config],
        "fit t2": ["fit", "t2", t2, config, "--t1-data", t1],
    }[command]


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_mutated_inputs_keep_the_exit_contract(tmp_path_factory, data):
    work = tmp_path_factory.mktemp("fuzz")
    config = data.draw(st.sampled_from(CONFIGS), label="config")
    command = data.draw(
        st.sampled_from(["spectrum", "qp", "parity-sim", "fit t1", "fit t2"]),
        label="command",
    )
    texts = {
        "config.json": config.read_text(),
        "t1.csv": T1_CSV.read_text(),
        "t2.csv": T2_CSV.read_text(),
    }
    target = "config.json"
    if command.startswith("fit"):
        target = data.draw(
            st.sampled_from(["config.json", "t1.csv", "t2.csv"]), label="file"
        )
    if target == "config.json":
        texts[target] = _mutate_config(data, json.loads(texts[target]))
    else:
        texts[target] = _mutate_csv(data, texts[target])
    for name, text in texts.items():
        (work / name).write_text(text)

    argv = _argv(
        command, *(str(work / name) for name in texts), str(work / "out")
    )
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code != 0:
        assert err.startswith("error:"), err


SCAN_DEVICE = TransmonParams(EJ=5.92, EC=0.400)
SMALL_SAMPLES = 100_000


def _scan(n_freq, pixel_seconds, duration, gamma, tls_rate):
    """Simulate, synthesize and grade one scan of SCAN_DEVICE."""
    model = NoiseModel(gamma_parity_per_s=gamma, tls_rate_per_s=tls_rate)
    parity = simulate_parity(gamma, duration, seed=1)
    charge = simulate_offset_charge(model, duration, seed=2)
    f_min, f_max = scan_window(SCAN_DEVICE, linewidth_mhz=1.0)
    config = ScanConfig(f_min_ghz=f_min, f_max_ghz=f_max, n_freq=n_freq,
                        pixel_seconds=pixel_seconds)
    scan = synthesize_scan(SCAN_DEVICE, parity, charge, config, seed=3)
    return scan, estimate_parity_lifetime(scan)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_scan_sizes_and_rates_keep_the_work_bounds(data):
    limit = data.draw(
        st.sampled_from([None, "n_freq", "samples", "parity", "tls"]),
        label="limit",
    )
    n_freq = data.draw(st.integers(3, 1000), label="n_freq")
    pixel_seconds = data.draw(st.floats(1e-6, 1e3), label="pixel_seconds")
    if limit == "samples":
        pixels = data.draw(
            st.floats(1.001 * MAX_SCAN_SAMPLES, 1e250), label="samples"
        ) / n_freq
    else:
        pixels = data.draw(
            st.integers(1, SMALL_SAMPLES // n_freq), label="pixels"
        )
    duration = pixels * pixel_seconds
    gamma = data.draw(st.floats(0.0, 2000.0), label="switches") / duration
    tls_rate = data.draw(st.floats(0.0, 20.0), label="jumps") / duration
    if limit == "n_freq":
        n_freq = data.draw(
            st.integers(MAX_SCAN_SAMPLES + 1, 10**12), label="big_n_freq"
        )
    elif limit in ("parity", "tls"):
        rate = data.draw(
            st.floats(1.001 * MAX_EXPECTED_EVENTS, 1e300), label="events"
        ) / duration
        if limit == "parity":
            gamma = rate
        else:
            tls_rate = rate

    if limit is None:
        scan, estimate = _scan(n_freq, pixel_seconds, duration, gamma,
                               tls_rate)
        assert scan.amplitudes.shape == (pixels, n_freq)
        assert estimate.kind in (
            "upper_bound", "lower_bound", "estimate", "inconclusive"
        )
    else:
        match = limit if limit in ("n_freq", "samples") else "events"
        with pytest.raises(DomainError, match=match):
            _scan(n_freq, pixel_seconds, duration, gamma, tls_rate)
