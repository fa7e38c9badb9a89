import copy
import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from qpgap import config as config_module
from qpgap import svgplot
from qpgap._floatcsv import format_blocks
from qpgap._output import _csv_table, _dump_json
from qpgap.cli import main
from qpgap.config import load_device_config, load_device_document
from qpgap.errors import ConfigError
from qpgap.parity import (
    DEFAULT_PIXEL_SECONDS,
    MAX_EXPECTED_EVENTS,
    MAX_SCAN_SAMPLES,
    ScanConfig,
    _block_rows,
    estimate_parity_lifetime,
    scan_window,
    simulate_offset_charge,
    simulate_parity,
    synthesize_scan,
)
from qpgap.transmon import TransmonParams, transition_frequency

DEVICES = (
    "device_1np.json",
    "device_2np.json",
    "device_1p.json",
    "device_2p.json",
    "device_3p.json",
)


def _document(configs_dir, name="device_2np.json") -> dict:
    return json.loads((configs_dir / name).read_text())


# --------------------------------------------------------------- loading


@pytest.mark.parametrize("name", DEVICES)
def test_shipped_configs_load(configs_dir, name):
    config = load_device_config(configs_dir / name)
    assert config.params.EJ > 0 and config.params.EC > 0
    assert len(config.source_hash) == 64
    assert int(config.source_hash, 16) >= 0
    assert config.seed is not None


def test_config_hash_tracks_content(configs_dir):
    doc = _document(configs_dir)
    a = load_device_document(doc, json.dumps(doc))
    changed = copy.deepcopy(doc)
    changed["seed"] = 9999
    b = load_device_document(changed, json.dumps(changed))
    assert a.source_hash != b.source_hash
    again = load_device_document(doc, json.dumps(doc))
    assert a.source_hash == again.source_hash


def test_explicit_parity_rate_is_not_flagged_computed(configs_dir):
    config = load_device_config(configs_dir / "device_2np.json")
    assert not config.gamma_parity_computed
    assert config.noise.gamma_parity_per_s == 1000.0


def test_parity_rate_computed_from_profile(configs_dir):
    doc = _document(configs_dir)
    del doc["noise"]
    config = load_device_document(doc, json.dumps(doc))
    assert config.gamma_parity_computed
    # flat-gap junction stack passes the full base rate
    assert config.noise.gamma_parity_per_s == pytest.approx(1e3, rel=1e-6)


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_device_config(tmp_path / "absent.json")


def test_json_syntax_error_carries_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "schema_version": 1,\n  "name": oops\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_device_config(path)


def test_deeply_nested_json_is_a_config_error(tmp_path, configs_dir):
    text = (configs_dir / "device_1np.json").read_text().rstrip()
    depth = 100_000
    path = tmp_path / "nested.json"
    path.write_text(text[:-1] + ', "measured": {"T1_us": '
                    + "[" * depth + "]" * depth + "}}\n")
    with pytest.raises(ConfigError, match=f"{re.escape(str(path))}: JSON "
                       "nested too deeply"):
        load_device_config(path)


def test_schema_version_is_checked(tmp_path, configs_dir):
    doc = _document(configs_dir)
    doc["schema_version"] = 99
    path = tmp_path / "v99.json"
    path.write_text(json.dumps(doc, indent=1))
    with pytest.raises(ConfigError, match="schema_version"):
        load_device_config(path)


def test_unknown_top_level_key_is_named(tmp_path, configs_dir):
    doc = _document(configs_dir)
    doc["frobnicator"] = 1
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(doc, indent=1))
    with pytest.raises(ConfigError, match="frobnicator"):
        load_device_config(path)


def test_transmon_requires_one_parameterization(configs_dir):
    doc = _document(configs_dir)
    doc["transmon"]["targets"] = {
        "f_ge_ng0_GHz": 4.402, "f_ge_ng05_GHz": 4.380
    }
    with pytest.raises(ConfigError, match="targets"):
        load_device_document(doc, json.dumps(doc))
    bare = _document(configs_dir)
    bare["transmon"] = {"ng": 0.0}
    with pytest.raises(ConfigError):
        load_device_document(bare, json.dumps(bare))


def test_wrong_value_type_names_the_line(tmp_path, configs_dir):
    doc = _document(configs_dir)
    doc["transmon"]["EJ_GHz"] = "large"
    text = json.dumps(doc, indent=1)
    path = tmp_path / "typed.json"
    path.write_text(text)
    expected_line = next(
        i for i, line in enumerate(text.splitlines(), start=1)
        if "EJ_GHz" in line
    )
    with pytest.raises(ConfigError, match=f"line {expected_line}"):
        load_device_config(path)


def _load_error(doc) -> tuple[ConfigError, list[str]]:
    """The ConfigError of ``doc`` written one key per line, and its lines."""
    text = json.dumps(doc, indent=1)
    with pytest.raises(ConfigError) as caught:
        load_device_document(doc, text)
    return caught.value, text.splitlines()


def test_repeated_keys_name_their_own_line(configs_dir):
    # every segment has length_um and thickness_nm: the error points at
    # the third segment's key, not the first line naming it
    doc = _document(configs_dir, "device_1np.json")
    doc["gap_profile"]["segments"][2]["thickness_nm"] = "20"
    error, lines = _load_error(doc)
    assert lines[error.line - 1].strip() == '"thickness_nm": "20"'
    assert [i for i, line in enumerate(lines, 1) if "thickness_nm" in line][
        -1
    ] == error.line
    assert "gap_profile.segments[2].thickness_nm" in str(error)
    # a key missing from a segment points at the segment's first line
    doc = _document(configs_dir, "device_1np.json")
    del doc["gap_profile"]["segments"][1]["length_um"]
    error, lines = _load_error(doc)
    assert "gap_profile.segments[1].length_um: missing" in str(error)
    assert lines[error.line - 1].strip() == "{"
    assert '"thickness_nm": 25.0' in lines[error.line]


_SEGMENT_1 = '{"length_um": 3.0,'


@pytest.mark.parametrize(
    "edits, key, line",
    [
        # json.loads would keep g = 1 MHz
        ([('"g_MHz": 130.0,', '"g_MHz": 130.0,\n  "g_MHz": 1.0,')],
         "cavity.g_MHz", 6),
        ([(_SEGMENT_1, _SEGMENT_1 + '\n  "length_um": 30.0,')],
         "gap_profile.segments[1].length_um", 10),
        ([('"seed": 101', '"seed": 101,\n  "seed": 7')], "seed", 18),
        # the first repeat in reading order, though the segment's object
        # closes first
        ([('"name": "1NP",', '"name": "1NP",\n  "name": "x",'),
          (_SEGMENT_1, _SEGMENT_1 + ' "length_um": 3.0,')], "name", 4),
    ],
    ids=["cavity", "segment", "top-level", "first-in-reading-order"],
)
def test_a_key_given_twice_exits_2_on_its_line(
    configs_dir, tmp_path, capsys, edits, key, line
):
    text = (configs_dir / "device_1np.json").read_text()
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    path = tmp_path / "twice.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as caught:
        load_device_config(path)
    assert str(caught.value) == f"line {line}: {path}: duplicate key {key}"
    assert caught.value.line == line
    err = _assert_clean_exit_2(_run(["spectrum", path]), capsys)
    assert err == f"error: {caught.value}\n"


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("thickness_tc_table",), [[25, 1.6], [40, 1.7]],
         "thickness_tc_table: Tc must be non-increasing"),
        (("qp_environment", "tau_anchors"), [[0.5, 1e-5]],
         "qp_environment: tau_anchors needs at least two points"),
        (("qp_environment", "xi_um"), -0.1,
         "qp_environment: coherence length must be positive"),
        (("cavity", "Q_loaded"), -5, "cavity: Q must be positive"),
        (("noise", "tls_rate_per_s"), -1.0, "noise: TLS rate must be"),
        (("transmon", "EC_GHz"), -0.2, "transmon: EC must be positive"),
    ],
    ids=["thickness_tc_table", "tau_anchors", "xi_um", "cavity", "noise",
         "transmon"],
)
def test_record_checks_name_their_section_and_line(
    configs_dir, tmp_path, capsys, path, value, message
):
    doc = _document(configs_dir, "device_1np.json")
    doc.setdefault(path[0], {})
    _set(doc, path, value)
    error, lines = _load_error(doc)
    assert str(error).startswith(f"line {error.line}: {message}")
    assert lines[error.line - 1].strip().startswith(f'"{path[0]}":')
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc, indent=1))
    err = _assert_clean_exit_2(_run(["spectrum", config]), capsys)
    assert err == f"error: {error}\n"


def test_targets_errors_name_the_transmon_line(configs_dir):
    doc = _document(configs_dir, "device_2p.json")
    del doc["transmon"]["targets"]["f_ge_ng05_GHz"]
    doc["transmon"]["targets"].pop("f_ef_GHz", None)
    error, lines = _load_error(doc)
    assert str(error).startswith(
        f"line {error.line}: transmon: a single ge frequency cannot"
    )
    assert lines[error.line - 1].strip().startswith('"transmon":')


@pytest.mark.parametrize(
    "targets, observable",
    [
        ({"f_ge_ng0_GHz": 4.4, "f_ge_ng05_GHz": 4.4},
         "relative ge dispersion"),
        ({"f_ge_ng0_GHz": 4.4, "f_ef_GHz": 0.1}, "ratio f_ef / f_ge"),
    ],
    ids=["ng05", "ef"],
)
def test_targets_outside_the_ratio_range_exit_2(
    configs_dir, tmp_path, capsys, targets, observable
):
    doc = _document(configs_dir, "device_2p.json")
    doc["transmon"]["targets"] = targets
    error, lines = _load_error(doc)
    assert str(error).startswith(
        f"line {error.line}: transmon: targets admit no transmon with "
        f"EJ/EC in [1.5, 2000]: their {observable}"
    )
    assert lines[error.line - 1].strip().startswith('"transmon":')
    config = tmp_path / "range.json"
    config.write_text(json.dumps(doc, indent=1))
    err = _assert_clean_exit_2(_run(["spectrum", config]), capsys)
    assert err == f"error: {error}\n"


def test_overflowing_cavity_shift_exits_2(configs_dir, tmp_path, capsys):
    doc = _document(configs_dir, "device_1p.json")
    doc["cavity"].update(g_MHz=1e160, nu_r_GHz=1e200)
    doc.pop("dephasing", None)
    config = tmp_path / "overflow.json"
    config.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run(["spectrum", config, "--format", "json"])
    err = _assert_clean_exit_2(code, capsys)
    assert err.count("\n") == 1
    assert "cavity shift of level 1 overflows at levels (1, 0)" in err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("linewidth_MHz", 0.0, "must be positive, got 0.0"),
        ("snr", -20.0, "must be positive, got -20.0"),
        ("pixel_seconds", 0, "must be positive, got 0.0"),
        ("n_freq", 2, "must be from 3 to 20000000, got 2"),
    ],
)
def test_scan_keys_are_checked_at_load(configs_dir, tmp_path, capsys, key,
                                       value, message):
    doc = _document(configs_dir, "device_1np.json")
    doc.setdefault("scan", {})[key] = value
    text = json.dumps(doc, indent=1)
    config = tmp_path / "scan.json"
    config.write_text(text)
    line = next(i for i, row in enumerate(text.splitlines(), start=1)
                if f'"{key}":' in row)
    err = _assert_clean_exit_2(_run(["spectrum", config]), capsys)
    assert err == f"error: line {line}: scan.{key}: {message}\n"


def test_bad_gap_profile_is_a_config_error(configs_dir):
    doc = _document(configs_dir)
    doc["gap_profile"]["junction_um"] = 11.0
    with pytest.raises(ConfigError, match="junction"):
        load_device_document(doc, json.dumps(doc))


def test_targets_parameterization_resolves(configs_dir):
    config = load_device_config(configs_dir / "device_2p.json")
    assert config.params.EJ == pytest.approx(6.92, rel=0.03)
    assert config.params.EC == pytest.approx(0.429, rel=0.03)


# ------------------------------------------------------------ schema doc

SCHEMA_DOC = Path(__file__).resolve().parent.parent / "docs" / "schema.md"
# heading of each docs/schema.md section -> the config tables it documents
SCHEMA_SECTIONS = {
    "Top-level keys": ("_DOCUMENT",),
    "`transmon`": ("_TRANSMON", "_TRANSMON_NG", "_TARGETS"),
    "`cavity`": ("_CAVITY",),
    "`gap_profile`": ("_GAP_PROFILE", "_SEGMENT"),
    "`qp_environment`": ("_QP_ENVIRONMENT",),
    "`noise`": ("_NOISE",),
    "`scan`": ("_SCAN",),
    "`dephasing`": ("_DEPHASING",),
    "`measured`": ("_MEASURED",),
}


def _schema_section(heading: str) -> str:
    text = SCHEMA_DOC.read_text()
    start = text.index(f"\n### {heading}\n")
    end = re.search(r"\n##", text[start + 1:])
    return text[start:start + 1 + end.start()]


def test_schema_doc_covers_every_config_table():
    tables = {
        name for name, value in vars(config_module).items()
        if re.fullmatch(r"_[A-Z_]+", name) and isinstance(value, tuple)
    }
    documented = {name for names in SCHEMA_SECTIONS.values() for name in names}
    assert documented == tables


@pytest.mark.parametrize("heading", SCHEMA_SECTIONS)
def test_schema_doc_names_exactly_the_table_keys(heading):
    section = _schema_section(heading)
    keys = {
        key
        for name in SCHEMA_SECTIONS[heading]
        for key, *_ in getattr(config_module, name)
    }
    missing = sorted(key for key in keys if f"`{key}`" not in section)
    assert not missing
    rows = re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)
    assert set(rows) <= keys


# ------------------------------------------------------------ cli: runs


def _run(argv) -> int:
    return main([str(a) for a in argv])


def test_spectrum_at_a_large_offset_charge_has_the_shift_of_its_fraction(
    configs_dir, tmp_path
):
    # at ng = 1e16 the shift had blamed a vanishing <0|n|1> and exited 2
    chi = []
    for ng in (1e16, 0.0):
        doc = _document(configs_dir)
        doc["transmon"]["ng"] = ng
        path = tmp_path / f"{ng}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"out_{ng}"
        assert _run(["spectrum", path, "--format", "json", "--out", out]) == 0
        summary = json.loads((out / "spectrum.json").read_text())["summary"]
        chi.append(summary["chi_MHz"])
    assert chi[0] is not None
    assert chi[0] == chi[1]


def test_spectrum_stdout(configs_dir, capsys):
    code = _run(["spectrum", configs_dir / "device_2np.json"])
    out = capsys.readouterr().out
    assert code == 0
    assert "# f_ge_ng0_GHz =" in out
    assert out.startswith("kind,ng,f_ge_GHz")


def test_spectrum_files(configs_dir, tmp_path, capsys):
    code = _run([
        "spectrum", configs_dir / "device_2np.json",
        "--out", tmp_path, "--svg",
    ])
    assert code == 0
    csv_text = (tmp_path / "spectrum.csv").read_text()
    first_grid = next(
        line for line in csv_text.splitlines() if line.startswith("grid")
    )
    f_ge_ng0 = float(first_grid.split(",")[2])
    expected = transition_frequency(TransmonParams(EJ=7.417, EC=0.403))
    assert f_ge_ng0 == pytest.approx(expected, rel=1e-9)
    assert (tmp_path / "spectrum.svg").read_text().startswith("<svg")


def test_spectrum_json(configs_dir, tmp_path, capsys):
    code = _run([
        "spectrum", configs_dir / "device_2np.json",
        "--format", "json", "--out", tmp_path,
    ])
    assert code == 0
    document = json.loads((tmp_path / "spectrum.json").read_text())
    summary = document["summary"]
    assert summary["EJ_GHz"] == pytest.approx(7.417)
    assert summary["eps_ge_GHz"] == pytest.approx(0.0104, abs=0.001)
    assert summary["chi_MHz"] == pytest.approx(-1.639, abs=0.01)
    assert len(document["grid"]) == 26


def test_spectrum_near_resonance_leaves_chi_empty(configs_dir, tmp_path):
    # charge-sensitive device whose higher levels straddle the cavity
    code = _run([
        "spectrum", configs_dir / "device_3p.json",
        "--format", "json", "--out", tmp_path,
    ])
    assert code == 0
    summary = json.loads((tmp_path / "spectrum.json").read_text())["summary"]
    assert summary["chi_MHz"] is None


def test_qp_files(configs_dir, tmp_path, capsys):
    code = _run([
        "qp", configs_dir / "device_1p.json", "--out", tmp_path,
    ])
    assert code == 0
    summary = (tmp_path / "qp_summary.csv").read_text()
    assert "barrier_protected,true" in summary
    assert "trap_adequate,false" in summary
    grid = (tmp_path / "qp_grid.csv").read_text().splitlines()
    assert grid[0] == "T_K,x_qp,gamma1_per_s,T1_us,parity_rate_per_s"
    assert len(grid) == 40  # header plus 39 temperatures


def test_qp_json_summary_values(configs_dir, tmp_path):
    code = _run([
        "qp", configs_dir / "device_1p.json",
        "--format", "json", "--out", tmp_path,
    ])
    assert code == 0
    summary = json.loads((tmp_path / "qp.json").read_text())["summary"]
    assert summary["parity_rate_base_per_s"] == pytest.approx(
        3.146e-4, rel=0.01
    )
    assert summary["barrier_protected"] is True
    assert summary["barrier_left_margin"] == pytest.approx(6.0)
    assert summary["trap_adequate"] is False
    assert summary["crossover_K"] == pytest.approx(0.168, abs=0.002)


def test_parity_sim_csv_requires_out(configs_dir, capsys):
    code = _run([
        "parity-sim", configs_dir / "device_2np.json", "--duration", "2",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "requires --out" in captured.err


def test_parity_sim_files_and_verdict(configs_dir, tmp_path, capsys):
    code = _run([
        "parity-sim", configs_dir / "device_2np.json",
        "--duration", "2", "--out", tmp_path, "--svg",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "two-branch" in captured.out
    scan_lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert scan_lines[0].startswith("time_s,f_")
    assert len(scan_lines) == 11  # header plus 10 pixels of 0.2 s
    meta = json.loads((tmp_path / "scan_meta.json").read_text())
    assert meta["estimate"]["kind"] == "upper_bound"
    assert meta["gamma_parity_per_s"] == 1000.0
    assert meta["true_switch_count"] > 1000
    peak_lines = (tmp_path / "peaks.csv").read_text().splitlines()
    assert peak_lines[0] == "pixel,time_s,count,f1_GHz,f2_GHz"
    assert len(peak_lines) == 11
    assert (tmp_path / "scan.svg").read_text().startswith("<svg")


def test_parity_sim_starts_the_charge_trace_at_the_config_ng(
    configs_dir, tmp_path, capsys
):
    # at ng = 1/4 the even and odd branches coincide: one peak per pixel
    doc = _document(configs_dir, "device_2np.json")
    doc["transmon"]["ng"] = 0.25
    path = tmp_path / "ng.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert _run(["parity-sim", path, "--duration", "2", "--out", out]) == 0
    rows = [line.split(",") for line in
            (out / "peaks.csv").read_text().splitlines()[1:]]
    assert len(rows) == 10
    assert {row[2] for row in rows} == {"1"}


@pytest.mark.parametrize(
    "config, duration", [("device_3p.json", "0.2"), ("device_1np.json", "0.39")]
)
def test_one_pixel_scan_writes_svg(configs_dir, tmp_path, capsys,
                                   config, duration):
    # one pixel puts a single time on the heatmap's axis
    code = _run([
        "parity-sim", configs_dir / config, "--duration", duration,
        "--out", tmp_path, "--svg",
    ])
    assert code == 0, capsys.readouterr().err
    assert len((tmp_path / "scan.csv").read_text().splitlines()) == 2
    assert (tmp_path / "scan.svg").read_text().startswith("<svg")


def test_parity_sim_json_stdout(configs_dir, capsys):
    code = _run([
        "parity-sim", configs_dir / "device_3p.json",
        "--duration", "4", "--format", "json", "--seed", "203",
    ])
    captured = capsys.readouterr()
    assert code == 0
    document = json.loads(captured.out[: captured.out.rindex("}") + 1])
    assert document["peaks"][0]["count"] in (1, 2)
    assert document["config"] == "3P"


def _table_outputs(config_path, duration: float, fmt: str, svg: bool):
    """The files and stdout of ``parity-sim`` built the library's way: the
    whole scan from ``synthesize_scan``, graded by
    ``estimate_parity_lifetime`` and written with ``_csv_table``."""
    config = load_device_config(config_path)
    seed, settings = config.seed, config.scan
    parity_trace = simulate_parity(
        config.noise.gamma_parity_per_s, duration, seed=seed
    )
    charge_trace = simulate_offset_charge(
        config.noise, duration, seed=seed + 1, ng_initial=config.params.ng
    )
    f_min, f_max = scan_window(
        config.params, settings.linewidth_mhz, settings.pad_linewidths
    )
    scan = synthesize_scan(
        config.params, parity_trace, charge_trace,
        ScanConfig(f_min, f_max, settings.n_freq, settings.pixel_seconds),
        linewidth_mhz=settings.linewidth_mhz, snr=settings.snr,
        seed=seed + 2,
    )
    estimate = estimate_parity_lifetime(scan)
    metadata = {
        **scan.metadata(),
        "config": config.name,
        "config_hash": config.source_hash,
        "gamma_parity_per_s": config.noise.gamma_parity_per_s,
        "gamma_parity_computed": config.gamma_parity_computed,
        "true_switch_count": parity_trace.switch_count,
        "verdict": estimate.describe(),
        "estimate": {
            "kind": estimate.kind,
            "seconds": estimate.seconds,
            "alternations": estimate.alternations,
            "two_peak_fraction": estimate.two_peak_fraction,
            "single_peak_fraction": estimate.single_peak_fraction,
        },
    }
    peaks_header = ["pixel", "time_s", "count", "f1_GHz", "f2_GHz"]
    peak_rows = [
        [index, start, count, *positions[:count], *[None] * (2 - count)]
        for index, (start, count, positions) in enumerate(zip(
            scan.pixel_starts_s.tolist(), estimate.counts.tolist(),
            estimate.positions_ghz.tolist(),
        ))
    ]
    if fmt == "json":
        peak_records = [dict(zip(peaks_header, row)) for row in peak_rows]
        files = {"scan_meta.json": _dump_json(
            {**metadata, "peaks": peak_records})}
    else:
        header = ["time_s"] + [f"f_{f:.10g}" for f in scan.frequencies_ghz]
        table = np.column_stack([scan.pixel_starts_s, scan.amplitudes])
        files = {
            "scan.csv": _csv_table(header, table.tolist()),
            "peaks.csv": _csv_table(peaks_header, peak_rows),
            "scan_meta.json": _dump_json(metadata),
        }
    if svg:
        files["scan.svg"] = svgplot.heatmap(
            scan.amplitudes.T, scan.frequencies_ghz, scan.pixel_starts_s,
            "frequency (GHz)", "time (s)", f"{config.name} parity scan",
        )
    files = {name: text.encode() for name, text in files.items()}
    return scan.n_pixels, files, estimate.describe() + "\n"


@pytest.mark.parametrize(
    "config, pixels, fmt, svg",
    [
        ("device_3p.json", 1, "csv", True),
        ("device_2np.json", _block_rows(161), "csv", False),
        ("device_2np.json", _block_rows(161) + 1, "csv", True),
        ("device_3p.json", 5000, "csv", False),
        ("device_2np.json", _block_rows(161) + 1, "json", False),
        ("device_3p.json", 5000, "json", False),
    ],
)
def test_streamed_scan_matches_the_table_path(
    configs_dir, tmp_path, capsys, config, pixels, fmt, svg
):
    # parity-sim synthesizes, grades and writes the scan a block at a
    # time; every byte equals the whole-table path's
    duration = pixels * DEFAULT_PIXEL_SECONDS
    argv = ["parity-sim", configs_dir / config, "--duration", repr(duration),
            "--format", fmt, "--out", tmp_path]
    assert _run(argv + ["--svg"] * svg) == 0
    stdout = capsys.readouterr().out
    n_pixels, files, verdict = _table_outputs(
        configs_dir / config, duration, fmt, svg
    )
    assert n_pixels == pixels
    assert stdout == verdict
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == (
        files
    )


def test_parity_sim_input_errors_come_before_any_output(
    configs_dir, tmp_path, capsys
):
    # the scan is written as it is made, so every check runs first: here
    # the sample cap (5e7 pixels x 161 frequencies)
    out = tmp_path / "out"
    code = _run(["parity-sim", configs_dir / "device_3p.json",
                 "--duration", "1e7", "--out", out])
    assert "samples" in _assert_clean_exit_2(code, capsys)
    assert list(out.iterdir()) == []


def _traced_peak(argv) -> int:
    """The traced allocation peak of ``argv``'s second run in-process."""
    assert _run(argv) == 0  # imports and memos are not the scan's
    tracemalloc.start()
    try:
        assert _run(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_parity_sim_memory_does_not_grow_with_the_scan(
    configs_dir, tmp_path, capsys
):
    # a 1000 s 3P scan is 5000 x 161 samples, 6.4 MB; the CLI holds a few
    # blocks of it and the per-row counts, positions and thresholds
    config = configs_dir / "device_3p.json"
    short, long = (
        _traced_peak(["parity-sim", config, "--duration", duration,
                      "--out", tmp_path / duration])
        for duration in ("1000", "2000")
    )
    assert short <= 4e6
    assert long - short <= 1e6


def test_fit_t1_files(configs_dir, data_dir, tmp_path, capsys):
    code = _run([
        "fit", "t1", data_dir / "t1_vs_temperature_1np.csv",
        configs_dir / "device_1np.json", "--out", tmp_path, "--svg",
    ])
    assert code == 0
    text = (tmp_path / "fit_t1.txt").read_text()
    assert "tc_K = 1.3" in text
    assert "+-" in text
    residuals = (tmp_path / "fit_t1_residuals.csv").read_text().splitlines()
    assert residuals[0] == "T_K,rate_per_s,model_per_s,residual_per_s,sigma_per_s"
    assert len(residuals) == 15
    assert (tmp_path / "fit_t1.svg").read_text().startswith("<svg")


def test_fit_t1_json_report(configs_dir, data_dir, tmp_path):
    code = _run([
        "fit", "t1", data_dir / "t1_vs_temperature_1np.csv",
        configs_dir / "device_1np.json",
        "--format", "json", "--out", tmp_path,
    ])
    assert code == 0
    report = json.loads((tmp_path / "fit_t1.json").read_text())
    assert report["params"]["tc_K"] == pytest.approx(1.31, abs=0.04)
    assert report["derived"]["x_nqp_inferred"] == pytest.approx(
        1.63e-6, rel=0.05
    )
    assert report["config_hash"]


@pytest.mark.parametrize(
    "header, message",
    [
        ("T_K,value_us,sigma_us", "unknown column 'sigma_us'"),
        ("T_K,value_us,value_us", "duplicate column 'value_us'"),
    ],
    ids=["misspelt-sigma", "repeated-value"],
)
def test_fit_rejects_a_header_it_would_misread(
    configs_dir, data_dir, tmp_path, capsys, header, message
):
    # a misspelt sigma column used to be dropped: fit t1 on 1NP then ran
    # unweighted and reported gamma_plateau +- 127852 /s, not +- 1569 /s
    lines = (data_dir / "t1_vs_temperature_1np.csv").read_text().splitlines()
    data = tmp_path / "t1.csv"
    data.write_text("\n".join([header, *lines[1:]]) + "\n")
    code = _run(["fit", "t1", data, configs_dir / "device_1np.json"])
    err = _assert_clean_exit_2(code, capsys)
    assert err.startswith(f"error: {data}: {message}")


def test_fit_without_sigma_column_leaves_sigma_empty(
    configs_dir, data_dir, tmp_path
):
    lines = (data_dir / "t1_vs_temperature_1np.csv").read_text().splitlines()
    data = tmp_path / "t1.csv"
    data.write_text("".join(",".join(line.split(",")[:2]) + "\n"
                            for line in lines))
    config = configs_dir / "device_1np.json"
    csv_dir, json_dir = tmp_path / "csv", tmp_path / "json"
    csv_dir.mkdir()
    json_dir.mkdir()
    assert _run(["fit", "t1", data, config, "--out", csv_dir]) == 0
    assert _run(["fit", "t1", data, config, "--format", "json",
                 "--out", json_dir]) == 0
    rows = (csv_dir / "fit_t1_residuals.csv").read_text().splitlines()[1:]
    assert len(rows) == len(lines) - 1
    assert all(row.split(",")[-1] == "" for row in rows)
    assert "nan" not in "".join(rows)
    report = json.loads((json_dir / "fit_t1.json").read_text())
    assert [r["sigma_per_s"] for r in report["residuals"]] == [None] * len(rows)


@pytest.mark.parametrize("snr, counts", [(None, {1, 2}), (5.0, {0, 1})])
def test_peak_cells_are_empty_past_the_count(configs_dir, tmp_path, snr,
                                             counts):
    config = configs_dir / "device_3p.json"
    if snr is not None:
        document = _document(configs_dir, "device_3p.json")
        document["scan"] = {"snr": snr}
        config = tmp_path / "device.json"
        config.write_text(json.dumps(document))
    csv_dir, json_dir = tmp_path / "csv", tmp_path / "json"
    csv_dir.mkdir()
    json_dir.mkdir()
    argv = ["parity-sim", config, "--duration", "20", "--seed", "203"]
    assert _run(argv + ["--out", csv_dir]) == 0
    assert _run(argv + ["--format", "json", "--out", json_dir]) == 0
    rows = [line.split(",") for line in
            (csv_dir / "peaks.csv").read_text().splitlines()[1:]]
    records = json.loads((json_dir / "scan_meta.json").read_text())["peaks"]
    assert len(rows) == len(records) == 100
    for index, (row, record) in enumerate(zip(rows, records)):
        count = int(row[2])
        assert row[0] == str(index) and record["pixel"] == index
        assert [cell != "" for cell in row[3:]] == [count > 0, count > 1]
        positions = [record["f1_GHz"], record["f2_GHz"]]
        assert [f is not None for f in positions] == [count > 0, count > 1]
    assert {int(row[2]) for row in rows} == counts


def test_fit_t2_with_t1_data(configs_dir, data_dir, tmp_path):
    code = _run([
        "fit", "t2", data_dir / "t2star_vs_temperature_1p.csv",
        configs_dir / "device_1p.json",
        "--t1-data", data_dir / "t1_vs_temperature_1p.csv",
        "--format", "json", "--out", tmp_path,
    ])
    assert code == 0
    report = json.loads((tmp_path / "fit_t2.json").read_text())
    assert report["params"]["n0"] == pytest.approx(0.0098, abs=0.002)
    assert "pure_dephasing_from_echo_per_s" in report["derived"]


def test_fit_t2_uses_measured_t1_fallback(configs_dir, data_dir, capsys):
    code = _run([
        "fit", "t2", data_dir / "t2star_vs_temperature_1p.csv",
        configs_dir / "device_1p.json",
    ])
    assert code == 0
    assert "n0" in capsys.readouterr().out


def test_fit_t1_rejects_t1_data_before_any_work(
    configs_dir, data_dir, tmp_path, capsys
):
    # the flag was ignored, and a FILE that did not exist exited 0
    out = tmp_path / "out"
    for t1_data in (data_dir / "t1_vs_temperature_1p.csv",
                    tmp_path / "missing.csv"):
        code = _run([
            "fit", "t1", data_dir / "t1_vs_temperature_1np.csv",
            configs_dir / "device_1np.json", "--t1-data", t1_data,
            "--out", out,
        ])
        err = _assert_clean_exit_2(code, capsys)
        assert err == "error: --t1-data applies to fit t2 only\n"
    assert not out.exists()


def test_fit_t2_without_t1_source_fails(configs_dir, data_dir, tmp_path, capsys):
    doc = _document(configs_dir, "device_1p.json")
    del doc["measured"]
    path = tmp_path / "no_measured.json"
    path.write_text(json.dumps(doc))
    code = _run([
        "fit", "t2", data_dir / "t2star_vs_temperature_1p.csv", path,
    ])
    assert code == 2
    assert "T1" in capsys.readouterr().err


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_non_finite_values_are_written_as_null():
    text = _dump_json({"a": math.inf, "b": np.nan, "c": [1.5, -math.inf]})
    assert _strict_json(text) == {"a": None, "b": None, "c": [1.5, None]}


def test_inconclusive_scan_meta_is_strict_json(configs_dir, tmp_path, capsys):
    code = _run([
        "parity-sim", configs_dir / "device_3p.json", "--duration", "1000",
        "--seed", "389263331", "--out", tmp_path,
    ])
    assert code == 0
    meta = _strict_json((tmp_path / "scan_meta.json").read_text())
    assert meta["estimate"]["kind"] == "inconclusive"
    assert meta["estimate"]["seconds"] is None
    assert "repetitions" not in meta


def test_scan_repetitions_is_an_unknown_field(configs_dir, tmp_path, capsys):
    doc = _document(configs_dir)
    doc["scan"] = {"repetitions": 100}
    path = tmp_path / "reps.json"
    path.write_text(json.dumps(doc))
    code = _run(["spectrum", path])
    captured = capsys.readouterr()
    assert code == 2
    assert "scan.repetitions: unknown field" in captured.err


def _hot_quasiparticles(configs_dir, tmp_path, drop_gamma: bool):
    doc = _document(configs_dir, "device_1p.json")
    doc["qp_environment"]["T_qp_K"] = 0.1
    if drop_gamma:
        del doc["noise"]["gamma_parity_per_s"]
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(doc))
    return path


def test_hot_quasiparticles_run_cleanly(configs_dir, tmp_path, capsys):
    path = _hot_quasiparticles(configs_dir, tmp_path, drop_gamma=False)
    assert _run(["qp", path]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum"],
        ["qp"],
        ["parity-sim", "--duration", "2", "--format", "json"],
    ],
)
def test_hot_quasiparticles_with_computed_parity_rate(
    configs_dir, tmp_path, capsys, argv
):
    path = _hot_quasiparticles(configs_dir, tmp_path, drop_gamma=True)
    assert _run([argv[0], path, *argv[1:]]) == 0
    assert capsys.readouterr().err == ""


_QP_OPTIONS = (
    ["--format", "csv"],
    ["--format", "json"],
    ["--t-min", "0.001", "--t-points", "3", "--svg", "--out", "OUT"],
)


# x_nqp = 0 never meets the thermal curve; 1e-300 and 0.5 meet it outside
# the crossover search window [10 mK, Delta/2].  All three report a null
# crossover_K; the x_nqp = 0 cases keep their plain options ids.
@pytest.mark.parametrize(
    "x_nqp, options",
    [
        pytest.param(x_nqp, options, id=f"{prefix}options{index}")
        for x_nqp, prefix in ((0, ""), (1e-300, "x_nqp=1e-300-"),
                              (0.5, "x_nqp=0.5-"))
        for index, options in enumerate(_QP_OPTIONS)
    ],
)
def test_qp_without_nonequilibrium_quasiparticles(
    configs_dir, tmp_path, capsys, x_nqp, options
):
    doc = _document(configs_dir, "device_1p.json")
    doc["qp_environment"]["x_nqp"] = x_nqp
    path = tmp_path / "x0.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = _run(["qp", path, *[out if o == "OUT" else o for o in options]])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    if "json" in options:
        assert json.loads(captured.out)["summary"]["crossover_K"] is None
    elif "csv" in options:
        assert "\ncrossover_K,\n" in captured.out
    else:
        assert (out / "qp.svg").exists()


def test_subnormal_gap_exits_2_without_warnings(configs_dir, tmp_path, capsys):
    # 2 pi T/Delta overflows in the thermal quasiparticle term
    doc = _document(configs_dir, "device_1p.json")
    for segment, delta_k in zip(
        doc["gap_profile"]["segments"], (5e-324, 1e308, 5e-324)
    ):
        del segment["thickness_nm"]
        segment["delta_K"] = delta_k
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(doc))
    code = _run(["qp", path, "--t-points", "3", "--format", "json"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_config_exits_2(configs_dir, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = _run(["spectrum", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def _assert_clean_exit_2(code, capsys):
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    return captured.err


def _set(doc, path, value):
    *parents, key = path
    for part in parents:
        doc = doc[part]
    doc[key] = value


@pytest.mark.parametrize(
    "path, value",
    [
        (("transmon", "EJ_GHz"), math.nan),
        (("transmon", "EC_GHz"), math.inf),
        (("cavity", "g_MHz"), -math.inf),
        (("transmon", "EJ_GHz"), 10**400),
        (("scan", "pixel_seconds"), math.nan),
        (("scan", "snr"), math.nan),
        (("scan", "linewidth_MHz"), math.nan),
        (("noise", "gamma_parity_per_s"), math.inf),
        (("thickness_tc_table",), [[25.0, math.nan], [60.0, 1.2]]),
        (("thickness_tc_table",), [[25.0, "1.6"], [60.0, 1.2]]),
        (("thickness_tc_table",), [[25.0], [60.0, 1.2]]),
        (("qp_environment", "tau_anchors"), [[0.5, math.inf], [14.0, 1e-11]]),
        (("qp_environment", "tau_anchors"), 5),
        (("gap_profile", "segments", 0, "length_um"), math.inf),
        (("gap_profile", "segments"), 5),
        (("gap_profile", "segments", 0, "length_um"), "x"),
        (("gap_profile", "segments", 0, "thickness_nm"), "20"),
        (("measured", "T1_us"), 0),
        (("transmon", "EC_GHz"), 1e-300),
        (("transmon", "EJ_GHz"), 0),
    ],
)
@pytest.mark.parametrize(
    "argv", [["spectrum"], ["parity-sim", "--duration", "2", "--format", "json"]]
)
def test_non_finite_config_numbers_exit_2(
    configs_dir, tmp_path, capsys, path, value, argv
):
    doc = _document(configs_dir, "device_1np.json")
    doc.setdefault("scan", {})
    _set(doc, path, value)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))  # writes NaN and Infinity literals
    _assert_clean_exit_2(_run([argv[0], config, *argv[1:]]), capsys)


@pytest.mark.parametrize(
    "path, value",
    [
        (("transmon", "n_cut"), 40),
        (("noise", "base_rate_per_s"), 5.0),
        (("noise", "base_temperature_K"), 0.2),
    ],
)
def test_removed_config_keys_are_unknown_fields(
    configs_dir, tmp_path, capsys, path, value
):
    doc = _document(configs_dir, "device_1np.json")
    _set(doc, path, value)
    config = tmp_path / "removed.json"
    config.write_text(json.dumps(doc))
    err = _assert_clean_exit_2(_run(["spectrum", config]), capsys)
    assert f"{'.'.join(path)}: unknown field" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "CONFIG", "--svg"],
        ["qp", "CONFIG", "--svg"],
        ["parity-sim", "CONFIG", "--format", "json", "--svg"],
        ["fit", "t1", "DATA", "CONFIG", "--svg"],
    ],
)
def test_output_flags_needing_out_fail_before_any_work(
    configs_dir, data_dir, capsys, argv
):
    paths = {
        "CONFIG": configs_dir / "device_1np.json",
        "DATA": data_dir / "t1_vs_temperature_1np.csv",
    }
    code = _run([paths.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "requires --out" in captured.err
    assert captured.out == ""


def test_out_naming_a_file_exits_2(configs_dir, tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("")
    code = _run(["spectrum", configs_dir / "device_1np.json", "--out", target])
    assert "output directory" in _assert_clean_exit_2(code, capsys)


def test_unwritable_output_file_exits_2(configs_dir, tmp_path, capsys):
    (tmp_path / "spectrum.csv").mkdir()
    code = _run(["spectrum", configs_dir / "device_1np.json", "--out",
                 tmp_path])
    assert "error: cannot write output: [Errno 21]" in _assert_clean_exit_2(
        code, capsys)


# Runs the CLI in a fresh interpreter, as ``python -m qpgap.cli`` does
# ("module"), or as the installed ``qpgap`` script calls its
# "module:function" entry point, and writes the exit code,
# ``gc.isenabled()`` and ``gc.get_freeze_count()`` after it as the last
# line of stderr.
_ENTRY_PROBE = """
import gc, importlib, json, runpy, sys
target, args = sys.argv[1], json.loads(sys.argv[2])
sys.argv = ["qpgap", *args]
try:
    if target == "module":
        runpy.run_module("qpgap.cli", run_name="__main__")
    else:
        module, function = target.split(":")
        sys.exit(getattr(importlib.import_module(module), function)())
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print(json.dumps([code, gc.isenabled(), gc.get_freeze_count()]),
      file=sys.stderr)
"""


def _script_entry() -> str:
    """The ``module:function`` that pyproject's ``qpgap`` script calls."""
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    return re.search(r'^qpgap = "(.+)"$', pyproject.read_text(), re.M)[1]


def _entry_process(target, argv):
    result = subprocess.run(
        [sys.executable, "-c", _ENTRY_PROBE, target,
         json.dumps([str(a) for a in argv])],
        capture_output=True, text=True, timeout=120,
    )
    *errors, state = result.stderr.splitlines()
    return result.stdout, errors, json.loads(state)


@pytest.mark.parametrize("script", [False, True], ids=["module", "script"])
def test_process_entry_exits_with_the_collector_off_and_frozen(
    configs_dir, capsys, script
):
    argv = ["qp", configs_dir / "device_1p.json"]
    stdout, errors, (code, enabled, frozen) = _entry_process(
        _script_entry() if script else "module", argv
    )
    assert (code, enabled, errors) == (0, False, [])
    assert frozen > 0
    assert _run(argv) == 0
    assert stdout == capsys.readouterr().out


def test_process_entry_on_a_bad_config_exits_2_with_one_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    stdout, errors, (code, enabled, frozen) = _entry_process(
        "module", ["spectrum", path]
    )
    assert (code, enabled, stdout) == (2, False, "")
    assert frozen > 0
    assert len(errors) == 1 and errors[0].startswith("error: "), errors


def test_in_process_main_leaves_the_collector_alone(configs_dir, capsys):
    state = gc.isenabled(), gc.get_freeze_count()
    assert _run(["qp", configs_dir / "device_1p.json"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == state


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no /dev/full on this system")
def test_full_stdout_exits_2_with_one_error_line(configs_dir):
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "qpgap.cli", "spectrum",
             str(configs_dir / "device_1np.json")],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    assert result.returncode == 2
    assert result.stderr.startswith("error: cannot write output: ")
    assert result.stderr.count("\n") == 1, result.stderr


def test_unreadable_inputs_exit_2(configs_dir, data_dir, tmp_path, capsys):
    config = configs_dir / "device_1np.json"
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00")
    for argv in (
        ["fit", "t1", tmp_path / "absent.csv", config],
        ["fit", "t1", binary, config],
        ["spectrum", binary],
    ):
        assert "cannot read" in _assert_clean_exit_2(_run(argv), capsys)


def test_rate_too_large_to_square_exits_2(configs_dir, tmp_path, capsys):
    data = tmp_path / "rates.csv"
    data.write_text(
        "T_K,rate_per_s,sigma\n0.025,1e200,1\n0.05,2000,100\n0.1,3000,100\n"
    )
    code = _run(["fit", "t1", data, configs_dir / "device_1np.json"])
    assert "out of range in row 2" in _assert_clean_exit_2(code, capsys)


@pytest.mark.parametrize(
    "text, row",
    [
        ("T_K,value_us,sigma\n0.025,12,1\n0.05,1e-300,1\n0.1,11,1\n", 3),
        ("T_K,rate_per_s,sigma\n0.025,1e-200,1\n0.05,2000,100\n", 2),
    ],
    ids=["value_us", "rate_per_s"],
)
def test_overflowing_rates_exit_2(configs_dir, tmp_path, capsys, text, row):
    data = tmp_path / "rates.csv"
    data.write_text(text)
    code = _run(["fit", "t1", data, configs_dir / "device_1np.json"])
    assert f"out of range in row {row}" in _assert_clean_exit_2(code, capsys)


def test_negative_seed_exits_2(configs_dir, tmp_path, capsys):
    config = configs_dir / "device_1np.json"
    argv = ["parity-sim", config, "--duration", "2", "--format", "json"]
    _assert_clean_exit_2(_run([*argv, "--seed", "-1"]), capsys)
    doc = _document(configs_dir, "device_1np.json")
    doc["seed"] = -1
    negative = tmp_path / "negative_seed.json"
    negative.write_text(json.dumps(doc))
    _assert_clean_exit_2(_run([argv[0], negative, *argv[2:]]), capsys)


def test_degenerate_t2_fits_exit_2(configs_dir, data_dir, tmp_path, capsys):
    t1_data = data_dir / "t1_vs_temperature_1p.csv"
    t2_data = data_dir / "t2star_vs_temperature_1p.csv"
    # the T1 model fitted to t1_data gives T1 = 0 at 1e308 K
    lines = t2_data.read_text().splitlines()
    lines[-1] = "1e308," + lines[-1].split(",", 1)[1]
    far = tmp_path / "far.csv"
    far.write_text("\n".join(lines) + "\n")
    code = _run(["fit", "t2", far, configs_dir / "device_1p.json",
                 "--t1-data", t1_data])
    assert "T1 model" in _assert_clean_exit_2(code, capsys)
    # without a dispersive shift T2* carries no photon-number information
    doc = _document(configs_dir, "device_1p.json")
    doc["dephasing"]["chi_MHz"] = 0.0
    no_chi = tmp_path / "no_chi.json"
    no_chi.write_text(json.dumps(doc))
    code = _run(["fit", "t2", t2_data, no_chi])
    assert "photon number" in _assert_clean_exit_2(code, capsys)


def test_far_t1_point_exits_2_with_one_error_line(configs_dir, tmp_path):
    # t_b / t_a of the initial guess overflows for a point at 1e308 K; run
    # as a process, so a warning would reach stderr instead of raising
    data = tmp_path / "far.csv"
    data.write_text(
        "T_K,value_us,sigma\n0.03,50,1\n0.1,48,1\n0.2,30,1\n1e308,10,1\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "qpgap.cli", "fit", "t1", str(data),
         str(configs_dir / "device_1p.json")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1, result.stderr
    assert "fitted x_nqp = " in result.stderr
    assert "Tc = " in result.stderr


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_csv_values_exit_2(
    configs_dir, data_dir, tmp_path, capsys, column, bad
):
    lines = (data_dir / "t1_vs_temperature_1np.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[column] = bad
    lines[3] = ",".join(cells)
    data = tmp_path / "bad.csv"
    data.write_text("\n".join(lines) + "\n")
    code = _run(["fit", "t1", data, configs_dir / "device_1np.json"])
    assert "non-finite value in row 4" in _assert_clean_exit_2(code, capsys)


@pytest.mark.parametrize("duration", ["nan", "inf", "0"])
def test_bad_scan_duration_exits_2(configs_dir, capsys, duration):
    code = _run([
        "parity-sim", configs_dir / "device_1np.json", "--duration", duration,
        "--format", "json",
    ])
    _assert_clean_exit_2(code, capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ["parity-sim", "CONFIG", "--duration", "abc"],
        ["fit", "t3", "DATA", "CONFIG"],
        ["spectrum", "CONFIG", "--ng-points", "0"],
        ["spectrum", "CONFIG", "--ng-points", "-3"],
        ["qp", "CONFIG", "--t-points", "-1"],
        ["qp", "CONFIG", "--t-points", "0", "--svg", "--out", "OUT"],
        ["qp", "CONFIG", "--t-min", "nan"],
        ["qp", "CONFIG", "--t-max", "inf"],
        ["qp", "CONFIG", "--bogus"],
        ["spectrum", "CONFIG", "--ng-points", "100001"],
        ["qp", "CONFIG", "--t-points", "100001"],
    ],
)
def test_argument_errors_exit_2(configs_dir, data_dir, tmp_path, capsys, argv):
    paths = {
        "CONFIG": configs_dir / "device_1np.json",
        "DATA": data_dir / "t1_vs_temperature_1np.csv",
        "OUT": tmp_path / "out",
    }
    code = _run([paths.get(arg, arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "usage:" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["spectrum", "--ng-points", "1"], {"spectrum.csv": 3}),
        (["qp", "--t-points", "1"], {"qp_summary.csv": 22, "qp_grid.csv": 2}),
    ],
    ids=["spectrum", "qp"],
)
def test_one_point_grids_write_every_file(configs_dir, tmp_path, capsys,
                                          argv, lines):
    # the smallest grid each command accepts, plotted
    out = tmp_path / "out"
    command, *options = argv
    code = _run([command, configs_dir / "device_1np.json", *options,
                 "--svg", "--out", out])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert sorted(path.name for path in out.iterdir()) == sorted(
        [*lines, f"{command}.svg"])
    for name, count in lines.items():
        assert (out / name).read_text().count("\n") == count
    ElementTree.parse(out / f"{command}.svg")


def test_help_and_version_exit_0(capsys):
    for argv in (["--version"], ["qp", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("qpgap ")
    assert "--t-points" in out


# ---------------------------------------------------------- determinism


def _run_cli(argv, out_dir, threads: str):
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    result = subprocess.run(
        [sys.executable, "-m", "qpgap.cli", *map(str, argv),
         "--out", str(out_dir)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    return {
        path.name: path.read_bytes() for path in sorted(out_dir.iterdir())
    }


def test_outputs_identical_across_runs_and_threads(configs_dir, tmp_path):
    argv = [
        "parity-sim", configs_dir / "device_2np.json", "--duration", "2",
    ]
    first = _run_cli(argv, tmp_path / "a", "1")
    second = _run_cli(argv, tmp_path / "b", "1")
    threaded = _run_cli(argv, tmp_path / "c", "4")
    assert first == second
    assert first == threaded
    assert set(first) == {"peaks.csv", "scan.csv", "scan_meta.json"}


@pytest.mark.parametrize(
    "section, values, message",
    [
        ("scan", {"n_freq": MAX_SCAN_SAMPLES + 1}, "n_freq"),
        ("scan", {"pixel_seconds": 1.0 / (MAX_SCAN_SAMPLES // 161 + 1)},
         "samples"),
        ("noise", {"gamma_parity_per_s": MAX_EXPECTED_EVENTS + 1.0},
         "events"),
        ("noise", {"gamma_parity_per_s": 1.0,
                   "tls_rate_per_s": MAX_EXPECTED_EVENTS + 1.0}, "events"),
    ],
)
def test_work_past_the_limits_exits_2(configs_dir, tmp_path, capsys,
                                      section, values, message):
    # each input asks for just over one limit and is refused before any
    # allocation or arrival loop; the runs at 1 s stay small
    doc = _document(configs_dir, "device_1np.json")
    doc.setdefault(section, {}).update(values)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code = _run(["parity-sim", path, "--duration", "1", "--format", "json"])
    assert message in _assert_clean_exit_2(code, capsys)


def test_overflowing_pixel_count_exits_2(configs_dir, tmp_path, capsys):
    doc = _document(configs_dir, "device_1np.json")
    doc["scan"] = {"pixel_seconds": 1e-300}
    doc["noise"] = {"gamma_parity_per_s": 0.0, "tls_rate_per_s": 0.0}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    code = _run([
        "parity-sim", path, "--duration", "1e10", "--format", "json",
    ])
    assert "samples" in _assert_clean_exit_2(code, capsys)


def _float_csv_bytes(header, table):
    # the scan's form: the time column and the amplitudes apart
    return b"".join(format_blocks(header, [(table[:, 0], table[:, 1:])]))


def test_float_csv_matches_per_cell_formatting():
    rng = np.random.default_rng(3)
    cells = np.concatenate([
        rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64),
        rng.normal(scale=1e3, size=4000),
        [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
         2.2250738585072014e-308, 0.1, 1e16, 9999999999.5, 123456789012.0],
    ])
    table = cells.reshape(-1, 4)
    header = ["time_s", "f_a", "f_b", "f_c"]
    text = _float_csv_bytes(header, table)
    assert text == _csv_table(header, table.tolist()).encode()
    empty = np.empty((0, 4))
    assert _float_csv_bytes(header, empty) == _csv_table(header, []).encode()


def test_float_csv_matches_per_cell_formatting_below_one():
    # cells between 0.001 and 1 are formatted from arrays, not by Python:
    # random digits, short decimals, exact ties at the eleventh digit
    # (a / 2**11 in [0.1, 1) and so on) with their neighbours, the floats
    # nearest to such decimal ties, and the neighbours of the exponent
    # edges
    rng = np.random.default_rng(11)
    ties = np.concatenate([
        np.arange(205, 2048, 2) / 2.0**11,
        np.arange(41, 410, 2) / 2.0**12,
        np.arange(9, 82, 2) / 2.0**13,
    ])
    edges = np.array([1e-4, 1e-3, 1e-2, 0.1, 1.0])
    cells = np.concatenate([
        rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-4.2, 0.2, 20000),
        *[np.round(rng.uniform(-1.0, 1.0, 1000), d) for d in range(1, 14)],
        rng.integers(10**9, 10**10, 4000) / 10.0 ** rng.integers(10, 13, 4000),
        (rng.integers(10**9, 10**10, 20000) + 0.5)
        / 10.0 ** rng.integers(10, 13, 20000),
        ties, np.nextafter(ties, 0.0), np.nextafter(ties, 1.0), -ties,
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
        edges * (1 - 5e-11), edges * 0.99999999995, -edges,
    ])
    cells = cells[: len(cells) // 7 * 7]
    table = cells.reshape(-1, 7)
    header = [f"c{i}" for i in range(7)]
    text = _float_csv_bytes(header, table)
    assert text == _csv_table(header, table.tolist()).encode()


def test_float_csv_is_written_in_row_blocks():
    header = ["time_s", "f_a", "f_b"]
    table = np.arange(600 * 3, dtype=float).reshape(600, 3) / 7.0
    chunks = list(format_blocks(header, [(table[:, 0], table[:, 1:])]))
    # the header, then blocks of 32 rows
    assert [chunk.count(b"\n") for chunk in chunks] == [1, *[32] * 18, 24]
    assert b"".join(chunks) == _csv_table(header, table.tolist()).encode()


def test_float_csv_joins_blocks_of_any_height():
    # the work arrays are sized to the first block, and made again for a
    # taller one
    header = ["time_s", "f_a", "f_b"]
    table = np.arange(300 * 3, dtype=float).reshape(300, 3) / -7.0
    blocks = [(table[a:b, 0], table[a:b, 1:])
              for a, b in ((0, 10), (10, 250), (250, 300))]
    chunks = list(format_blocks(header, blocks))
    assert [chunk.count(b"\n") for chunk in chunks] == [
        1, 10, *[32] * 7, 16, 32, 18,
    ]
    assert b"".join(chunks) == _csv_table(header, table.tolist()).encode()
