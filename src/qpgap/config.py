"""Device configuration documents: schema, validation, and loading.

A device config is a JSON document (schema_version 1) bundling the
transmon, its readout cavity, the electrode gap profile, the
quasiparticle environment, and noise/scan settings.  Section-level
validation reports the first line of the offending key in the source
text so errors point somewhere useful.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from ._record import Record
from .errors import ConfigError, DomainError, GeometryError, QpgapError
from .noise import DEFAULT_PIXEL_SECONDS, MAX_SCAN_SAMPLES, NoiseModel
from .quasiparticles import (
    GapProfile,
    QPEnvironment,
    StackSegment,
    ThicknessTcTable,
    parity_rate_model,
)
from .transmon import CavityCoupling, FrequencyTargets, TransmonParams, fit_ej_ec

SCHEMA_VERSION = 1


class ScanSettings(Record):
    """Scan synthesis settings carried by a device config."""

    __slots__ = ("linewidth_mhz", "snr", "pixel_seconds", "n_freq",
                 "pad_linewidths")
    _defaults = {
        "linewidth_mhz": 1.0, "snr": 20.0,
        "pixel_seconds": DEFAULT_PIXEL_SECONDS, "n_freq": 161,
        "pad_linewidths": 5.0,
    }


class DeviceConfig(Record):
    """Validated device description ready for the physics modules.

    ``measured`` defaults to a new empty dict.
    """

    __slots__ = (
        "name", "params", "cavity", "profile", "env", "noise", "scan", "seed",
        "chi_override_mhz", "kappa_override_mhz", "measured", "source_hash",
        "gamma_parity_computed",
    )

    def __init__(
        self,
        name: str,
        params: TransmonParams,
        cavity: CavityCoupling,
        profile: GapProfile,
        env: QPEnvironment,
        noise: NoiseModel,
        scan: ScanSettings,
        seed: int,
        chi_override_mhz: float | None = None,
        kappa_override_mhz: float | None = None,
        measured: dict | None = None,
        source_hash: str = "",
        gamma_parity_computed: bool = False,
    ):
        self._assign(
            name, params, cavity, profile, env, noise, scan, seed,
            chi_override_mhz, kappa_override_mhz,
            {} if measured is None else measured, source_hash,
            gamma_parity_computed,
        )


def config_hash(document: dict) -> str:
    """Stable hash of a parsed config document."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _source_lines(text: str) -> dict:
    """The line of every key and list element of the JSON ``text``.

    Keys are found by their path, a tuple of keys and list indices, so a
    key that many objects repeat gets the line of its own object.  A
    key's line is the one its name is on, an element's the one it starts
    on.  Only error paths read this; ``text`` that is not JSON keeps the
    lines read before the fault.
    """
    lines = {}
    scan = json.JSONDecoder().scan_once
    mark = [0, 1]  # a position and its line; the positions read only grow

    def line(pos: int) -> int:
        mark[1] += text.count("\n", mark[0], pos)
        mark[0] = pos
        return mark[1]

    def skip(pos: int) -> int:
        return json.decoder.WHITESPACE.match(text, pos).end()

    def value(pos: int, path: tuple) -> int:
        """Read the value at ``pos``; return the position past it."""
        pos = skip(pos)
        close = {"{": "}", "[": "]"}.get(text[pos])
        if close is None:
            return scan(text, pos)[1]
        pos = skip(pos + 1)
        index = 0
        while text[pos] != close:
            if close == "}":
                key, pos = json.decoder.scanstring(text, pos + 1)
                lines[path + (key,)] = line(pos)
                pos = value(skip(pos) + 1, path + (key,))
            else:
                lines[path + (index,)] = line(pos)
                pos = value(pos, path + (index,))
            index += 1
            pos = skip(pos)
            if text[pos] == ",":
                pos = skip(pos + 1)
        return pos + 1

    try:
        value(0, ())
    except (IndexError, ValueError, StopIteration, RecursionError):
        pass
    return lines


def _line_of(text: str, path: tuple) -> int | None:
    return _source_lines(text).get(path)


def _where(path: tuple) -> str:
    """``path`` as errors name it: ``gap_profile.segments[2]``."""
    name = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    return name[1:] or "config"


def _finite(value, where: str) -> float:
    """``value`` as a finite float; anything else is a ConfigError.

    JSON admits ``NaN`` and ``Infinity``, and integers too large for a
    float, so every number read from a config passes through here.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {number}")
    return number


def _positive(value, where: str) -> float:
    """``value`` as a finite float greater than zero."""
    number = _finite(value, where)
    if number <= 0:
        raise ConfigError(f"{where}: must be positive, got {number}")
    return number


def _number_pairs(raw, where: str) -> tuple[tuple[float, float], ...]:
    """A JSON list of [a, b] number pairs as a tuple of finite float pairs."""
    if not isinstance(raw, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in raw
    ):
        raise ConfigError(f"{where} must be a list of [number, number] pairs")
    return tuple(
        (_finite(a, f"{where}[{i}]"), _finite(b, f"{where}[{i}]"))
        for i, (a, b) in enumerate(raw)
    )


def _integer(value, where: str) -> int:
    """``value`` as an int; a bool, float or string is a ConfigError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _scan_width(value, where: str) -> int:
    """``value`` as a frequency count from 3 to ``MAX_SCAN_SAMPLES``."""
    number = _integer(value, where)
    if not 3 <= number <= MAX_SCAN_SAMPLES:
        raise ConfigError(
            f"{where}: must be from 3 to {MAX_SCAN_SAMPLES}, got {number}"
        )
    return number


def _name(value, where: str) -> str:
    """``value`` as a non-empty string."""
    if not isinstance(value, str) or not value:
        raise ConfigError(
            f"{where}: expected a non-empty string, got {value!r}"
        )
    return value


def _schema_version(value, where: str) -> int:
    """``value`` if it equals the supported schema version."""
    if value != SCHEMA_VERSION:
        raise ConfigError(f"{where} must be {SCHEMA_VERSION}, got {value!r}")
    return value


def _objects(raw, where: str) -> list:
    """A JSON list of objects, each read later by its own table."""
    if not isinstance(raw, list) or not all(isinstance(x, dict) for x in raw):
        raise ConfigError(f"{where} must be a list of objects")
    return raw


def _section(value, where: str):
    """A section, read later by its own table."""
    return value


# One table per section: (JSON key, constructor keyword, converter,
# required).  An omitted or null optional key is left out, so the
# constructor's own default applies.  The document's own table keeps
# each section as it is, for the section's table to read.
_DOCUMENT = (
    ("schema_version", "schema_version", _schema_version, True),
    ("name", "name", _name, True),
    ("transmon", "transmon", _section, True),
    ("cavity", "cavity", _section, True),
    ("gap_profile", "gap_profile", _section, True),
    ("thickness_tc_table", "thickness_tc_table", _number_pairs, False),
    ("qp_environment", "qp_environment", _section, False),
    ("noise", "noise", _section, False),
    ("scan", "scan", _section, False),
    ("dephasing", "dephasing", _section, False),
    ("measured", "measured", _section, False),
    ("seed", "seed", _integer, False),
)
_TRANSMON_NG = (("ng", "ng", _finite, False),)
_TRANSMON = (
    # TransmonParams takes EJ = 0 (the charging limit); a device does not
    ("EJ_GHz", "EJ", _positive, True),
    ("EC_GHz", "EC", _finite, True),
) + _TRANSMON_NG
_TARGETS = (
    ("f_ge_ng0_GHz", "f_ge_ng0", _finite, True),
    ("f_ge_ng05_GHz", "f_ge_ng05", _finite, False),
    ("f_ef_GHz", "f_ef", _finite, False),
)
_CAVITY = (
    ("g_MHz", "g_mhz", _finite, True),
    ("nu_r_GHz", "nu_r_ghz", _finite, True),
    ("Q_loaded", "q_loaded", _finite, True),
)
_GAP_PROFILE = (
    ("segments", "segments", _objects, True),
    ("junction_um", "junction_um", _finite, True),
)
_SEGMENT = (
    ("length_um", "length_um", _positive, True),
    ("thickness_nm", "thickness_nm", _positive, False),
    ("delta_K", "delta_k", _positive, False),
)
_QP_ENVIRONMENT = (
    ("x_nqp", "x_nqp", _finite, False),
    ("diffusion_m2_per_s", "diffusion_m2_per_s", _finite, False),
    ("tau_anchors", "tau_anchors", _number_pairs, False),
    ("xi_um", "xi_um", _finite, False),
    ("nu0_per_eV_um3", "nu0_per_ev_um3", _finite, False),
    ("T_qp_K", "t_qp_kelvin", _finite, False),
)
_NOISE = (
    ("gamma_parity_per_s", "gamma_parity_per_s", _finite, False),
    ("tls_rate_per_s", "tls_rate_per_s", _finite, False),
)
_SCAN = (
    ("linewidth_MHz", "linewidth_mhz", _positive, False),
    ("snr", "snr", _positive, False),
    ("pixel_seconds", "pixel_seconds", _positive, False),
    ("n_freq", "n_freq", _scan_width, False),
    ("pad_linewidths", "pad_linewidths", _finite, False),
)
_DEPHASING = (
    ("chi_MHz", "chi_override_mhz", _finite, False),
    ("kappa_MHz", "kappa_override_mhz", _finite, False),
)
_MEASURED = tuple(
    (key, key, _positive, False)
    for key in ("T1_us", "T2star_us", "T2echo_us")
)


def _fields(data, path: tuple, text: str, table) -> dict:
    """Constructor keywords read from the section at ``path`` by ``table``.

    Errors name the field and the source line of its key, or of the
    section when the key is missing.
    """
    name = _where(path)

    def line(key: str | None = None) -> int | None:
        lines = _source_lines(text)
        return lines.get(path + (key,)) or lines.get(path)

    if not isinstance(data, dict):
        raise ConfigError(f"section {name!r} must be an object", line())
    unknown = sorted(set(data) - {key for key, *_ in table})
    if unknown:
        key = unknown[0]
        raise ConfigError(f"{name}.{key}: unknown field", line(key))
    values = {}
    for key, keyword, convert, required in table:
        if data.get(key) is None:
            if required:
                raise ConfigError(
                    f"{name}.{key}: missing required field", line(key)
                )
            continue
        try:
            values[keyword] = convert(data[key], f"{name}.{key}")
        except ConfigError as exc:
            raise ConfigError(str(exc), line(key)) from None
    return values


def _record(build, key: str, text: str, **fields):
    """``build(**fields)``; its own checks name section ``key`` and its line."""
    try:
        return build(**fields)
    except (DomainError, GeometryError) as exc:
        raise ConfigError(f"{key}: {exc}", _line_of(text, (key,))) from exc


def _resolve_transmon(data, text: str) -> TransmonParams:
    if not isinstance(data, dict) or "targets" not in data:
        fields = _fields(data, ("transmon",), text, _TRANSMON)
        return _record(TransmonParams, "transmon", text, **fields)
    if "EJ_GHz" in data or "EC_GHz" in data:
        raise ConfigError(
            "transmon: provide exactly one of (EJ_GHz, EC_GHz) or targets",
            _line_of(text, ("transmon",)),
        )
    rest = {key: value for key, value in data.items() if key != "targets"}
    ng = _fields(rest, ("transmon",), text, _TRANSMON_NG)
    targets = _fields(data["targets"], ("transmon", "targets"), text, _TARGETS)
    targets = _record(FrequencyTargets, "transmon", text, **targets)
    fitted = _record(fit_ej_ec, "transmon", text, targets=targets)
    return _record(TransmonParams, "transmon", text,
                   EJ=fitted.EJ, EC=fitted.EC, **ng)


def _resolve_profile(
    data, text: str, tc_table: ThicknessTcTable | None
) -> GapProfile:
    path = ("gap_profile",)
    profile = _fields(data, path, text, _GAP_PROFILE)
    segments = []
    for i, raw in enumerate(profile["segments"]):
        fields = _fields(raw, path + ("segments", i), text, _SEGMENT)
        segment = _record(StackSegment, "gap_profile", text, **fields)
        segments.append(segment.resolve(tc_table))
    return _record(GapProfile, "gap_profile", text, segments=tuple(segments),
                   junction_um=profile["junction_um"])


def load_device_document(document: dict, text: str = "") -> DeviceConfig:
    """Validate a parsed config document into a :class:`DeviceConfig`."""
    top = _fields(document, (), text, _DOCUMENT)

    def section(key: str, table) -> dict:
        return _fields(top.get(key, {}), (key,), text, table)

    params = _resolve_transmon(top["transmon"], text)
    cavity = _record(CavityCoupling, "cavity", text,
                     **section("cavity", _CAVITY))
    tc_table = None
    if "thickness_tc_table" in top:
        tc_table = _record(ThicknessTcTable, "thickness_tc_table", text,
                           anchors=top["thickness_tc_table"])
    profile = _resolve_profile(top["gap_profile"], text, tc_table)

    env = _record(QPEnvironment, "qp_environment", text,
                  **section("qp_environment", _QP_ENVIRONMENT))
    noise = section("noise", _NOISE)
    computed = "gamma_parity_per_s" not in noise
    if computed:
        noise["gamma_parity_per_s"] = parity_rate_model(profile, env)

    return DeviceConfig(
        name=top["name"],
        params=params,
        cavity=cavity,
        profile=profile,
        env=env,
        noise=_record(NoiseModel, "noise", text, **noise),
        scan=_record(ScanSettings, "scan", text, **section("scan", _SCAN)),
        seed=top.get("seed", 0),
        measured=section("measured", _MEASURED),
        source_hash=config_hash(document),
        gamma_parity_computed=computed,
        **section("dephasing", _DEPHASING),
    )


def load_device_config(path: str | Path) -> DeviceConfig:
    """Load and validate a device config file.

    JSON syntax errors and schema violations raise :class:`ConfigError`
    with a line number when one is known.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc.msg}", exc.lineno) from exc
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None
    try:
        return load_device_document(document, text)
    except ConfigError:
        raise
    except QpgapError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
