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
from .errors import ConfigError, GeometryError, QpgapError
from .noise import DEFAULT_PIXEL_SECONDS, NoiseModel
from .quasiparticles import (
    GapProfile,
    QPEnvironment,
    ThicknessTcTable,
    parity_rate_model,
    profile_from_document,
)
from .transmon import CavityCoupling, FrequencyTargets, TransmonParams, fit_ej_ec

SCHEMA_VERSION = 1

_TOP_LEVEL_KEYS = {
    "schema_version",
    "name",
    "transmon",
    "cavity",
    "gap_profile",
    "thickness_tc_table",
    "qp_environment",
    "noise",
    "scan",
    "dephasing",
    "measured",
    "seed",
}


class ScanSettings(Record):
    """Scan synthesis settings carried by a device config."""

    __slots__ = ("linewidth_mhz", "snr", "pixel_seconds", "n_freq",
                 "pad_linewidths")

    def __init__(
        self,
        linewidth_mhz: float = 1.0,
        snr: float = 20.0,
        pixel_seconds: float = DEFAULT_PIXEL_SECONDS,
        n_freq: int = 161,
        pad_linewidths: float = 5.0,
    ):
        self._assign(linewidth_mhz, snr, pixel_seconds, n_freq, pad_linewidths)


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


def _line_of(text: str, key: str) -> int | None:
    needle = f'"{key}"'
    for number, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return number
    return None


def _finite(value, where: str, line: int | None) -> float:
    """``value`` as a finite float; anything else is a ConfigError.

    JSON admits ``NaN`` and ``Infinity``, and integers too large for a
    float, so every number read from a config passes through here.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got {value!r}", line)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(
            f"{where}: expected a finite number, got {number}", line
        )
    return number


def _positive(value, where: str, line: int | None) -> float:
    """``value`` as a finite float greater than zero."""
    number = _finite(value, where, line)
    if number <= 0:
        raise ConfigError(f"{where}: must be positive, got {number}", line)
    return number


def _number_pairs(
    raw, where: str, line: int | None
) -> tuple[tuple[float, float], ...]:
    """A JSON list of [a, b] number pairs as a tuple of finite float pairs."""
    if not isinstance(raw, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in raw
    ):
        raise ConfigError(
            f"{where} must be a list of [number, number] pairs", line
        )
    return tuple(
        (_finite(a, f"{where}[{i}]", line), _finite(b, f"{where}[{i}]", line))
        for i, (a, b) in enumerate(raw)
    )


def _integer(value, where: str, line: int | None) -> int:
    """``value`` as an int; a bool, float or string is a ConfigError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected an integer, got {value!r}", line)
    return value


# One table per section: (JSON key, constructor keyword, converter,
# required).  An omitted or null optional key is left out, so the
# constructor's own default applies.
_TRANSMON_NG = (("ng", "ng", _finite, False),)
_TRANSMON = (
    ("EJ_GHz", "EJ", _finite, True),
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
    ("linewidth_MHz", "linewidth_mhz", _finite, False),
    ("snr", "snr", _finite, False),
    ("pixel_seconds", "pixel_seconds", _finite, False),
    ("n_freq", "n_freq", _integer, False),
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


def _fields(data, name: str, text: str, table) -> dict:
    """Constructor keywords read from section ``name`` by its ``table``.

    Errors name the field and the first source line mentioning it.
    """

    def line(key: str) -> int | None:
        return _line_of(text, key) or _line_of(text, name)

    if not isinstance(data, dict):
        raise ConfigError(f"section {name!r} must be an object", line(name))
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
        values[keyword] = convert(data[key], f"{name}.{key}", line(key))
    return values


def _resolve_transmon(data, text: str) -> TransmonParams:
    if not isinstance(data, dict) or "targets" not in data:
        return TransmonParams(**_fields(data, "transmon", text, _TRANSMON))
    if "EJ_GHz" in data or "EC_GHz" in data:
        raise ConfigError(
            "transmon: provide exactly one of (EJ_GHz, EC_GHz) or targets",
            _line_of(text, "transmon"),
        )
    rest = {key: value for key, value in data.items() if key != "targets"}
    ng = _fields(rest, "transmon", text, _TRANSMON_NG)
    targets = _fields(data["targets"], "transmon.targets", text, _TARGETS)
    fitted = fit_ej_ec(FrequencyTargets(**targets))
    return TransmonParams(EJ=fitted.EJ, EC=fitted.EC, **ng)


def load_device_document(document: dict, text: str = "") -> DeviceConfig:
    """Validate a parsed config document into a :class:`DeviceConfig`."""
    if not isinstance(document, dict):
        raise ConfigError("config root must be an object")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}",
            _line_of(text, "schema_version"),
        )
    unknown = set(document) - _TOP_LEVEL_KEYS
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown top-level key {key!r}", _line_of(text, key))
    for required in ("name", "transmon", "cavity", "gap_profile"):
        if required not in document:
            raise ConfigError(f"missing required section {required!r}")
    name = document["name"]
    if not isinstance(name, str) or not name:
        raise ConfigError("name must be a non-empty string", _line_of(text, "name"))

    def section(key: str, table) -> dict:
        return _fields(document.get(key, {}), key, text, table)

    params = _resolve_transmon(document["transmon"], text)
    cavity = CavityCoupling(**section("cavity", _CAVITY))

    table = None
    if "thickness_tc_table" in document:
        table = ThicknessTcTable(
            anchors=_number_pairs(
                document["thickness_tc_table"],
                "thickness_tc_table",
                _line_of(text, "thickness_tc_table"),
            )
        )
    try:
        profile = profile_from_document(document["gap_profile"], table)
    except GeometryError as exc:
        raise ConfigError(
            f"gap_profile: {exc}", _line_of(text, "gap_profile")
        ) from exc

    env = QPEnvironment(**section("qp_environment", _QP_ENVIRONMENT))
    noise = section("noise", _NOISE)
    computed = "gamma_parity_per_s" not in noise
    if computed:
        noise["gamma_parity_per_s"] = parity_rate_model(profile, env)
    scan = ScanSettings(**section("scan", _SCAN))
    seed = _integer(
        document.get("seed", 0), "config.seed", _line_of(text, "seed")
    )

    return DeviceConfig(
        name=name,
        params=params,
        cavity=cavity,
        profile=profile,
        env=env,
        noise=NoiseModel(**noise),
        scan=scan,
        seed=seed,
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
    try:
        return load_device_document(document, text)
    except ConfigError:
        raise
    except QpgapError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
