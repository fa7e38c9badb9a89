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
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, GeometryError, QpgapError
from .parity import (
    DEFAULT_PIXEL_SECONDS,
    DEFAULT_TLS_RATE,
    NoiseModel,
)
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


@dataclass(frozen=True)
class ScanSettings:
    """Scan synthesis settings carried by a device config."""

    linewidth_mhz: float = 1.0
    snr: float = 20.0
    pixel_seconds: float = DEFAULT_PIXEL_SECONDS
    n_freq: int = 161
    pad_linewidths: float = 5.0


@dataclass(frozen=True)
class DeviceConfig:
    """Validated device description ready for the physics modules."""

    name: str
    params: TransmonParams
    cavity: CavityCoupling
    profile: GapProfile
    env: QPEnvironment
    noise: NoiseModel
    scan: ScanSettings
    seed: int
    chi_override_mhz: float | None = None
    kappa_override_mhz: float | None = None
    measured: dict = field(default_factory=dict)
    source_hash: str = ""
    gamma_parity_computed: bool = False


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


class _Section:
    """Typed accessor for one JSON object with line-aware errors."""

    def __init__(self, data: dict, name: str, text: str):
        if not isinstance(data, dict):
            raise ConfigError(
                f"section {name!r} must be an object", _line_of(text, name)
            )
        self.data = data
        self.name = name
        self.text = text

    def _line(self, key: str) -> int | None:
        return _line_of(self.text, key) or _line_of(self.text, self.name)

    def _fail(self, key: str, message: str):
        raise ConfigError(f"{self.name}.{key}: {message}", self._line(key))

    def require(self, key: str, kind=float):
        if key not in self.data:
            self._fail(key, "missing required field")
        return self.convert(key, kind)

    def optional(self, key: str, default, kind=float):
        if key not in self.data or self.data[key] is None:
            return default
        return self.convert(key, kind)

    def convert(self, key: str, kind):
        value = self.data[key]
        if kind is float:
            return _finite(value, f"{self.name}.{key}", self._line(key))
        if kind is int:
            if not isinstance(value, int) or isinstance(value, bool):
                self._fail(key, f"expected an integer, got {value!r}")
            return value
        if kind is str:
            if not isinstance(value, str):
                self._fail(key, f"expected a string, got {value!r}")
            return value
        return value

    def reject_unknown(self, allowed: set[str]):
        unknown = set(self.data) - allowed
        if unknown:
            key = sorted(unknown)[0]
            self._fail(key, "unknown field")


def _resolve_transmon(section: _Section) -> TransmonParams:
    has_energies = "EJ_GHz" in section.data or "EC_GHz" in section.data
    has_targets = "targets" in section.data
    if has_energies == has_targets:
        line = _line_of(section.text, "transmon")
        raise ConfigError(
            "transmon: provide exactly one of (EJ_GHz, EC_GHz) or targets",
            line,
        )
    ng = section.optional("ng", 0.0)
    n_cut = section.optional("n_cut", 0, kind=int)
    if has_energies:
        section.reject_unknown({"EJ_GHz", "EC_GHz", "ng", "n_cut"})
        ej = section.require("EJ_GHz")
        ec = section.require("EC_GHz")
        return TransmonParams(EJ=ej, EC=ec, ng=ng, n_cut=n_cut)
    section.reject_unknown({"targets", "ng", "n_cut"})
    targets = _Section(section.data["targets"], "transmon.targets", section.text)
    targets.reject_unknown({"f_ge_ng0_GHz", "f_ge_ng05_GHz", "f_ef_GHz"})
    fitted = fit_ej_ec(
        FrequencyTargets(
            f_ge_ng0=targets.require("f_ge_ng0_GHz"),
            f_ge_ng05=targets.optional("f_ge_ng05_GHz", None),
            f_ef=targets.optional("f_ef_GHz", None),
        )
    )
    return TransmonParams(EJ=fitted.EJ, EC=fitted.EC, ng=ng, n_cut=n_cut)


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

    try:
        params = _resolve_transmon(_Section(document["transmon"], "transmon", text))

        cavity_section = _Section(document["cavity"], "cavity", text)
        cavity_section.reject_unknown({"g_MHz", "nu_r_GHz", "Q_loaded"})
        cavity = CavityCoupling(
            g_mhz=cavity_section.require("g_MHz"),
            nu_r_ghz=cavity_section.require("nu_r_GHz"),
            q_loaded=cavity_section.require("Q_loaded"),
        )

        table = None
        if "thickness_tc_table" in document:
            table = ThicknessTcTable(
                anchors=_number_pairs(
                    document["thickness_tc_table"],
                    "thickness_tc_table",
                    _line_of(text, "thickness_tc_table"),
                )
            )
        profile = profile_from_document(document["gap_profile"], table)

        env_data = document.get("qp_environment", {})
        env_section = _Section(env_data, "qp_environment", text)
        env_section.reject_unknown(
            {
                "x_nqp",
                "diffusion_m2_per_s",
                "tau_anchors",
                "xi_um",
                "nu0_per_eV_um3",
                "T_qp_K",
            }
        )
        defaults = QPEnvironment()
        anchors = defaults.tau_anchors
        if "tau_anchors" in env_data:
            anchors = _number_pairs(
                env_data["tau_anchors"],
                "qp_environment.tau_anchors",
                _line_of(text, "tau_anchors"),
            )
        env = QPEnvironment(
            x_nqp=env_section.optional("x_nqp", defaults.x_nqp),
            diffusion_m2_per_s=env_section.optional(
                "diffusion_m2_per_s", defaults.diffusion_m2_per_s
            ),
            tau_anchors=anchors,
            xi_um=env_section.optional("xi_um", defaults.xi_um),
            nu0_per_ev_um3=env_section.optional(
                "nu0_per_eV_um3", defaults.nu0_per_ev_um3
            ),
            t_qp_kelvin=env_section.optional("T_qp_K", defaults.t_qp_kelvin),
        )

        noise_data = document.get("noise", {})
        noise_section = _Section(noise_data, "noise", text)
        noise_section.reject_unknown(
            {"gamma_parity_per_s", "tls_rate_per_s", "base_rate_per_s",
             "base_temperature_K"}
        )
        gamma = noise_section.optional("gamma_parity_per_s", None)
        computed = gamma is None
        if computed:
            gamma = parity_rate_model(
                profile,
                env,
                t_kelvin=noise_section.optional("base_temperature_K", 0.025),
                base_rate_per_s=noise_section.optional("base_rate_per_s", 1.0e3),
            )
        noise = NoiseModel(
            gamma_parity_per_s=gamma,
            tls_rate_per_s=noise_section.optional(
                "tls_rate_per_s", DEFAULT_TLS_RATE
            ),
        )

        scan_data = document.get("scan", {})
        scan_section = _Section(scan_data, "scan", text)
        scan_section.reject_unknown(
            {
                "linewidth_MHz",
                "snr",
                "pixel_seconds",
                "n_freq",
                "pad_linewidths",
            }
        )
        scan_defaults = ScanSettings()
        scan = ScanSettings(
            linewidth_mhz=scan_section.optional(
                "linewidth_MHz", scan_defaults.linewidth_mhz
            ),
            snr=scan_section.optional("snr", scan_defaults.snr),
            pixel_seconds=scan_section.optional(
                "pixel_seconds", scan_defaults.pixel_seconds
            ),
            n_freq=scan_section.optional("n_freq", scan_defaults.n_freq, kind=int),
            pad_linewidths=scan_section.optional(
                "pad_linewidths", scan_defaults.pad_linewidths
            ),
        )

        chi_override = None
        kappa_override = None
        if "dephasing" in document:
            dephasing = _Section(document["dephasing"], "dephasing", text)
            dephasing.reject_unknown({"chi_MHz", "kappa_MHz"})
            chi_override = dephasing.optional("chi_MHz", None)
            kappa_override = dephasing.optional("kappa_MHz", None)

        measured = {}
        if "measured" in document:
            measured_section = _Section(document["measured"], "measured", text)
            measured_section.reject_unknown(
                {"T1_us", "T2star_us", "T2echo_us"}
            )
            for key in ("T1_us", "T2star_us", "T2echo_us"):
                value = measured_section.optional(key, None)
                if value is not None:
                    measured[key] = value

        seed = 0
        if "seed" in document:
            root = _Section(document, "config", text)
            seed = root.convert("seed", int)
    except (GeometryError,) as exc:
        raise ConfigError(
            f"gap_profile: {exc}", _line_of(text, "gap_profile")
        ) from exc

    return DeviceConfig(
        name=name,
        params=params,
        cavity=cavity,
        profile=profile,
        env=env,
        noise=noise,
        scan=scan,
        seed=seed,
        chi_override_mhz=chi_override,
        kappa_override_mhz=kappa_override,
        measured=measured,
        source_hash=config_hash(document),
        gamma_parity_computed=computed,
    )


def load_device_config(path: str | Path) -> DeviceConfig:
    """Load and validate a device config file.

    JSON syntax errors and schema violations raise :class:`ConfigError`
    with a line number when one is known.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
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
