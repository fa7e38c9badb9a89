"""Simulation and fitting toolkit for gap-engineered transmon qubits.

The package covers the loop from device design to measurement analysis:
charge-basis transmon spectra and their offset-charge dependence,
quasiparticle densities and decay rates under engineered gap profiles,
synthetic parity-switching spectroscopy, and temperature-dependent
coherence fits.

Importing the package loads none of its modules: each name of
``__all__``, and each submodule, is imported on first access (PEP 562),
so a command pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it provides
_EXPORTS = {
    "errors": (
        "BracketError", "ConfigError", "ConvergenceError", "CoverageError",
        "DomainError", "GeometryError", "NearResonanceError", "QpgapError",
        "RankDeficiencyError", "UnderdeterminedError",
    ),
    "units": (
        "CONSTANTS", "Constants", "delta_from_tc", "kelvin_to_ev",
        "kelvin_to_ghz",
    ),
    "device": (
        "CavityCoupling", "FrequencyTargets", "GapProfile", "GapSegment",
        "NoiseModel", "QPEnvironment", "StackSegment", "ThicknessTcTable",
        "TransmonParams", "tc_from_thickness",
    ),
    "thermal": (
        "bose_occupation", "crossover_temperature",
        "temperature_from_occupation", "temperature_from_population",
        "thermal_crossover", "thermal_qp_fraction", "thermal_qp_term",
    ),
    "transmon": (
        "Spectrum", "charge_dispersion", "chi_shift", "dispersive_shift",
        "eigenspectrum", "fit_ej_ec", "resonator_dispersion",
        "transition_frequency",
    ),
    "quasiparticles": (
        "GeometryVerdict", "SideVerdict", "above_barrier_fraction",
        "barrier_adequate", "delta_ev_from_tc", "diffusion_length",
        "nqp_decay_rate", "parity_rate_model", "tau_eps", "trap_adequate",
        "volume_density", "x_qp_from_rate",
    ),
    "parity": (
        "ChargeTrace", "LifetimeEstimate", "ParityTrace", "ScanConfig",
        "SpectroscopyScan", "estimate_parity_lifetime", "scan_window", "simulate_offset_charge",
        "simulate_parity", "synthesize_scan",
    ),
    "fitting": (
        "DataSeries", "FitResult", "LMResult", "ThermometryResult",
        "dataseries_from_csv", "fit_t1_vs_temperature",
        "fit_t2_vs_temperature", "least_squares", "pure_dephasing_from_echo",
        "resonator_thermometry", "shot_noise_dephasing", "t1_rate_model",
        "t2_rate_model",
    ),
    "config": (
        "DeviceConfig", "ScanSettings", "config_hash", "load_device_config",
        "load_device_document",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "datasets", "numerics", "svgplot"}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
