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
        "CONSTANTS", "Constants", "EnergyValue", "ev_to_ghz", "ev_to_kelvin",
        "ghz_to_ev", "ghz_to_kelvin", "kelvin_to_ev", "kelvin_to_ghz",
    ),
    "numerics": ("LMResult", "least_squares"),
    "thermal": (
        "bcs_dos", "bose_occupation", "delta_from_tc",
        "temperature_from_occupation", "temperature_from_population",
        "thermal_qp_term", "two_level_population",
    ),
    "transmon": (
        "CavityCoupling", "FrequencyTargets", "Spectrum", "TransmonParams",
        "build_hamiltonian", "charge_dispersion", "charge_matrix_elements",
        "chi_shift", "dispersive_shift", "eigenspectrum",
        "ej_from_normal_resistance", "fit_ej_ec", "normal_resistance_from_ej",
        "parity_frequencies", "parity_splitting", "resonator_dispersion",
        "transition_frequency",
    ),
    "quasiparticles": (
        "GapProfile", "GapSegment", "GeometryVerdict", "QPEnvironment",
        "SideVerdict", "StackSegment", "ThicknessTcTable",
        "above_barrier_fraction", "barrier_adequate", "crossover_temperature",
        "delta_ev_from_tc", "diffusion_length", "nqp_decay_rate",
        "parity_rate_model", "profile_from_stack", "tau_eps",
        "tc_from_thickness", "thermal_crossover", "thermal_qp_fraction",
        "trap_adequate", "volume_density", "x_qp_from_density",
        "x_qp_from_rate",
    ),
    "parity": (
        "ChargeTrace", "LifetimeEstimate", "ParityTrace", "PeakSet",
        "ScanConfig", "SpectroscopyScan", "detect_peaks",
        "estimate_parity_lifetime", "scan_window", "simulate_offset_charge",
        "simulate_parity", "synthesize_scan",
    ),
    "noise": ("NoiseModel",),
    "fitting": (
        "DataSeries", "FitResult", "ThermometryResult", "dataseries_from_csv",
        "dataseries_to_csv", "fit_t1_vs_temperature", "fit_t2_vs_temperature",
        "pure_dephasing_from_echo", "resonator_thermometry",
        "shot_noise_dephasing", "t1_rate_model", "t2_rate_model",
    ),
    "config": (
        "DeviceConfig", "ScanSettings", "config_hash", "load_device_config",
        "load_device_document",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "datasets", "svgplot"}

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
