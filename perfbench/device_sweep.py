"""device_sweep: one in-process device point per operation.

A point is drawn from a seeded grid over EJ/EC and f_ge spanning the five
shipped devices.  The operation loads a shipped config (for the cavity and
quasiparticle environment), inverts the point's measured frequencies to
(EJ, EC), takes the spectrum-style offset-charge grid, the dispersions and
cavity shifts, grades a protected and an unprotected gap profile, and fits
one T1(T) and one T2*(T) series drawn with criterion 9's truths.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from qpgap.config import load_device_config
from qpgap.datasets import synthetic_t1_series, synthetic_t2_series
from qpgap.fitting import (
    fit_t1_vs_temperature,
    fit_t2_vs_temperature,
    resonator_thermometry,
    shot_noise_dephasing,
    t1_rate_model,
    t2_rate_model,
)
from qpgap.quasiparticles import (
    GapProfile,
    GapSegment,
    above_barrier_fraction,
    barrier_adequate,
    crossover_temperature,
    parity_rate_model,
    trap_adequate,
)
from qpgap.transmon import (
    FrequencyTargets,
    TransmonParams,
    charge_dispersion,
    chi_shift,
    eigenspectrum,
    fit_ej_ec,
    resonator_dispersion,
    transition_frequency,
)

import stats

NAME = "device_sweep"
CONFIGS = ("device_1np.json", "device_2np.json", "device_1p.json",
           "device_2p.json", "device_3p.json")
TARGETS_CONFIG = "device_2p.json"  # the one shipped config given as targets
# EJ/EC strata: the lower one always has a ge dispersion above one scan
# linewidth (1 MHz) over the f_ge span and is inverted from (ng0, ng05);
# the upper one never has and is inverted from (ng0, ef).
RATIO_RESOLVABLE = (14.0, 26.0)
RATIO_UNRESOLVABLE = (30.0, 145.0)
F_GE_GHZ = (3.8, 5.0)
RESOLVABLE_GHZ = 1e-3
NG_POINTS = 26  # the spectrum subcommand's default grid
RESIDUAL_LIMIT_KHZ = 1.0
# A point is clear of the cavity when every charge-coupled transition out
# of levels 0 and 1 (odd level difference: the charge operator connects
# only those at ng = 0 and 0.5) sits this far from nu_r.  The shift sums
# refuse transitions within 10 g_lj, under 0.5 GHz for the shipped cavities.
CLEARANCE_GHZ = 0.8
SHIFT_LEVELS = 10  # qpgap.transmon.DEFAULT_SHIFT_LEVELS
# criterion 9: truths, temperature grids and noise of the fitted series
T1_TRUTH = {"gamma_plateau_per_s": 8.3e4, "tc_K": 1.31, "amplitude_per_s": 4.6e10}
T1_TEMPS = np.linspace(0.025, 0.35, 14)
T2_TRUTH = {"n0": 0.027, "gamma_offset_per_s": 2.0e4}
T2_TEMPS = np.linspace(0.025, 0.25, 12)
CHI_MHZ, KAPPA_MHZ = 0.55, 0.36
NU_R_GHZ = 7.24  # also the cavity of every shipped config
# points per cycle: every config paired with both inversion kinds
OPS_PER_CYCLE = 2 * len(CONFIGS)


def t1_model(t_kelvin: float) -> float:
    rate = t1_rate_model(np.array([t_kelvin]), 2.2e4, 1.31, 4.0e10)
    return 1.0 / float(rate[0])


def _clear_of_cavity(params: TransmonParams) -> bool:
    for ng in (0.0, 0.5):
        energies = eigenspectrum(params.with_ng(ng), SHIFT_LEVELS).energies
        for low in (0, 1):
            for high in range(low + 1, SHIFT_LEVELS, 2):
                detuning = energies[high] - energies[low] - NU_R_GHZ
                if abs(detuning) < CLEARANCE_GHZ:
                    return False
    return True


def _point(rng, index: int, root: Path) -> dict:
    low, high = RATIO_RESOLVABLE if index % 2 == 0 else RATIO_UNRESOLVABLE
    while True:  # redraw until the point is clear of the cavity
        ratio = math.exp(rng.uniform(math.log(low), math.log(high)))
        f_ge = rng.uniform(*F_GE_GHZ)
        ec = f_ge / (math.sqrt(8.0 * ratio) - 1.0)
        truth = TransmonParams(EJ=ratio * ec, EC=ec)
        if _clear_of_cavity(truth):
            break
    f0 = transition_frequency(truth.with_ng(0.0))
    f05 = transition_frequency(truth.with_ng(0.5))
    resolvable = abs(f0 - f05) >= RESOLVABLE_GHZ
    if resolvable != (index % 2 == 0):
        raise RuntimeError(f"grid point EJ/EC={ratio:.3g} left its stratum")
    if resolvable:
        kind, targets = "ng05", FrequencyTargets(f0, f_ge_ng05=f05)
    else:
        kind = "ef"
        targets = FrequencyTargets(f0, f_ef=transition_frequency(truth, 1, 2))

    # protected: a raised-gap segment of 1-5 um on the junction's left;
    # unprotected: lowered-gap segments of 1-5 um on both sides, a trap
    # geometry far shorter than the >= 200 um diffusion length at steps
    # below 0.6 K, so neither a barrier nor a trap
    base = rng.uniform(2.0, 2.3)
    step = rng.uniform(0.1, 0.6)
    outer_l, outer_r = rng.uniform(10.0, 30.0, size=2)
    inner_l, inner_r = rng.uniform(1.0, 5.0, size=2)
    protected = GapProfile(
        (GapSegment(outer_l, base), GapSegment(inner_l, base + step),
         GapSegment(outer_r, base)),
        junction_um=outer_l + inner_l,
    )
    unprotected = GapProfile(
        (GapSegment(outer_l, base + step), GapSegment(inner_l, base),
         GapSegment(inner_r, base), GapSegment(outer_r, base + step)),
        junction_um=outer_l + inner_l,
    )
    s1, s2 = (int(s) for s in rng.integers(0, 2**31, size=2))
    return {
        "config": root / "configs" / CONFIGS[index % len(CONFIGS)],
        "kind": kind,
        "targets": targets,
        "protected": protected,
        "unprotected": unprotected,
        "step_k": step,
        "t1": synthetic_t1_series(*T1_TRUTH.values(), T1_TEMPS, 0.05, seed=s1),
        "t2": synthetic_t2_series(
            *T2_TRUTH.values(), CHI_MHZ, KAPPA_MHZ, NU_R_GHZ, t1_model,
            T2_TEMPS, 0.03, seed=s2,
        ),
    }


class Workload:
    name = NAME

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.warmup = _point(np.random.default_rng([seed, 9, 0]), 0, root)

    def item(self, index: int):
        """Input of operation ``index``, drawn from its own seeded stream."""
        rng = np.random.default_rng([self.seed, 9, index + 1])
        return _point(rng, index, self.root)

    def run(self, item, tr):
        out = {}
        config_path = item["config"]
        span = ("config.load_targets" if config_path.name == TARGETS_CONFIG
                else "config.load")
        with tr.span(span):
            config = load_device_config(config_path)
        with tr.span(f"transmon.fit_ej_ec_{item['kind']}"):
            params = fit_ej_ec(item["targets"])
        out["params"] = params

        grid = []
        for ng in np.linspace(0.0, 0.5, NG_POINTS):
            with tr.span("transmon.eigenspectrum"):
                even = eigenspectrum(params.with_ng(ng), levels=3)
            with tr.span("transmon.eigenspectrum"):
                odd = eigenspectrum(params.with_ng(ng + 0.5), levels=2)
            grid += [even.f_ge, even.f_ef, odd.f_ge]
        out["grid"] = grid
        with tr.span("transmon.charge_dispersion"):
            out["eps_ge"] = charge_dispersion(params, "ge")
        with tr.span("transmon.charge_dispersion"):
            out["eps_ef"] = charge_dispersion(params, "ef")
        with tr.span("transmon.chi_shift"):
            out["chi"] = chi_shift(params, config.cavity)
        with tr.span("transmon.resonator_dispersion"):
            out["pull"] = resonator_dispersion(params, config.cavity)
        with tr.span("transmon.resonator_dispersion_chi"):
            out["pull_chi"] = resonator_dispersion(
                params, config.cavity, method="chi")

        env = config.env
        protected, unprotected = item["protected"], item["unprotected"]
        with tr.span("quasiparticles.above_barrier_fraction"):
            out["above"] = above_barrier_fraction(
                item["step_k"], env.t_qp_kelvin, protected.junction_delta_k)
        with tr.span("quasiparticles.verdicts"):
            out["verdicts"] = (
                barrier_adequate(protected, env).adequate,
                trap_adequate(protected, env).adequate,
                barrier_adequate(unprotected, env).adequate,
                trap_adequate(unprotected, env).adequate,
            )
        with tr.span("quasiparticles.parity_rate_model"):
            out["rate_protected"] = parity_rate_model(protected, env)
        with tr.span("quasiparticles.parity_rate_model"):
            out["rate_unprotected"] = parity_rate_model(unprotected, env)
        with tr.span("quasiparticles.crossover_temperature"):
            out["crossover"] = crossover_temperature(
                env.x_nqp, protected.junction_delta_k)
        out["delta_k"] = protected.junction_delta_k

        with tr.span("fitting.fit_t1"):
            out["fit_t1"] = fit_t1_vs_temperature(item["t1"])
        with tr.span("fitting.fit_t2"):
            out["fit_t2"] = fit_t2_vs_temperature(
                item["t2"], CHI_MHZ, KAPPA_MHZ, NU_R_GHZ, t1_model)
        n0 = out["fit_t2"].values["n0"]
        with tr.span("fitting.thermometry"):
            out["thermometry"] = resonator_thermometry(
                shot_noise_dephasing(CHI_MHZ, KAPPA_MHZ, n0),
                CHI_MHZ, KAPPA_MHZ, NU_R_GHZ,
            )
        return out

    def check(self, item, out):
        """Summary of one operation and the problems found in it."""
        problems = []
        targets, params = item["targets"], out["params"]
        residuals = [transition_frequency(params.with_ng(0.0)) - targets.f_ge_ng0]
        if targets.f_ge_ng05 is not None:
            residuals.append(
                transition_frequency(params.with_ng(0.5)) - targets.f_ge_ng05)
        if targets.f_ef is not None:
            residuals.append(
                transition_frequency(params.with_ng(0.0), 1, 2) - targets.f_ef)
        residual_khz = 1e6 * max(abs(r) for r in residuals)
        if not residual_khz <= RESIDUAL_LIMIT_KHZ:
            problems.append(f"inversion residual {residual_khz:.3g} kHz")

        fit1, fit2 = out["fit_t1"], out["fit_t2"]
        numbers = [params.EJ, params.EC, *out["grid"], out["eps_ge"],
                   out["eps_ef"], out["chi"], out["pull"], out["pull_chi"],
                   out["above"], out["rate_protected"],
                   out["rate_unprotected"], out["crossover"],
                   *fit1.values.values(), *fit1.sigmas.values(),
                   *fit2.values.values(), *fit2.sigmas.values(),
                   out["thermometry"].n_th, out["thermometry"].temperature_k]
        if not all(math.isfinite(x) for x in numbers):
            problems.append("non-finite output")

        if out["verdicts"] != (True, False, False, False):
            problems.append(
                "barrier/trap verdicts (protected barrier, protected trap, "
                f"unprotected barrier, unprotected trap) = {out['verdicts']}, "
                "expected (True, False, False, False)"
            )
        if not 0.0 < out["above"] < 1.0:
            problems.append(f"above-barrier fraction {out['above']}")
        if not out["rate_protected"] < out["rate_unprotected"]:
            problems.append("protected profile switches no slower")
        if not 0.0 < out["crossover"] <= out["delta_k"] / 2.0:
            problems.append(f"crossover {out['crossover']} K outside (0, Delta/2]")

        series1, series2 = item["t1"], item["t2"]
        problems += _fit_problems(
            "t1", fit1, T1_TRUTH, series1,
            lambda p: t1_rate_model(series1.t_kelvin, *p))
        problems += _fit_problems(
            "t2", fit2, T2_TRUTH, series2,
            lambda p: t2_rate_model(series2.t_kelvin, *p, CHI_MHZ, KAPPA_MHZ,
                                    NU_R_GHZ, t1_model))
        n0, n_th = fit2.values["n0"], out["thermometry"].n_th
        if n0 > 0 and not abs(n_th - n0) <= 1e-6 * n0:
            problems.append(f"thermometry n_th {n_th} != fitted n0 {n0}")

        summary = {
            "kind": item["kind"],
            "residual_khz": residual_khz,
            "hits_t1": _hits(fit1, T1_TRUTH),
            "hits_t2": _hits(fit2, T2_TRUTH),
            "iterations_t1": fit1.iterations,
            "iterations_t2": fit2.iterations,
        }
        return summary, problems

    def calibrate(self, summaries):
        """Criterion 9 over the run: 2-sigma coverage of every parameter."""
        problems = []
        for fit, truth in (("t1", T1_TRUTH), ("t2", T2_TRUTH)):
            for i, name in enumerate(truth):
                hits = sum(s[f"hits_{fit}"][i] for s in summaries)
                problems += stats.share_check(
                    f"fit {fit} {name} 2-sigma coverage", hits, len(summaries))
        return problems

    def layer_metrics(self, tr, summaries):
        """Per-layer metrics of config, transmon, quasiparticles, fitting."""
        def ms(name):
            return (1e3 * stats.median(tr.durations(name)), "ms")

        metrics = {name + "_ms": ms(name) for name in (
            "config.load", "config.load_targets",
            "transmon.fit_ej_ec_ng05", "transmon.fit_ej_ec_ef",
            "transmon.eigenspectrum", "transmon.charge_dispersion",
            "transmon.chi_shift", "transmon.resonator_dispersion",
            "transmon.resonator_dispersion_chi",
            "quasiparticles.above_barrier_fraction",
            "quasiparticles.parity_rate_model", "quasiparticles.verdicts",
            "quasiparticles.crossover_temperature",
            "fitting.fit_t1", "fitting.fit_t2", "fitting.thermometry",
        )}
        metrics["transmon.inversion_residual_khz"] = (
            max(s["residual_khz"] for s in summaries), "kHz")
        for fit in ("t1", "t2"):
            metrics[f"fitting.lm_iterations_{fit}"] = (
                sum(s[f"iterations_{fit}"] for s in summaries) / len(summaries),
                "count")
            n_params = len(summaries[0][f"hits_{fit}"])
            metrics[f"fitting.coverage_{fit}"] = (
                min(sum(s[f"hits_{fit}"][i] for s in summaries)
                    for i in range(n_params)) / len(summaries),
                "frac")
        return metrics


def _hits(fit, truth) -> list[bool]:
    return [abs(fit.values[k] - v) <= 2.0 * fit.sigmas[k]
            for k, v in truth.items()]


def _fit_problems(label, fit, truth, series, model) -> list[str]:
    """A least-squares fit must reach a weighted SSR no worse than the truth's."""
    rates, sigmas = series.rates()

    def ssr(values):
        return float(np.sum(((model(values) - rates) / sigmas) ** 2))

    fitted = ssr([fit.values[k] for k in truth])
    at_truth = ssr(list(truth.values()))
    problems = []
    if not fitted <= at_truth * (1.0 + 1e-9):
        problems.append(
            f"fit {label}: SSR {fitted:.6g} above the truth's {at_truth:.6g}")
    if not all(s > 0 for s in fit.sigmas.values()):
        problems.append(f"fit {label}: non-positive sigma")
    return problems
