"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py          (from the root of a qpgap checkout)

1. Every workload runs untraced and traced at the smallest size and prints
   exactly the metrics BENCHMARK.json lists, each with its unit.
2. Planted wrong answers (a perturbed fitted value, a verdict that
   contradicts its gap profile, a NaN in a scan, CLI output that changes
   between repeats, CLI stderr) are each counted as one failed operation.
3. The run-level calibration checks fail on miscalibrated summaries.

Exits 0 when every check passes; takes about two minutes on two cores.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(Path.cwd() / "src")]

import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 5
FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def check_names(root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in worker.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
                cwd=root, capture_output=True, text=True, timeout=300,
            )
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: correct, {result['failed']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{label}: {len(got)} metrics match "
                   f"BENCHMARK.json {key} by name and unit")
            if got != wanted:
                print("  missing", sorted(set(wanted) - set(got)),
                      "extra", sorted(set(got) - set(wanted)))
            expect(all(math.isfinite(v["value"])
                       for v in result["metrics"].values()),
                   f"{label}: every value finite")


def planted(root: Path) -> None:
    def perturb_fit(item, out):
        fit = out["fit_t1"]
        name = "gamma_plateau_per_s"
        out["fit_t1"] = dataclasses.replace(
            fit, values={**fit.values, name: 1.5 * fit.values[name]})
        return out

    def flip_verdict(item, out):
        out["verdicts"] = (not out["verdicts"][0],) + out["verdicts"][1:]
        return out

    def nan_pixel(item, out):
        out["scan"].amplitudes[0, 0] = math.nan
        return out

    def changed_bytes(item, proc):
        proc.stdout += b"0"
        return proc

    def stderr_line(item, proc):
        proc.stderr = b"warning: something\n"
        return proc

    cases = [
        ("device_sweep", perturb_fit, "SSR"),
        ("device_sweep", flip_verdict, "verdicts"),
        ("parity_scan", nan_pixel, "non-finite"),
        ("cli_cold", changed_bytes, "differs"),
        ("cli_cold", stderr_line, "stderr"),
    ]
    for name, plant, needle in cases:
        wl = worker.make(name, SEED, root)
        # cli_cold: one command twice, so the repeat is compared
        items = ([wl.item(0)] * 2 if name == "cli_cold"
                 else [wl.item(k) for k in range(3)])
        tally = worker.Tally()
        for k, item in enumerate(items):
            tally.run(wl, item, Tracer(False), k,
                      tamper=plant if k == len(items) - 1 else None)
        expect(tally.failed == 1 and needle in " ".join(tally.problems),
               f"{name}: planted {plant.__name__} counted as 1 failed of "
               f"{tally.attempted} ({tally.failed} failed)")


def calibration(root: Path) -> None:
    import device_sweep
    import parity_scan

    summaries = [{"regime": r, "kind": "inconclusive", "seconds": math.nan,
                  "expected": False} for r in parity_scan.CYCLE] * 10
    problems = parity_scan.Workload(SEED, root).calibrate(summaries)
    expect(len(problems) == 4, f"parity calibration flags {len(problems)} of 4")
    summaries = [{"hits_t1": [False, True, True], "hits_t2": [True, True]}] * 50
    problems = device_sweep.Workload(SEED, root).calibrate(summaries)
    expect(len(problems) == 1, f"fit coverage calibration flags {len(problems)} of 1")


def main() -> int:
    root = Path.cwd()
    calibration(root)
    planted(root)
    check_names(root)
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
