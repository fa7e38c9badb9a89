"""qpgap benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {cli_cold,parity_scan,device_sweep}
        --seed N --seconds S --trace {0,1}

Run from the root of a qpgap checkout; the package is taken from ``src/``
there.  Each workload is a closed loop with one client.  With --trace 0
the result holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Files go to
``.bench_out/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import speed
import stats
from procs import BLAS_THREAD_VARS, WORKDIR, child_env
from worker import WORKLOADS

SETUP_SAMPLES = 5  # set-up-only interpreters per untraced run
BUDGET_S = 170.0  # the whole run, all processes included
WORKER = Path(__file__).resolve().parent / "worker.py"
NEEDED = ("src/qpgap/cli.py", "configs/device_3p.json",
          "data/t1_vs_temperature_1np.csv")


class BenchError(Exception):
    pass


def spawn_worker(args, deadline: float, setup_only: bool) -> dict:
    """Run worker.py in a fresh interpreter and parse its last stdout line."""
    env = child_env(Path.cwd())
    spawned_at = time.monotonic()
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--spawned-at", repr(spawned_at)]
    if setup_only:
        argv.append("--setup-only")
    # own session, so a timeout can stop the worker and its children
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{args.workload} did not finish within {BUDGET_S:g} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def provenance(args, result: dict) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": {var: child_env(Path.cwd())[var]
                         for var in BLAS_THREAD_VARS},
        "blas_threads_determinism_pass": (2 if args.workload == "cli_cold"
                                          else None),
        "git_commit": _git_commit(Path.cwd()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": result["ops"],
        "samples": result["info"]["samples"],
        "attempted": result["attempted"],
    }


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (
                (index / "size").read_text().strip())
    except OSError:
        pass
    return caches


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    # one CPU for this process and all it starts, so the reference job of
    # speed.py times the CPU the operations run on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    missing = [p for p in NEEDED if not (Path.cwd() / p).is_file()]
    if missing:
        print(f"error: not a qpgap checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    try:
        setups_wall, around = [], []
        clock = speed.Clock()
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                before = clock.tick()
                sample = spawn_worker(args, deadline, setup_only=True)
                around.append((before, clock.tick()))
                setups_wall.append(sample["setup_s"])
        setups = [clock.scale(t, *ref) for t, ref in zip(setups_wall, around)]
        result = spawn_worker(args, deadline, setup_only=False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = (stats.median(setups), "s")
        result["info"]["setup_samples"] = setups
        result["info"]["wall"]["setup_s"] = stats.median(setups_wall)
        result["info"]["wall"]["setup_samples"] = setups_wall
    correct = result["failed"] == 0 and not result["calibration"]
    for problem in result["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    for problem in result["calibration"]:
        print(f"CALIBRATION FAILED {problem}", file=sys.stderr)

    record = {
        "provenance": provenance(args, result),
        "info": result["info"],
        "calibration": result["calibration"],
        "problems": result["problems"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out = Path.cwd() / WORKDIR
    out.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"operations={result['ops']} samples={result['info']['samples']}")
    if not args.trace:
        percentile = result["info"]["tail_percentile"]
        beyond = ("the maximum: fewer than 11 samples" if percentile == 100.0
                  else "10 samples beyond it")
        print(f"# op_ms_tail is p{percentile:.1f} ({beyond}); "
              f"failed_frac = {result['info']['failed_frac']:.4g}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print("# provenance " + json.dumps(record["provenance"]))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
