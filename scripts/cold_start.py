"""Cold-start timings of the qpgap CLI, in fresh interpreters.

    python3 scripts/cold_start.py [--root CHECKOUT ...] [--runs N] [--json FILE]

For each checkout (default: the one holding this script) the package is
copied from ``src/`` into a temporary directory without ``__pycache__``
and timed in fresh interpreters, with one BLAS thread:

* ``import numpy`` (what a command imports before the package) and
  ``import qpgap.cli``, timed inside the child around the import
  statement.  ``compiled`` runs set ``PYTHONDONTWRITEBYTECODE=1`` on the
  bare copy, so every run compiles the package's modules, as a fresh
  checkout does; ``cached`` runs use a second copy whose bytecode was
  written beforehand.  The report records ``sys.flags.dont_write_bytecode``
  as each mode's child sees it.
* the seven commands of the benchmark's ``cli_cold`` workload
  (``COMMANDS`` of ``perfbench/cli_cold.py`` beside this script), as
  ``python -m qpgap.cli`` with ``PYTHONDONTWRITEBYTECODE=1`` on the bare
  copy, timed as the child's wall time.

Every case of every checkout runs once per round, interleaved, for
``--runs`` rounds, with the checkout order rotating each round.  Prints
the min, quartiles and median of each case in ms, then the ``qpgap.*``
and ``scipy.*`` modules each command loads.  ``--json FILE`` also writes
the samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
# the benchmark's cli_cold commands, read from perfbench/cli_cold.py and
# never edited; OUT ("{out}") stands for a fresh output directory
sys.path.insert(0, str(HERE / "perfbench"))
from cli_cold import COMMANDS, OUT  # noqa: E402

IMPORTS = {"import numpy": "numpy", "import qpgap.cli": "qpgap.cli"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import {modules}; "
                "print(time.perf_counter() - t)")
# runs a command as ``python -m qpgap.cli`` does, then lists qpgap's and
# scipy's modules
MODULES_PROBE = (
    "import json, runpy, sys\n"
    "sys.argv = ['qpgap', *json.loads(sys.argv[1])]\n"
    "try:\n"
    "    runpy.run_module('qpgap.cli', run_name='__main__')\n"
    "except SystemExit:\n"
    "    pass\n"
    "sys.stderr.write(json.dumps(sorted(\n"
    "    m for m in sys.modules if m.split('.')[0] in ('qpgap', 'scipy'))))\n"
)


class Checkout:
    """One checkout's package copies and the environments that run them."""

    def __init__(self, root: Path, scratch: Path, label: str):
        self.root = root
        self.label = label
        self.compiled = self._copy(scratch / label / "compiled")
        self.cached = self._copy(scratch / label / "cached")
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(self.cached)], check=True)
        self.out = scratch / label / "out"

    def _copy(self, target: Path) -> Path:
        shutil.copytree(self.root / "src", target,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return target

    def env(self, cached: bool) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.cached if cached else self.compiled)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "1"
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        if not cached:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env

    def argv(self, command: str) -> list[str]:
        return [a.replace(OUT, str(self.out)) for a in COMMANDS[command]]

    def time_import(self, modules: str, cached: bool) -> float:
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE.format(modules=modules)],
            cwd=self.root, env=self.env(cached), capture_output=True,
            text=True, check=True,
        )
        return 1e3 * float(proc.stdout)

    def time_command(self, command: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "qpgap.cli",
                        *self.argv(command)], cwd=self.root,
                       env=self.env(False), capture_output=True, check=True)
        elapsed = time.perf_counter() - start
        shutil.rmtree(self.out, ignore_errors=True)
        return 1e3 * elapsed

    def dont_write_bytecode(self, cached: bool) -> bool:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; print(sys.flags.dont_write_bytecode)"],
            env=self.env(cached), capture_output=True, text=True, check=True,
        )
        return bool(int(proc.stdout))

    def modules(self, command: str) -> list[str]:
        proc = subprocess.run(
            [sys.executable, "-c", MODULES_PROBE,
             json.dumps(self.argv(command))],
            cwd=self.root, env=self.env(False), capture_output=True,
            text=True, check=True,
        )
        shutil.rmtree(self.out, ignore_errors=True)
        return json.loads(proc.stderr.splitlines()[-1])


def cases(checkout: Checkout) -> dict:
    """Case name -> a call that times one run of it, in ms."""
    timed = {}
    for mode, cached in (("compiled", False), ("cached", True)):
        for name, modules in IMPORTS.items():
            timed[f"{name} ({mode})"] = (
                lambda m=modules, c=cached: checkout.time_import(m, c))
    for command in COMMANDS:
        timed[command] = lambda c=command: checkout.time_command(c)
    return timed


def summary(samples: list[float]) -> dict:
    # quantiles needs two samples; a single sample is its own quartiles
    q1, median, q3 = (
        statistics.quantiles(samples, n=4, method="inclusive")
        if len(samples) > 1 else samples * 3
    )
    return {"min": min(samples), "q1": q1, "median": median, "q3": q3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, action="append",
                        help="checkout to time (repeatable)")
    parser.add_argument("--runs", type=int, default=15,
                        help="rounds of every case (default 15)")
    parser.add_argument("--json", type=Path, help="also write the samples")
    args = parser.parse_args()
    roots = args.root or [HERE]

    with tempfile.TemporaryDirectory() as scratch:
        checkouts = [Checkout(root.resolve(), Path(scratch), f"checkout{i}")
                     for i, root in enumerate(roots)]
        timers = [cases(checkout) for checkout in checkouts]
        samples = [{name: [] for name in timer} for timer in timers]
        for round_index in range(args.runs):
            order = [(i + round_index) % len(checkouts)
                     for i in range(len(checkouts))]
            for name in timers[0]:
                for i in order:
                    samples[i][name].append(timers[i][name]())
        modules = [{command: checkout.modules(command) for command in COMMANDS}
                   for checkout in checkouts]

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "runs": args.runs,
        "checkouts": [
            {"root": str(checkout.root),
             "dont_write_bytecode": {
                 mode: checkout.dont_write_bytecode(cached)
                 for mode, cached in (("compiled", False), ("cached", True))},
             "cases": {name: {**summary(values), "samples_ms": values}
                       for name, values in sample.items()},
             "modules": module}
            for checkout, sample, module in zip(checkouts, samples, modules)
        ],
    }
    for entry in report["checkouts"]:
        print(f"{entry['root']}  ({args.runs} runs, ms: min q1 median q3)")
        for name, stats in entry["cases"].items():
            print(f"  {name:32s} {stats['min']:7.1f} {stats['q1']:7.1f} "
                  f"{stats['median']:7.1f} {stats['q3']:7.1f}")
        for command, names in entry["modules"].items():
            print(f"  modules {command}: {' '.join(names)}")
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
