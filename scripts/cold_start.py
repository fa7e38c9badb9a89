"""Cold-start timings of the qpgap CLI, in fresh interpreters.

    python3 scripts/cold_start.py [--root CHECKOUT ...] [--runs N] [--json FILE]
                                  [--compile | --imports] [--no-site]

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
  copy, timed as the child's wall time.  Each run also records the
  child's peak resident set size and minor page faults (``ru_maxrss``
  and ``ru_minflt`` from ``os.wait4``).

Every case of every checkout runs once per round, interleaved, for
``--runs`` rounds, with the checkout order rotating each round.  Prints
the min, quartiles and median of each case in ms (and of each command's
peak RSS in MB and minor faults), then the ``qpgap.*`` and ``scipy.*``
modules each command loads.  ``--json FILE`` also writes the samples.

``--imports`` times only the package's own imports, which a whole
command's wall time cannot resolve to a millisecond: each sample pays
``import numpy`` too, whose spread is wider than that.  A child first
imports numpy and every standard-library module that the package's
modules import (read from each checkout's source), then times
``import qpgap.cli`` alone, and ``import qpgap.cli`` with each
subcommand's module (``qpgap._spectrum`` and so on), with
``PYTHONDONTWRITEBYTECODE=1`` on the bare copy, so each run compiles
what it imports.  The cases run interleaved as above.

``--no-site`` runs every child of this script as ``python -S``, with the
directories numpy and scipy are imported from on ``PYTHONPATH`` after
the package copy, so no ``.pth`` file of the host's ``site-packages``
runs.  Such a file can import standard-library modules (``pathlib``,
``re``, ``typing``, ...) before the package does, which hides what the
package's own imports of them cost.  The mode changes only how this
script starts its own children.

``--compile`` times no process.  It times ``compile()`` of each ``qpgap``
module that a command loads (the ``MODULES_PROBE`` list), in this
process, once per round and checkout, interleaved module by module (a
module compiles on every checkout before the next module starts), and
prints for each command the sum of its modules' best-of-``--runs``
times, then each module's best time.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
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
# the subcommands and the module ``qpgap.cli`` imports to run each
SUBCOMMANDS = {argv[0]: f"qpgap._{argv[0].replace('-', '_')}"
               for argv in COMMANDS.values()}
# runs a command as ``python -m qpgap.cli`` does (as ``__main__``, in
# sys.modules), then lists qpgap's and scipy's modules
MODULES_PROBE = (
    "import json, runpy, sys\n"
    "sys.argv = ['qpgap', *json.loads(sys.argv[1])]\n"
    "try:\n"
    "    runpy.run_module('qpgap.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit:\n"
    "    pass\n"
    "sys.stderr.write(json.dumps(sorted(\n"
    "    m for m in sys.modules if m.split('.')[0] in ('qpgap', 'scipy'))))\n"
)


def site_directories() -> list[str]:
    """The directories numpy and scipy are imported from."""
    return sorted({
        os.path.dirname(os.path.dirname(importlib.util.find_spec(name).origin))
        for name in ("numpy", "scipy")
    })


class Checkout:
    """One checkout's package copies and the environments that run them."""

    def __init__(self, root: Path, scratch: Path, label: str,
                 no_site: bool = False):
        self.root = root
        self.label = label
        # the interpreter and the import path after the package copy
        self.python = [sys.executable, *(["-S"] if no_site else [])]
        self.site = site_directories() if no_site else []
        self.compiled = self._copy(scratch / label / "compiled")
        self.cached = self._copy(scratch / label / "cached")
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(self.cached)], check=True)
        self.out = scratch / label / "out"
        self.peak_rss_mb = {command: [] for command in COMMANDS}
        self.minor_faults = {command: [] for command in COMMANDS}

    def _copy(self, target: Path) -> Path:
        shutil.copytree(self.root / "src", target,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return target

    def env(self, cached: bool) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.cached if cached else self.compiled), *self.site])
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "1"
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        if not cached:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        return env

    def argv(self, command: str) -> list[str]:
        return [a.replace(OUT, str(self.out)) for a in COMMANDS[command]]

    def time_import(self, modules: str, cached: bool,
                    preloaded: str = "") -> float:
        """ms of ``import modules`` in a fresh child that has imported
        ``preloaded`` (comma-separated) beforehand."""
        code = IMPORT_PROBE.format(modules=modules)
        if preloaded:
            code = f"import {preloaded}; {code}"
        proc = subprocess.run(
            [*self.python, "-c", code], cwd=self.root,
            env=self.env(cached), capture_output=True, text=True, check=True,
        )
        return 1e3 * float(proc.stdout)

    def stdlib_imports(self) -> set[str]:
        """The standard-library modules that the package's modules import,
        at any depth of their code."""
        names = set()
        for path in (self.compiled / "qpgap").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names.update(alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names.add(node.module)
        return {name for name in names
                if name.partition(".")[0] in sys.stdlib_module_names
                and name != "__future__"}

    def time_command(self, command: str) -> float:
        """The wall time of one run of ``command`` in ms; its peak RSS
        goes to ``peak_rss_mb`` and its minor faults to ``minor_faults``."""
        argv = [*self.python, "-m", "qpgap.cli", *self.argv(command)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env(False),
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        # wait4 reaps the child and returns its own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, argv)
        shutil.rmtree(self.out, ignore_errors=True)
        self.peak_rss_mb[command].append(usage.ru_maxrss / 1024.0)
        self.minor_faults[command].append(usage.ru_minflt)
        return 1e3 * elapsed

    def dont_write_bytecode(self, cached: bool) -> bool:
        proc = subprocess.run(
            [*self.python, "-c",
             "import sys; print(sys.flags.dont_write_bytecode)"],
            env=self.env(cached), capture_output=True, text=True, check=True,
        )
        return bool(int(proc.stdout))

    def modules(self, command: str) -> list[str]:
        proc = subprocess.run(
            [*self.python, "-c", MODULES_PROBE,
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


def import_cases(checkout: Checkout, preloaded: str) -> dict:
    """Case name -> a call that times one import of the package in a
    child that has imported ``preloaded``, in ms."""
    timed = {"qpgap.cli": lambda: checkout.time_import(
        "qpgap.cli", False, preloaded)}
    for name, module in SUBCOMMANDS.items():
        timed[f"qpgap.cli + {name}"] = (
            lambda m=module: checkout.time_import(
                f"qpgap.cli, {m}", False, preloaded))
    return timed


def module_file(package: Path, module: str) -> Path:
    """The source file of ``qpgap`` module ``module`` under ``package``."""
    name = module.partition(".")[2]
    return package / (f"{name}.py" if name else "__init__.py")


def compile_times(checkouts: list[Checkout], runs: int) -> list[dict]:
    """Each checkout's command -> modules, best compile ms per module, and
    best compile ms summed per command."""
    # ``python -m qpgap.cli`` compiles cli.py as ``__main__``, which the
    # probe's ``sys.modules`` does not list under its own name
    loaded = [{command: sorted({"qpgap.cli", *(
                   m for m in checkout.modules(command)
                   if m.split(".")[0] == "qpgap")})
               for command in COMMANDS} for checkout in checkouts]
    sources = []
    for checkout, commands in zip(checkouts, loaded):
        names = sorted({m for modules in commands.values() for m in modules})
        package = checkout.compiled / "qpgap"
        sources.append({m: (module_file(package, m).read_text(),
                            str(module_file(package, m))) for m in names})
    # each module alternates between the checkouts within a round, so a
    # host slowdown lands on both sides rather than on one checkout's burst
    samples = interleave(checkouts, [
        {name: lambda t=text, f=filename: time_compile(t, f)
         for name, (text, filename) in source.items()}
        for source in sources], runs)
    best = [{name: min(values) for name, values in sample.items()}
            for sample in samples]
    return [
        {"modules_ms": times,
         "commands_ms": {command: sum(times[m] for m in modules)
                         for command, modules in commands.items()},
         "modules": commands}
        for times, commands in zip(best, loaded)
    ]


def time_compile(text: str, filename: str) -> float:
    """ms of one ``compile()`` of a module's source."""
    start = time.perf_counter()
    # dont_inherit: not this script's ``annotations`` future
    compile(text, filename, "exec", dont_inherit=True)
    return 1e3 * (time.perf_counter() - start)


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
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--compile", action="store_true",
                      help="time compile() of each command's modules only")
    mode.add_argument("--imports", action="store_true",
                      help="time only the package's imports, after numpy")
    parser.add_argument("--no-site", action="store_true",
                        help="run the children as python -S, with numpy's "
                        "and scipy's directories on PYTHONPATH")
    args = parser.parse_args()
    roots = args.root or [HERE]

    with tempfile.TemporaryDirectory() as scratch:
        checkouts = [Checkout(root.resolve(), Path(scratch), f"checkout{i}",
                              args.no_site)
                     for i, root in enumerate(roots)]
        if args.compile:
            return report_compile(checkouts, args)
        if args.imports:
            return report_imports(checkouts, args)
        samples = interleave(checkouts, [cases(c) for c in checkouts],
                             args.runs)
        modules = [{command: checkout.modules(command) for command in COMMANDS}
                   for checkout in checkouts]

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "runs": args.runs,
        "no_site": args.no_site,
        "checkouts": [
            {"root": str(checkout.root),
             "dont_write_bytecode": {
                 mode: checkout.dont_write_bytecode(cached)
                 for mode, cached in (("compiled", False), ("cached", True))},
             "cases": {name: {**summary(values), "samples_ms": values}
                       for name, values in sample.items()},
             "peak_rss_mb": {command: {**summary(values), "samples": values}
                             for command, values in
                             checkout.peak_rss_mb.items()},
             "minor_faults": {command: {**summary(values), "samples": values}
                              for command, values in
                              checkout.minor_faults.items()},
             "modules": module}
            for checkout, sample, module in zip(checkouts, samples, modules)
        ],
    }
    for entry in report["checkouts"]:
        site = ", python -S" if args.no_site else ""
        print(f"{entry['root']}  ({args.runs} runs{site}, ms: min q1 median "
              "q3)")
        print_summaries(entry["cases"])
        print("  peak RSS, MB: min q1 median q3")
        print_summaries(entry["peak_rss_mb"])
        print("  minor page faults: min q1 median q3")
        print_summaries(entry["minor_faults"], digits=0)
        for command, names in entry["modules"].items():
            print(f"  modules {command}: {' '.join(names)}")
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


def interleave(checkouts: list, timers: list[dict], runs: int) -> list[dict]:
    """Each checkout's case -> samples: every case of every checkout once
    per round, with the checkout order rotating each round.  A case runs
    on every checkout that has it before the next case starts."""
    samples = [{name: [] for name in timer} for timer in timers]
    names = dict.fromkeys(name for timer in timers for name in timer)
    for round_index in range(runs):
        order = [(i + round_index) % len(checkouts)
                 for i in range(len(checkouts))]
        for name in names:
            for i in order:
                if name in timers[i]:
                    samples[i][name].append(timers[i][name]())
    return samples


def print_summaries(entries: dict, digits: int = 1) -> None:
    for name, stats in entries.items():
        print(f"  {name:32s}", *(f"{stats[key]:7.{digits}f}"
                                 for key in ("min", "q1", "median", "q3")))


def report_imports(checkouts: list[Checkout], args) -> int:
    # every checkout's child preloads the same modules
    preloaded = ", ".join(sorted(
        {"numpy"}.union(*(c.stdlib_imports() for c in checkouts))))
    samples = interleave(
        checkouts, [import_cases(c, preloaded) for c in checkouts], args.runs)
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "runs": args.runs,
        "no_site": args.no_site,
        "preloaded": preloaded,
        "checkouts": [
            {"root": str(checkout.root),
             "dont_write_bytecode": checkout.dont_write_bytecode(False),
             "cases": {name: {**summary(values), "samples_ms": values}
                       for name, values in sample.items()}}
            for checkout, sample in zip(checkouts, samples)
        ],
    }
    print(f"preloaded: {preloaded}")
    site = ", python -S" if args.no_site else ""
    for entry in report["checkouts"]:
        print(f"{entry['root']}  ({args.runs} runs{site}, package imports "
              "after numpy, ms: min q1 median q3)")
        print_summaries(entry["cases"])
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


def report_compile(checkouts: list[Checkout], args) -> int:
    results = compile_times(checkouts, args.runs)
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "runs": args.runs,
        "checkouts": [{"root": str(checkout.root), **result}
                      for checkout, result in zip(checkouts, results)],
    }
    for entry in report["checkouts"]:
        print(f"{entry['root']}  (compile(), best of {args.runs}, ms)")
        for command, total in entry["commands_ms"].items():
            count = len(entry["modules"][command])
            print(f"  {command:32s} {total:7.2f}  ({count} modules)")
        for name, best in sorted(entry["modules_ms"].items()):
            print(f"  {name:32s} {best:7.2f}")
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
