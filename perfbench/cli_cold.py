"""cli_cold: one cold ``python -m qpgap.cli`` subprocess per operation.

Operations cycle over seven commands on the shipped configs and data,
with the configs' own seeds, so the inputs do not depend on the benchmark
seed.  (With other scan seeds parity-sim can grade a scan inconclusive and
write ``"seconds": NaN`` to scan_meta.json, which the non-finite check
rejects.)  Each command's output bytes (stdout plus every file it writes) must be
the same on every repeat and with two BLAS threads instead of one; the
sha256 of each command's output is recorded for information only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shutil
import subprocess
import sys
from pathlib import Path

import stats
from procs import WORKDIR, child_env

NAME = "cli_cold"
OUT = "{out}"
COMMANDS = {
    "qp_1p": ["qp", "configs/device_1p.json"],
    "spectrum_2np": ["spectrum", "configs/device_2np.json", "--out", OUT,
                     "--svg"],
    "spectrum_2p": ["spectrum", "configs/device_2p.json"],
    "parity_sim_2np": ["parity-sim", "configs/device_2np.json", "--duration",
                       "2", "--out", OUT, "--svg"],
    "parity_sim_3p": ["parity-sim", "configs/device_3p.json", "--duration",
                      "1000", "--out", OUT],
    "fit_t1_1np": ["fit", "t1", "data/t1_vs_temperature_1np.csv",
                   "configs/device_1np.json"],
    "fit_t2_1p": ["fit", "t2", "data/t2star_vs_temperature_1p.csv",
                  "configs/device_1p.json", "--t1-data",
                  "data/t1_vs_temperature_1p.csv"],
}
CYCLE = tuple(COMMANDS)
OPS_PER_CYCLE = len(CYCLE)
WARMUP = "qp_1p"
CHILD_TIMEOUT_S = 120
NON_FINITE = re.compile(rb"(?i)\b(nan|inf|infinity)\b")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import {module}; "
                "print(time.perf_counter() - t)")


class Workload:
    name = NAME

    def __init__(self, seed: int, root: Path):
        # every workload takes (seed, root); these inputs are the shipped files
        self.root = root
        self.workdir = root / WORKDIR / "cli"
        self.warmup = (WARMUP, 1)
        self.determinism_items = [(cmd, 2) for cmd in CYCLE]
        self.reference: dict[str, str] = {}

    def item(self, index: int):
        """Command of operation ``index`` and its BLAS thread count."""
        return CYCLE[index % len(CYCLE)], 1

    def argv(self, cmd: str) -> list[str]:
        out = str(self.workdir / cmd)
        return [a.replace(OUT, out) for a in COMMANDS[cmd]]

    def run(self, item, tr):
        cmd, threads = item
        with tr.span(f"cli.cold.{cmd}"):
            return subprocess.run(
                [sys.executable, "-m", "qpgap.cli", *self.argv(cmd)],
                cwd=self.root, env=child_env(self.root, threads),
                capture_output=True, timeout=CHILD_TIMEOUT_S,
            )

    def check(self, item, proc):
        """Summary of one operation and the problems found in it."""
        cmd, threads = item
        data = self._collect(cmd, proc.stdout)
        digest = hashlib.sha256(data).hexdigest()
        problems = []
        if proc.returncode != 0:
            problems.append(f"{cmd}: exit code {proc.returncode}")
        if proc.stderr:
            problems.append(f"{cmd}: stderr {proc.stderr[:200]!r}")
        if NON_FINITE.search(data):
            problems.append(f"{cmd}: non-finite number in output")
        reference = self.reference.setdefault(cmd, digest)
        if digest != reference:
            problems.append(
                f"{cmd}: output differs from its first run "
                f"(BLAS threads {threads})")
        return {"cmd": cmd, "sha256": digest, "bytes": len(data)}, problems

    def _collect(self, cmd: str, stdout: bytes) -> bytes:
        """stdout plus each written file (name and bytes); clears the files."""
        parts = [stdout]
        out_dir = self.workdir / cmd
        if out_dir.is_dir():
            for path in sorted(out_dir.iterdir()):
                parts += [path.name.encode(), b"\0", path.read_bytes()]
            shutil.rmtree(out_dir)
        return b"".join(parts)

    def calibrate(self, summaries):
        return []

    def probe(self, tr) -> dict:
        """Import floors (cold subprocesses) and warm in-process runs."""
        metrics = {}
        for label, module in (("import_numpy", "numpy"),
                              ("import", "qpgap.cli")):
            times = []
            for _ in range(3):
                proc = subprocess.run(
                    [sys.executable, "-c", IMPORT_PROBE.format(module=module)],
                    cwd=self.root, env=child_env(self.root, 1),
                    capture_output=True, text=True, check=True,
                    timeout=CHILD_TIMEOUT_S,
                )
                times.append(float(proc.stdout))
            metrics[f"cli.{label}_ms"] = (1e3 * stats.median(times), "ms")

        from qpgap import cli

        for cmd in CYCLE:
            for timed in (False, True):
                with contextlib.redirect_stdout(io.StringIO()):
                    if timed:
                        with tr.span(f"cli.warm.{cmd}"):
                            code = cli.main(self.argv(cmd))
                    else:
                        code = cli.main(self.argv(cmd))
                self._collect(cmd, b"")
                if code != 0:
                    raise RuntimeError(f"{cmd} exited {code} in-process")
        return metrics

    def layer_metrics(self, tr, summaries):
        metrics = {}
        for cmd in CYCLE:
            metrics[f"cli.{cmd}.cold_ms"] = (
                1e3 * stats.median(tr.durations(f"cli.cold.{cmd}")), "ms")
            metrics[f"cli.{cmd}.warm_ms"] = (
                1e3 * stats.median(tr.durations(f"cli.warm.{cmd}")), "ms")
            metrics[f"cli.{cmd}.output_bytes"] = (
                max(s["bytes"] for s in summaries if s["cmd"] == cmd), "bytes")
        return metrics
