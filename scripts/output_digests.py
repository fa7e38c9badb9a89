"""Digest the CLI's outputs over a fixed matrix of runs.

    python3 scripts/output_digests.py [--root CHECKOUT [--root OTHER]]

Runs ``python -m qpgap.cli`` from the checkout (default: the one holding
this script) with its ``src/`` on the import path, over the five shipped
configs x ``--format csv|json`` x {spectrum, qp, parity-sim --duration
20, fit t1, fit t2}, each once with ``--svg --out DIR`` and once on
stdout, plus ``parity-sim configs/device_3p.json --duration 1000 --out
DIR``: 101 runs.  A run's digest is the sha256 of its exit code, stdout,
stderr and every file it wrote.  Prints one ``<sha256>  <run>`` line per
run, then the combined digest: the sha256 of the per-run hex digests
concatenated in run order.

With two ``--root`` values each run is made on both checkouts, and only
the runs whose digests differ are printed, as ``<first>  <second>
<run>``; then each checkout's combined digest (``<sha256>  all  <root>``)
and the count of moved runs.  Byte-identical outputs print no run lines.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = ("1np", "1p", "2np", "2p", "3p")
FORMATS = ("csv", "json")
COMMANDS = {
    "spectrum": ["spectrum", "{config}"],
    "qp": ["qp", "{config}"],
    "parity-sim": ["parity-sim", "{config}", "--duration", "20"],
    "fit-t1": ["fit", "t1", "data/t1_vs_temperature_1np.csv", "{config}"],
    "fit-t2": ["fit", "t2", "data/t2star_vs_temperature_1p.csv", "{config}",
               "--t1-data", "data/t1_vs_temperature_1p.csv"],
}


def runs() -> list[tuple[str, list[str], bool]]:
    """(name, argv after ``qpgap``, writes to --out) of every run, in order."""
    matrix = []
    for config in CONFIGS:
        path = f"configs/device_{config}.json"
        for fmt in FORMATS:
            for command, template in COMMANDS.items():
                argv = [arg.format(config=path) for arg in template]
                argv += ["--format", fmt]
                base = f"{config}.{fmt}.{command}"
                matrix.append((f"{base}.out", argv + ["--svg"], True))
                matrix.append((f"{base}.stdout", argv, False))
    matrix.append(("3p.long.out", ["parity-sim", "configs/device_3p.json",
                                   "--duration", "1000"], True))
    return matrix


def _field(digest, label: str, data: bytes) -> None:
    digest.update(f"{label} {len(data)}\n".encode())
    digest.update(data)


def run_digest(root: Path, argv: list[str], out: Path | None) -> str:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    if out is not None:
        argv = argv + ["--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "qpgap.cli", *argv],
                          cwd=root, env=env, capture_output=True)
    digest = hashlib.sha256()
    _field(digest, "exit", str(proc.returncode).encode())
    _field(digest, "stdout", proc.stdout)
    _field(digest, "stderr", proc.stderr)
    if out is not None:
        for path in sorted(out.iterdir()):
            _field(digest, f"file {path.name}", path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, action="append",
                        help="qpgap checkout to run; give two to compare "
                             "them (default: this one)")
    roots = parser.parse_args().root or [Path(__file__).parent.parent]
    if len(roots) > 2:
        parser.error("give at most two --root values")
    roots = [root.resolve() for root in roots]
    combined = [hashlib.sha256() for _ in roots]
    matrix = runs()
    moved = 0
    with tempfile.TemporaryDirectory() as scratch:
        for index, (name, argv, writes) in enumerate(matrix):
            digests = []
            for side, (root, total) in enumerate(zip(roots, combined)):
                out = Path(scratch) / f"{side}.{index}" if writes else None
                digests.append(run_digest(root, argv, out))
                total.update(digests[-1].encode())
            if len(roots) == 1:
                print(f"{digests[0]}  {name}", flush=True)
            elif digests[0] != digests[1]:
                moved += 1
                print(f"{digests[0]}  {digests[1]}  {name}", flush=True)
    if len(roots) == 1:
        print(f"{combined[0].hexdigest()}  all")
        return 0
    for root, total in zip(roots, combined):
        print(f"{total.hexdigest()}  all  {root}")
    print(f"{moved} of {len(matrix)} runs moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
