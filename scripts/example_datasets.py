"""Regenerate the example T1(T) and T2*(T) datasets shipped in ``data/``.

    PYTHONPATH=src python3 scripts/example_datasets.py [OUT_DIR]

Draws each series from the package's rate models with the seeds and
truth parameters the shipped files were drawn from, and writes them to
``OUT_DIR`` (default: ``data/`` of this checkout), byte for byte the
shipped files.  The package reads such CSVs with
:func:`qpgap.fitting.dataseries_from_csv`; it writes none, so the writer
lives here.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import numpy as np

from qpgap.datasets import synthetic_t1_series, synthetic_t2_series
from qpgap.fitting import t1_rate_model

DATA = Path(__file__).resolve().parent.parent / "data"


def dataseries_to_csv(series, path: str | Path) -> None:
    """Write a series as CSV with T_K and value_us (plus sigma when set)."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        header = ["T_K", "value_us"]
        if series.sigma_s is not None:
            header.append("sigma")
        writer.writerow(header)
        for i in range(len(series)):
            row = [f"{series.t_kelvin[i]:.6g}", f"{series.value_s[i] * 1e6:.9g}"]
            if series.sigma_s is not None:
                row.append(f"{series.sigma_s[i] * 1e6:.9g}")
            writer.writerow(row)


# quasiparticle decay coefficient (rate at x_qp = 1) of the two example
# devices, frozen so the shipped CSVs regenerate byte for byte
_DECAY_COEFF_1NP = 35869.33484 / 8e-7
_DECAY_COEFF_1P = 32114.29584 / 8e-7


def write_example_datasets(out_dir: str | Path) -> list[Path]:
    """Regenerate the bundled example CSVs under ``out_dir``.

    Writes t1_vs_temperature_1np.csv, t1_vs_temperature_1p.csv, and
    t2star_vs_temperature_1p.csv with the seeds and truth parameters the
    shipped files were drawn from, and returns the paths written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    temps_t1 = np.linspace(0.025, 0.35, 14)

    t1_1np = synthetic_t1_series(
        1e6 / 12.0, 1.31, _DECAY_COEFF_1NP, temps_t1,
        noise_fraction=0.05, seed=42,
    )
    t1_1p = synthetic_t1_series(
        1e6 / 45.0, 1.31, _DECAY_COEFF_1P, temps_t1,
        noise_fraction=0.05, seed=44,
    )

    def t1_model(t_kelvin: float) -> float:
        rate = t1_rate_model(
            np.asarray([t_kelvin]), 1e6 / 45.0, 1.31, _DECAY_COEFF_1P
        )
        return 1.0 / float(rate[0])

    t2_1p = synthetic_t2_series(
        0.027, 2.0e4, 0.55, 0.36, 7.24, t1_model,
        np.linspace(0.025, 0.25, 12), noise_fraction=0.03, seed=43,
    )

    paths = []
    for name, series in (
        ("t1_vs_temperature_1np.csv", t1_1np),
        ("t1_vs_temperature_1p.csv", t1_1p),
        ("t2star_vs_temperature_1p.csv", t2_1p),
    ):
        path = out_dir / name
        dataseries_to_csv(series, path)
        paths.append(path)
    return paths


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else DATA
    for path in write_example_datasets(out_dir):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
