"""Environment of every process the benchmark starts, and where they write."""

from __future__ import annotations

import os
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
WORKDIR = ".bench_out"  # results, traces and CLI outputs, in the checkout


def child_env(root: Path, threads: int = 1) -> dict:
    """The caller's environment with ``root/src`` first on the import path
    and the BLAS and OpenMP thread counts pinned to ``threads``."""
    env = dict(os.environ)
    src = str(root / "src")
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + os.pathsep + path if path else src
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)
    return env
