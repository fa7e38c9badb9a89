"""Per-layer timings of device points, interleaved over checkouts.

    python3 scripts/device_layers.py [--root CHECKOUT ...] [--seed N]
        [--ops N] [--rounds N] [--json FILE]

Times each step of the ``device_sweep`` benchmark workload: config load,
(EJ, EC) inversion, eigensolves, dispersions, cavity shifts, gap
verdicts and fits.  ``perfbench/device_sweep.py`` of the checkout holding
this script is imported, never edited, and its ``Workload.run`` is called
with a recording tracer, so each timed call is one its spans cover.  Each
input runs once, unlike a traced benchmark run, which repeats every
operation untraced.  Each round starts one fresh interpreter per checkout
(default: the one holding this script), with the checkout order rotating
each round; it imports ``qpgap`` from the checkout's ``src/``, runs one
untimed warm-up operation, then operations 0 .. ``--ops`` - 1, which
alternate between (ng0, ng05) and (ng0, ef) inversions.

Prints, per span and checkout, the median and quartiles in ms over all
rounds and the span's summed time per operation, then the wall time of
one operation (spans included) and the inversions whose bracket ends
came from the bracket cache (``-`` for a checkout without one).
``--json FILE`` also writes the samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def worker(root: Path, seed: int, ops: int) -> dict:
    """Samples of one interpreter: span and operation durations in ms."""
    sys.path[:0] = [str(root / "src"), str(HERE / "perfbench")]
    import device_sweep
    from qpgap import transmon
    from tracer import Tracer

    workload = device_sweep.Workload(seed, root)
    items = [workload.item(index) for index in range(ops)]
    workload.run(workload.warmup, Tracer(False))
    cache = getattr(transmon, "_bracket_observables", None)
    before = cache.cache_info() if cache else None
    tracer = Tracer(True)
    op_ms = []
    for item in items:
        start = time.perf_counter()
        workload.run(item, tracer)
        op_ms.append(1e3 * (time.perf_counter() - start))
    ms, per_op = {}, {}
    for name, *_ in tracer.spans:
        if name not in ms:
            durations = [1e3 * d for d in tracer.durations(name)]
            ms[name] = durations
            per_op[name] = sum(durations) / ops
    served = None
    if cache:
        after = cache.cache_info()
        served = [after.hits - before.hits,
                  after.hits + after.misses - before.hits - before.misses]
    return {"ms": ms, "per_op_ms": per_op, "op_ms": op_ms,
            "bracket_cache": served}


def summary(samples: list[float]) -> dict:
    # quantiles needs two samples; a single sample is its own quartiles
    q1, median, q3 = (
        statistics.quantiles(samples, n=4, method="inclusive")
        if len(samples) > 1 else samples * 3
    )
    return {"q1": q1, "median": median, "q3": q3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, action="append",
                        help="checkout to time (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=40,
                        help="operations per interpreter (default 40)")
    parser.add_argument("--rounds", type=int, default=5,
                        help="interpreters per checkout (default 5)")
    parser.add_argument("--json", type=Path, help="also write the samples")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker is not None:
        print(json.dumps(worker(args.worker, args.seed, args.ops)))
        return 0
    roots = [root.resolve() for root in args.root or [HERE]]

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    samples = [{} for _ in roots]
    per_op = [{} for _ in roots]
    op_ms = [[] for _ in roots]
    served = [None for _ in roots]
    for round_index in range(args.rounds):
        for i in [(k + round_index) % len(roots) for k in range(len(roots))]:
            proc = subprocess.run(
                [sys.executable, __file__, "--worker", str(roots[i]),
                 "--seed", str(args.seed), "--ops", str(args.ops)],
                env=env, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            for name, values in result["ms"].items():
                samples[i].setdefault(name, []).extend(values)
                per_op[i].setdefault(name, []).append(result["per_op_ms"][name])
            op_ms[i].extend(result["op_ms"])
            if result["bracket_cache"] is not None:
                hits, total = served[i] or (0, 0)
                served[i] = (hits + result["bracket_cache"][0],
                             total + result["bracket_cache"][1])

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "seed": args.seed,
        "ops": args.ops,
        "rounds": args.rounds,
        "checkouts": [
            {"root": str(root),
             "op_ms": {**summary(ops), "samples": ops},
             "bracket_cache": (None if counts is None else
                               {"served": counts[0], "inversions": counts[1]}),
             "spans_ms": {name: {**summary(values),
                                 "per_op_ms": statistics.median(sums[name]),
                                 "samples": values}
                          for name, values in sample.items()}}
            for root, sample, sums, ops, counts
            in zip(roots, samples, per_op, op_ms, served)
        ],
    }
    print(f"seed {args.seed}, {args.rounds} rounds x {args.ops} operations; "
          "ms per span: median [q1-q3], then the median per operation")
    for name in samples[0]:
        print(f"  {name}")
        for entry in report["checkouts"]:
            stats = entry["spans_ms"].get(name)
            if stats is None:
                continue
            print(f"    {stats['median']:8.4f} [{stats['q1']:.4f}-"
                  f"{stats['q3']:.4f}]  {stats['per_op_ms']:8.4f}/op  "
                  f"{entry['root']}")
    print("  operation (spans included)")
    for entry in report["checkouts"]:
        stats = entry["op_ms"]
        print(f"    {stats['median']:8.4f} [{stats['q1']:.4f}-"
              f"{stats['q3']:.4f}]  {entry['root']}")
    print("inversions served by the bracket cache:")
    for entry in report["checkouts"]:
        counts = entry["bracket_cache"]
        share = ("-" if counts is None else
                 f"{counts['served']}/{counts['inversions']}")
        print(f"  {share:>10s}  {entry['root']}")
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
