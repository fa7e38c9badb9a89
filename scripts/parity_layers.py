"""Per-layer timings of parity scans, interleaved over checkouts.

    python3 scripts/parity_layers.py [--root CHECKOUT ...] [--seed N]
        [--ops N] [--rounds N] [--json FILE]

Times ``synthesize_scan`` and ``estimate_parity_lifetime`` on the items of
the ``parity_scan`` benchmark workload: ``perfbench/parity_scan.py`` of the
checkout holding this script is imported, never edited, and its
``Workload.run`` is called with a recording tracer, so the timed calls are
the ones its ``parity.synthesize.<regime>`` and ``parity.estimate.<regime>``
spans cover.  Each round starts one fresh interpreter per checkout
(default: the one holding this script), with the checkout order rotating
each round; it imports ``qpgap`` from the checkout's ``src/``, runs one
untimed warm-up operation, then operations 0 .. ``--ops`` - 1, which cycle
over the fast, moderate and protected regimes.

Prints, per regime and checkout, the median and quartiles in ms over all
rounds, and the Lorentzian terms of the scans: ``segments`` is the count
a loop over each pixel's segments adds (one per piece between events),
``states`` the count a sum over each pixel's distinct (offset charge,
parity) states adds.  Both depend only on the traces, so every checkout
shares them.  ``--json FILE`` also writes the samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent


def term_counts(parity, charge, n_pixels: int, pixel_seconds: float):
    """(segments, states) of one scan: its Lorentzian terms, both ways."""
    import numpy as np

    jump_times = charge.jump_times
    times = np.concatenate([jump_times, parity.switch_times])
    order = np.argsort(times, kind="stable")
    times = times[order]
    flips = np.concatenate([[0], np.cumsum(order >= len(jump_times))])
    ng = np.asarray(charge.ng_values)[np.arange(len(flips)) - flips]
    odd = (parity.initial_parity + flips) % 2
    t0 = np.arange(n_pixels) * pixel_seconds
    lo = np.searchsorted(times, t0, side="right")
    hi = np.searchsorted(times, t0 + pixel_seconds, side="left")
    count = hi - lo + 1
    event = np.repeat(lo - (np.cumsum(count) - count), count)
    event += np.arange(len(event))
    pixel = np.repeat(np.arange(n_pixels), count)
    states = np.unique(np.column_stack([pixel, ng[event], odd[event]]), axis=0)
    return int(count.sum()), len(states)


def worker(root: Path, seed: int, ops: int) -> dict:
    """Samples of one interpreter: span durations in ms and term counts."""
    sys.path[:0] = [str(root / "src"), str(HERE / "perfbench")]
    import parity_scan
    from tracer import Tracer

    workload = parity_scan.Workload(seed, root)
    workload.run(workload.warmup, Tracer(False))
    tracer = Tracer(True)
    terms = {regime: [0, 0] for regime in parity_scan.CYCLE}
    for index in range(ops):
        item = workload.item(index)
        out = workload.run(item, tracer)
        scan = out["scan"]
        counted = term_counts(out["parity"], out["charge"], scan.n_pixels,
                              scan.pixel_seconds)
        terms[item[0]] = [t + c for t, c in zip(terms[item[0]], counted)]
    ms = {}
    for regime in parity_scan.CYCLE:
        for layer in ("synthesize", "estimate"):
            name = f"parity.{layer}.{regime}"
            ms[name] = [1e3 * d for d in tracer.durations(name)]
    return {"ms": ms, "terms": terms}


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, action="append",
                        help="checkout to time (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=30,
                        help="operations per interpreter (default 30)")
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
    terms = None
    for round_index in range(args.rounds):
        for i in [(k + round_index) % len(roots) for k in range(len(roots))]:
            proc = subprocess.run(
                [sys.executable, __file__, "--worker", str(roots[i]),
                 "--seed", str(args.seed), "--ops", str(args.ops)],
                env=env, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            terms = result["terms"]
            for name, values in result["ms"].items():
                samples[i].setdefault(name, []).extend(values)

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "seed": args.seed,
        "ops": args.ops,
        "rounds": args.rounds,
        "terms": {regime: {"segments": segments, "states": states}
                  for regime, (segments, states) in terms.items()},
        "checkouts": [
            {"root": str(root),
             "spans_ms": {name: {**summary(values), "samples": values}
                          for name, values in sample.items()}}
            for root, sample in zip(roots, samples)
        ],
    }
    print(f"seed {args.seed}, {args.rounds} rounds x {args.ops} operations; "
          "ms: median [q1-q3]")
    for name in samples[0]:
        print(f"  {name}")
        for entry in report["checkouts"]:
            stats = entry["spans_ms"][name]
            print(f"    {stats['median']:8.3f} [{stats['q1']:.3f}-"
                  f"{stats['q3']:.3f}]  {entry['root']}")
    print("Lorentzian terms over one interpreter's operations:")
    for regime, counts in report["terms"].items():
        ratio = counts["states"] / counts["segments"]
        print(f"  {regime:10s} segments {counts['segments']:8d}  "
              f"states {counts['states']:8d}  ({ratio:.4f})")
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
