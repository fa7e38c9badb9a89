"""Per-layer timings of an in-process benchmark workload, over checkouts.

    python3 scripts/layers.py --workload {device_sweep,parity_scan}
        [--root CHECKOUT ...] [--seed N] [--ops N] [--rounds N] [--json FILE]

Times each span of the named benchmark workload: for ``device_sweep``,
config load, (EJ, EC) inversion, eigensolves, dispersions, cavity shifts,
gap verdicts and fits; for ``parity_scan``, trace simulation, the scan
window, and scan synthesis and lifetime grading per regime.  The
workload's module and ``perfbench/tracer.py`` of the checkout holding
this script are imported, never edited, and ``Workload.run`` is called
with a recording tracer, so each timed call is one its spans cover.  Each
input runs once, unlike a traced benchmark run, which repeats every
operation untraced.  Each round starts one fresh interpreter per checkout
(default: the one holding this script), with one BLAS thread and the
checkout order rotating each round; it imports ``qpgap`` from the
checkout's ``src/``, runs one untimed warm-up operation, then operations
0 .. ``--ops`` - 1.

Prints, per span and checkout, the median and quartiles in ms over all
rounds and the span's summed time per operation (the median over the
rounds), then the wall time of one operation (spans included), then one
interpreter's count of the workload's counter (each interpreter of a
checkout counts the same):

* ``device_sweep``: the inversions whose bracket ends came from the
  bracket cache (``served``) of all inversions, and the eigen memo's
  misses (``solves_per_op``, one eigensolve each) and hits
  (``memo_hits_per_op``) per operation, from ``transmon._solve``;
* ``parity_scan``: the blocks, the Lorentzian terms and the detections
  of each regime's scans.  ``blocks`` counts the blocks of pixel rows
  that synthesis and grading each make of a scan.  ``segments`` is the
  count a loop over each pixel's segments adds (one per piece between
  events), ``states`` the count a sum over each pixel's distinct
  (offset charge, parity) states adds.  Both depend only on the traces.
  ``maxima`` counts the local maxima above each row's threshold that
  grading passes to its per-scan cluster pass, ``clusters`` the clusters
  that pass makes of them; both are read from the scan and the
  estimate's thresholds.  Every checkout shares the last four.

``--json FILE`` also writes the samples.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cold_start import interleave, summary

HERE = Path(__file__).resolve().parent.parent


def device_counts(run) -> dict:
    """Inversions whose bracket ends came from the bracket cache (served),
    of all inversions; and the eigen memo's misses (solves) and hits per
    operation."""
    from qpgap._inversion import _bracket_observables as cache
    from qpgap.transmon import _solve as memo

    ops = []
    before, memo_before = cache.cache_info(), memo.cache_info()
    run(lambda item, out: ops.append(item))
    after, memo_after = cache.cache_info(), memo.cache_info()
    return {"served": after.hits - before.hits,
            "inversions": after.hits + after.misses
            - before.hits - before.misses,
            "solves_per_op": (memo_after.misses - memo_before.misses)
            / len(ops),
            "memo_hits_per_op": (memo_after.hits - memo_before.hits)
            / len(ops)}


def scan_counts(run) -> dict:
    """Blocks, Lorentzian terms (segments, states) and detections (maxima,
    clusters) of each regime's scans."""
    from qpgap.parity import _block_rows

    terms = {}

    def count(item, out):
        scan = out["scan"]
        counts = terms.setdefault(item[0], dict.fromkeys(
            ("blocks", "segments", "states", "maxima", "clusters"), 0))
        found = (
            -(-scan.n_pixels // _block_rows(len(scan.frequencies_ghz))),
            *term_counts(out["parity"], out["charge"], scan.n_pixels,
                         scan.pixel_seconds),
            *detection_counts(scan, out["estimate"].thresholds),
        )
        for key, value in zip(counts, found):
            counts[key] += value

    run(count)
    return terms


def detection_counts(scan, thresholds) -> tuple[int, int]:
    """(maxima, clusters) of one scan: its local maxima above threshold,
    and the runs of one row's maxima with no gap wider than a linewidth."""
    import numpy as np

    amps = scan.amplitudes
    # a sample tops its left neighbour and at least equals its right one;
    # the first column must top its right neighbour, the last its left
    padded = np.pad(amps, ((0, 0), (1, 1)), constant_values=-np.inf)
    left, right = padded[:, :-2], padded[:, 2:]
    tops_right = amps >= right
    tops_right[:, 0] = amps[:, 0] > right[:, 0]
    row, col = np.nonzero((amps > thresholds[:, None]) & (amps > left)
                          & tops_right)
    pos = np.asarray(scan.frequencies_ghz)[col]
    joins = (row[1:] == row[:-1]) & (
        pos[1:] - pos[:-1] <= scan.linewidth_mhz / 1e3)
    return len(row), len(row) - int(np.count_nonzero(joins))


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


# workload -> its counter: called with a ``run(count)`` that times the
# operations and passes each (item, output) to ``count``, untimed
COUNTERS = {"device_sweep": device_counts, "parity_scan": scan_counts}


def worker(name: str, root: Path, seed: int, ops: int) -> dict:
    """Samples of one interpreter: span and operation durations in ms,
    and the workload's counter."""
    sys.path[:0] = [str(root / "src"), str(HERE / "perfbench")]
    workload_module = importlib.import_module(name)
    from tracer import Tracer

    workload = workload_module.Workload(seed, root)
    items = [workload.item(index) for index in range(ops)]
    workload.run(workload.warmup, Tracer(False))
    tracer = Tracer(True)
    op_ms = []

    def run(count):
        for item in items:
            start = time.perf_counter()
            out = workload.run(item, tracer)
            op_ms.append(1e3 * (time.perf_counter() - start))
            count(item, out)

    counter = COUNTERS[name](run)
    ms = {}
    for span, start, end, *_ in tracer.spans:
        ms.setdefault(span, []).append(1e3 * (end - start))
    return {"ms": ms, "op_ms": op_ms, "counter": counter}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=COUNTERS)
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
        print(json.dumps(worker(args.workload, args.worker, args.seed,
                                args.ops)))
        return 0
    roots = [root.resolve() for root in args.root or [HERE]]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")

    def interpreter(root: Path) -> dict:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--worker", str(root), "--seed", str(args.seed),
             "--ops", str(args.ops)],
            env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(proc.stdout.splitlines()[-1])

    runs = interleave(roots, [{"run": lambda r=root: interpreter(r)}
                              for root in roots], args.rounds)
    checkouts = []
    for root, results in zip(roots, (run["run"] for run in runs)):
        spans = {}
        for name in results[0]["ms"]:
            values = [v for result in results for v in result["ms"][name]]
            spans[name] = {**summary(values), "samples": values,
                           "per_op_ms": statistics.median(
                               sum(result["ms"][name]) / args.ops
                               for result in results)}
        op_ms = [v for result in results for v in result["op_ms"]]
        checkouts.append({"root": str(root),
                          "op_ms": {**summary(op_ms), "samples": op_ms},
                          "spans_ms": spans,
                          "counter": results[0]["counter"]})
    report = {"python": platform.python_version(),
              "machine": platform.machine(), "cpus": os.cpu_count(),
              "workload": args.workload, "seed": args.seed, "ops": args.ops,
              "rounds": args.rounds, "checkouts": checkouts}

    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds x "
          f"{args.ops} operations; ms per span: median [q1-q3], then the "
          "median per operation")
    for name in checkouts[0]["spans_ms"]:
        print(f"  {name}")
        for entry in checkouts:
            print_row(entry["spans_ms"][name], entry["root"])
    print("  operation (spans included)")
    for entry in checkouts:
        print_row(entry["op_ms"], entry["root"])
    print(f"{COUNTERS[args.workload].__name__}, over one interpreter's "
          "operations:")
    for entry in checkouts:
        print(f"  {json.dumps(entry['counter'])}  {entry['root']}")
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


def print_row(stats: dict, root: str) -> None:
    per_op = f"  {stats['per_op_ms']:8.4f}/op" if "per_op_ms" in stats else ""
    print(f"    {stats['median']:8.4f} [{stats['q1']:.4f}-{stats['q3']:.4f}]"
          f"{per_op}  {root}")


if __name__ == "__main__":
    sys.exit(main())
