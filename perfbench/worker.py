"""One benchmark process: set up a workload, run its operations, check them.

run.py starts this file in a fresh interpreter, so the set-up time it
reports covers interpreter start, imports, input generation and one
untimed warm-up operation.  The last stdout line is one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --spawned-at T [--setup-only]

``--spawned-at`` is run.py's ``time.monotonic()`` just before it started
this process.  With ``--setup-only`` the process stops after the warm-up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import speed
import stats
from procs import WORKDIR
from tracer import Tracer

WORKLOADS = ("cli_cold", "parity_scan", "device_sweep")
# cycles each other workload runs in a traced run, so that every traced
# run reports every per-layer metric
COMPLEMENT_CYCLES = {"cli_cold": 1, "parity_scan": 2, "device_sweep": 2}
MAX_PROBLEMS = 20


def make(name: str, seed: int, root: Path):
    return importlib.import_module(name).Workload(seed, root)


class Tally:
    """Attempted and failed operations, their latencies and summaries."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.latencies = {False: [], True: []}  # by traced
        self.summaries = {False: [], True: []}
        self.scaled: list[float] = []  # untraced latencies at reference speed
        self.clock = speed.Clock()
        self.op_refs: list[int] = []  # reference sample before each of them

    def run(self, wl, item, tr, op_id: int, tamper=None, timed=True):
        """Run, time and check one operation; count it.

        Returns the latency it recorded, or None.  An untimed operation is
        counted and checked but leaves no latency or summary behind.
        ``tamper`` (used by selftest.py to plant wrong answers) may replace
        the output before it is checked.
        """
        self.attempted += 1
        tr.op_id = op_id
        recorded = None
        try:
            start = time.perf_counter()
            with tr.span(f"op.{wl.name}"):
                out = wl.run(item, tr)
            elapsed = time.perf_counter() - start
            if tamper is not None:
                out = tamper(item, out)
            summary, problems = wl.check(item, out)
        except Exception as exc:  # any failure of the program is counted
            problems = [f"{type(exc).__name__}: {exc}"]
            traceback.print_exc(file=sys.stderr)
        else:
            if timed:
                self.latencies[tr.enabled].append(elapsed)
                self.summaries[tr.enabled].append(summary)
                recorded = elapsed
        if problems:
            self.failed += 1
            self.problems += [f"{wl.name} op {op_id}: {p}" for p in problems]
        return recorded


def measure(wl, tally: Tally, tracer: Tracer, paired: bool, seconds: float,
            per_cycle: int) -> int:
    """The timed loop; returns the number of inputs it ran.

    Runs whole cycles of ``per_cycle`` inputs, at least two, and stops at
    the cycle boundary nearest to ``seconds`` (judged by the mean cycle
    time so far), so every run keeps the same mix of operation kinds.
    Paired, each input runs twice, untraced and traced, in alternating
    order so neither side always runs warm.  The reference job of speed.py
    runs before and after every operation; each untraced latency is also
    kept at the reference speed (``tally.scaled``).
    """
    off = Tracer(False)
    clock = tally.clock
    untraced = []  # (latency, reference sample before, sample after)
    start = time.monotonic()
    before = clock.tick()
    k = 0
    while k < 2 * per_cycle or _more(time.monotonic() - start, k // per_cycle,
                                     seconds):
        for _ in range(per_cycle):
            item = wl.item(k)
            sides = (off,) if not paired else (
                (off, tracer) if k % 2 == 0 else (tracer, off))
            for tr in sides:
                elapsed = tally.run(wl, item, tr, k)
                after = clock.tick()
                if elapsed is not None and not tr.enabled:
                    untraced.append((elapsed, before, after))
                before = after
            k += 1
    tally.scaled = [clock.scale(*op) for op in untraced]
    tally.op_refs = [first for _, first, _ in untraced]
    return k


def _more(elapsed: float, cycles: int, seconds: float) -> bool:
    """Whether one more cycle ends nearer to ``seconds`` than stopping now."""
    return elapsed + 0.5 * elapsed / cycles < seconds


def end_to_end(wl, tally: Tally) -> dict:
    """End-to-end metrics at the reference speed; set-up is run.py's."""
    lat = tally.scaled
    raw = tally.latencies[False]
    tail, percentile = stats.tail(lat)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_cold" else resource.RUSAGE_SELF
    return {
        "metrics": {
            "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
            "op_ms_p50": (1e3 * stats.median(lat), "ms"),
            "op_ms_tail": (1e3 * tail, "ms"),
            "ok_frac": (1.0 - tally.failed / tally.attempted, "frac"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        },
        "info": {"samples": len(lat), "tail_percentile": percentile,
                 "failed_frac": tally.failed / tally.attempted,
                 "wall": {"throughput_ops_s": len(raw) / sum(raw),
                          "op_ms_p50": 1e3 * stats.median(raw),
                          "op_ms_tail": 1e3 * stats.tail(raw)[0]},
                 "op_ms": [1e3 * t for t in lat],
                 "op_ms_wall": [1e3 * t for t in raw],
                 "op_ref": tally.op_refs,
                 "reference": tally.clock.to_json()},
    }


def per_layer(wl, tally: Tally, tracer: Tracer, seed: int, root: Path):
    """Per-layer table of a traced run, completed by the other workloads."""
    traced = tally.latencies[True]
    overhead = sum(traced) / sum(tally.latencies[False]) - 1.0
    layers = {}
    by_name = {wl.name: (wl, tally.summaries[True])}
    for name in WORKLOADS:
        if name == wl.name:
            continue
        module = importlib.import_module(name)
        other = make(name, seed, root)
        side = Tally()
        for k in range(COMPLEMENT_CYCLES[name] * module.OPS_PER_CYCLE):
            side.run(other, other.item(k), tracer, 1_000_000 + k)
        tally.attempted += side.attempted
        tally.failed += side.failed
        tally.problems += side.problems
        by_name[name] = (other, side.summaries[True])
    cli, _ = by_name["cli_cold"]
    layers.update(cli.probe(tracer))
    for name, (workload, summaries) in by_name.items():
        layers.update(workload.layer_metrics(tracer, summaries))
        layers[f"glue.{name}.op_self_ms"] = (
            1e3 * stats.median(tracer.self_times(f"op.{name}")), "ms")
    layers["trace.overhead_frac"] = (overhead, "frac")
    return {"metrics": layers,
            "info": {"samples": len(traced), "spans": len(tracer.spans)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()

    module = importlib.import_module(args.workload)
    wl = make(args.workload, args.seed, root)
    tally = Tally()
    tally.run(wl, wl.warmup, Tracer(False), -1, timed=False)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer(bool(args.trace))
    ops = measure(wl, tally, tracer, bool(args.trace), args.seconds,
                  module.OPS_PER_CYCLE)
    off = Tracer(False)
    for k, item in enumerate(getattr(wl, "determinism_items", ())):
        tally.run(wl, item, off, 2_000_000 + k, timed=False)
    calibration = wl.calibrate(tally.summaries[bool(args.trace)])

    if args.trace:
        result = per_layer(wl, tally, tracer, args.seed, root)
        trace_path = root / WORKDIR / f"trace-{wl.name}-seed{args.seed}.json"
        trace_path.parent.mkdir(exist_ok=True)
        trace_path.write_text(json.dumps({
            "workload": wl.name,
            "seed": args.seed,
            "per_layer": {k: {"value": v, "unit": u}
                          for k, (v, u) in result["metrics"].items()},
            "trace.overhead_frac": result["metrics"]["trace.overhead_frac"][0],
            "spans": tracer.to_json(),
        }))
        result["info"]["trace_file"] = str(trace_path.relative_to(root))
    else:
        result = end_to_end(wl, tally)
    if wl.name == "cli_cold":
        result["info"]["sha256"] = dict(wl.reference)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems[:MAX_PROBLEMS],
        calibration=calibration,
        ops=ops,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
