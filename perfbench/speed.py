"""Reference job that measures how fast the machine runs right now.

On a host whose cores are shared with other tenants the same work can take
up to 1.8 times as long from one second to the next, and its median moves
by about 1.5 times over minutes.  Medians over a run do not remove that.
So the benchmark times a fixed reference job before and after every
operation and every set-up, and reports every end-to-end time at the
reference speed: a wall time ``t`` between reference times ``before`` and
``after`` is reported as

    t * NOMINAL_S / ((before + after) / 2)

The job is the same in every version of qpgap, so a reported time moves
when qpgap does more or less work, not when the host slows down.  The wall
times are kept in the result file next to the reported ones.

The job starts a bare interpreter (``python -S -c pass``) and waits for it.
On the machine the benchmark was tuned on (2 vCPUs of an Intel Xeon under
KVM) it tracked the speed of cold CLI runs, of set-ups and of in-process
operations better than a job of interpreted Python and small numpy calls
run in the benchmark's own process.  A sample is the shorter of two
back-to-back starts, which drops the hiccups of a single one.  NOMINAL_S
is roughly the median sample there, so reported times read close to wall
times on that machine.
"""

from __future__ import annotations

import subprocess
import sys
import time

NOMINAL_S = 0.010
RUNS = 2  # starts per sample


def sample() -> float:
    """Shortest wall time of RUNS bare interpreter starts, in seconds."""
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
        times.append(time.perf_counter() - start)
    return min(times)


class Clock:
    """The reference samples of one run, and times scaled by them."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, job time)

    def tick(self) -> int:
        """Take a sample now; returns its index."""
        self.samples.append((time.perf_counter(), sample()))
        return len(self.samples) - 1

    def scale(self, elapsed: float, before: int, after: int) -> float:
        """``elapsed``, measured between samples ``before`` and ``after``,
        at the reference speed.

        Only the two samples around the operation count: the speed changes
        within seconds, and samples further away track it less well.
        """
        job = 0.5 * (self.samples[before][1] + self.samples[after][1])
        return elapsed * NOMINAL_S / job

    def to_json(self) -> dict:
        return {"at_s": [at for at, _ in self.samples],
                "job_ms": [1e3 * job for _, job in self.samples]}

