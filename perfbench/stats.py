"""Order statistics and calibration thresholds shared by the workloads."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, beyond: int = 10) -> tuple[float, float]:
    """(value, percentile) of the highest rank with ``beyond`` samples above it.

    With fewer than ``beyond + 1`` samples no such rank exists; the maximum
    is returned with percentile 100 so the caller can report it as such.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return float(ordered[-1]), 100.0
    return float(ordered[n - beyond - 1]), 100.0 * (n - beyond) / n


def share_floor(n: int, target: float = 0.90, z: float = 3.0) -> float:
    """Lowest observed share of n trials still consistent with ``target``.

    A calibration check fails when the observed share lies more than z
    binomial standard errors below the target, so a run does not fail by
    chance when the true share sits just above it.
    """
    return target - z * math.sqrt(target * (1.0 - target) / n)


def share_check(label: str, hits: int, n: int, target: float = 0.90) -> list[str]:
    if n == 0:
        return [f"{label}: no samples"]
    floor = share_floor(n, target)
    if hits / n < floor:
        return [
            f"{label}: {hits}/{n} = {hits / n:.3f} below {target:.2f} "
            f"(floor {floor:.3f} at n={n})"
        ]
    return []
