"""Machine speed during a run, measured with a fixed reference workload.

The benchmark runs on shared hosts whose speed swings by 10-30% within
seconds and drifts over minutes; every time in a run moves with it, and
the drift is too slow for longer runs or medians to average out. So the
benchmark also times a fixed piece of interpreter work that never touches
polyrep (float math, string formatting, sorting tuples, a dict, JSON)
before every command, and reports each command time at a fixed reference
speed:

    reported_s = measured_s * REFERENCE_S / median(nearby reference times)

"Nearby" is the reference timings of the NEIGHBOURS commands before and
after the command, and its own. A change to polyrep moves the measured
time and not the reference, so it moves the reported time by the same
share. REFERENCE_S is the median reference time of the first baseline's
runs (2-vCPU Xeon, Python 3.11.7), so reported seconds read as seconds on
that machine. The run record keeps the measured seconds beside them.
"""

from __future__ import annotations

import json
import math
import statistics
from time import perf_counter

REFERENCE_S = 1.78e-3
NEIGHBOURS = 5


def reference() -> float:
    """Seconds taken by the reference work."""
    t0 = perf_counter()
    acc = 0.0
    parts = []
    for i in range(600):
        x = i * 0.37
        acc += math.hypot(x, 1.5) * 0.5 - (x % 3.0)
        parts.append(f"{x:.2f} {acc:.3f} l")
    " ".join(parts)
    state, rows = 12345, []
    for i in range(600):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        rows.append((state % 1000 / 7.0, f"k{state % 97}", i))
    rows.sort()
    totals: dict[str, float] = {}
    for x, key, _ in rows:
        totals[key] = totals.get(key, 0.0) + x
    json.dumps(totals)
    return perf_counter() - t0


def scale(reference_times: list[float]) -> float:
    """Factor that takes measured seconds to seconds at the reference speed."""
    return REFERENCE_S / statistics.median(reference_times)


def factors(reference_times: list[float]) -> list[float]:
    """Per command, the scale from the reference timings nearest to it."""
    k = NEIGHBOURS
    return [scale(reference_times[max(0, i - k):i + k + 1])
            for i in range(len(reference_times))]
