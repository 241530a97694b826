"""Machine-speed reference for scaling measured times.

The shared machines the benchmark runs on change speed by up to a factor
of two over seconds to minutes, alike for all pure-Python code.  The
benchmark therefore times a fixed kernel next to the work it measures and
reports each time as it would read on a machine where the kernel takes
``REFERENCE_NS``: time × REFERENCE_NS ÷ (kernel time nearby).  The kernel
is part of the benchmark, not of the program, so a change to the program
moves scaled times exactly as much as raw ones.

Stdlib only, so that a fresh interpreter can import it next to
``newton_mu`` without loading the rest of the benchmark.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Scaled times read as on a machine where reference_kernel() takes this long.
REFERENCE_NS = 1_500_000
# Kernel times on each side of a measurement whose median gives its speed.
HALF_WINDOW = 4


def reference_kernel() -> Fraction:
    """Fixed pure-Python work of the kinds the program does: rational
    arithmetic, small integer vectors, sorting and hashing."""
    total = Fraction(0)
    points = []
    for i in range(1, 300):
        total += Fraction(i % 7 + 1, i)
        points.append(((i * 31) % 17, (i * 7) % 13, i % 5))
    points.sort()
    seen = {p: Fraction(sum(p), i + 1) for i, p in enumerate(points)}
    return total + sum(seen.values())


def time_reference() -> int:
    start = time.perf_counter_ns()
    reference_kernel()
    return time.perf_counter_ns() - start


def median_reference(repeats: int) -> float:
    """Median kernel time over ``repeats`` runs after one warm-up run."""
    time_reference()
    return statistics.median(time_reference() for _ in range(repeats))


def speed_factors(reference_ns: list[int]) -> list[float]:
    """For each position, REFERENCE_NS over the median of the kernel times
    within HALF_WINDOW of it."""
    h = HALF_WINDOW
    return [
        REFERENCE_NS / statistics.median(reference_ns[max(0, i - h): i + h + 1])
        for i in range(len(reference_ns))
    ]
