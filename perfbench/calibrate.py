"""Speed normalization for a shared machine.

Other tenants of a shared host slow every process on it by up to ~1.7x for
seconds at a time, so raw wall times of the same work differ by tens of
percent from run to run.  The benchmark therefore times a fixed unit of
pure-Python work, the kernel below, every few milliseconds next to the
operations it measures, and reports each operation's time scaled by
``REFERENCE_KERNEL_NS / kernel time``: the time the operation would take on
a machine where the kernel takes exactly the reference time.  The kernel
is the benchmark's own code, so no change to the package can speed it up.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter_ns

#: The kernel's typical duration on the machine where the benchmark was
#: defined (2 vCPUs of an Intel Xeon VM, Python 3.11), so normalized times
#: read close to wall times there.
REFERENCE_KERNEL_NS = 250_000


def kernel() -> tuple:
    """Fraction arithmetic, dict updates and string building, like the package."""
    acc = Fraction(0)
    for i in range(1, 25):
        acc += Fraction(i, 6) * Fraction(2 * i + 1, 7)
    counts: dict[int, int] = {}
    for i in range(150):
        counts[i % 13] = counts.get(i % 13, 0) + i * i
    return acc, " ".join(str(v) for v in counts.values())


def kernel_ns() -> int:
    start = perf_counter_ns()
    kernel()
    return perf_counter_ns() - start
