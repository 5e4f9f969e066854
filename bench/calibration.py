"""Speed of the CPU right now, from a fixed pure-Python kernel.

On a shared machine the speed of one core changes with the load its
neighbours put on it: on the 2-vCPU x86-64 VM (Intel Xeon, Python 3.11)
this benchmark was written on, a core ran up to 1.9 times slower for
stretches of 5 to 30 seconds, so that raw times of the same run of 30
seconds differed by up to a factor of two.  The benchmark therefore times
this kernel right before and right after each call and reports the call's
latency at the reference speed:

    latency * KERNEL_REF_S / (mean of the two kernel times)

The kernel does the kind of work the package does (dicts keyed by tuples
of ints, int arithmetic, Fraction arithmetic) and uses only the standard
library, so no change to the package can change its time.  Normalised this
way, the sum of latencies over 20-second windows of one run varied by 2.5%
where the raw sums varied by 16%.
"""

from fractions import Fraction
from time import perf_counter

# Kernel time on an unloaded core of the machine described above.
KERNEL_REF_S = 125e-6


def _kernel() -> int:
    table = {}
    for i in range(60):
        for j in range(8):
            key = (i + j, i - j)
            table[key] = table.get(key, 0) + i * j
    total = Fraction(0)
    for i in range(1, 15):
        total += Fraction(i, i + 1)
    return len(table) + total.denominator


def kernel_seconds() -> float:
    """Fastest of three runs of the kernel, so that one interruption does not count."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best
