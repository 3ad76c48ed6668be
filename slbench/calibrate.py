"""Machine-speed calibration for the timed metrics.

The 2-vCPU machine this benchmark was built on is shared, and its speed
swings between states about 1.5x apart every few tens of seconds.  CPU time
swings with wall time, so the cause is contention for the cores, not time
stolen from the process.  Raw wall times taken a minute apart then differ by
more than any useful regression bound.

So every timed interval is paired with a calibration taken right after it,
outside the timed interval.  Two fixed pure-Python kernels share no code
with slchaos.  One does float arithmetic like the integrators' inner loops,
the other formats floats like the CSV and SVG writers.  Each is timed as the
best of two runs.  Their geometric mean over REFERENCE_S is the machine's
momentary slowness.  A measured interval divided by it is the same interval
in reference seconds: what it would have taken on the machine at the speed
that defines REFERENCE_S.

Over 150 s of simulate-suite operations on that machine, 15 s windows of raw
latency had an interquartile spread of 36% of their median; the same windows
in reference seconds had 3%.
"""

from __future__ import annotations

import math
import time

# Geometric mean of the two kernel times on the baseline machine
# (Intel Xeon, 2 vCPUs, CPython 3.11.7) in its fast state.
REFERENCE_S = 7.0e-4


def _arithmetic() -> float:
    x, y, z = 0.1, 0.1, 0.1
    for _ in range(3000):
        dx, dy, dz = 10.0 * (y - x), x * (28.0 - z) - y, x * y - 2.5 * z
        x, y, z = x + 0.002 * dx, y + 0.002 * dy, z + 0.002 * dz
    return x


def _formatting() -> str:
    return "\n".join(f"{v!r},{v:.2f}" for v in (0.1 * i + 1e-7 for i in range(800)))


def _best(kernel) -> float:
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def slowness() -> float:
    """How much slower than the reference speed the machine runs now."""
    return math.sqrt(_best(_arithmetic) * _best(_formatting)) / REFERENCE_S
