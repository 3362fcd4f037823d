"""Machine-speed calibration for the benchmark's end-to-end times.

A shared machine's speed drifts: on a 2-core x86-64 VM, the same
``verify_all`` job took 3.9 s in one minute and 5.8 s in another, and
process CPU time rose with wall time, so the host set the pace.  A fixed
kernel timed between jobs slows down with them, so each job's time is
scaled by ``REFERENCE_S / kernel time``: the time the job would take at the
speed where the kernel takes ``REFERENCE_S``.  The kernel is code of this
benchmark only, so no change to ``qbacktrack`` can move it.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.035  # the kernel's time at the reference speed
_matrix = None


def _loop() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return time.perf_counter() - start


def _eigh() -> float:
    import numpy as np  # lazily, so that importing this module costs no set-up time

    global _matrix
    if _matrix is None:
        a = np.random.default_rng(0).standard_normal((450, 450))
        _matrix = a + a.T
    start = time.perf_counter()
    np.linalg.eigh(_matrix)
    return time.perf_counter() - start


def kernel_seconds() -> float:
    """An interpreter loop plus a dense eigensolve, like the workloads' mix.

    Each part is the median of a few runs, so a short stall does not count.
    The matrix is the size of the largest walks the workloads build.
    """
    return statistics.median(_loop() for _ in range(5)) + statistics.median(_eigh() for _ in range(3))


def scale() -> float:
    """Reference seconds per measured second, now."""
    return REFERENCE_S / kernel_seconds()
