"""Machine speed at the moment of measurement.

On a shared virtual machine the speed of a CPU drifts by up to a factor of
two over tens of seconds, and it moves process CPU time as much as wall
time.  :func:`calibrate` times a fixed piece of work of the same kind as
the package's (small factorizations and interpreter-bound Python) that no
change to ``src/`` can affect.  The benchmark runs it around every timed
call and scales each time by ``REFERENCE_S`` over its result, so times are
reported in milliseconds at a fixed reference speed: the speed at which
this loop takes ``REFERENCE_S`` seconds.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.005
_MATRIX = np.random.default_rng(0).standard_normal((30, 30))


def calibrate() -> float:
    """Seconds taken by the fixed reference work."""
    t0 = perf_counter()
    for _ in range(10):
        np.linalg.svd(_MATRIX)
        np.linalg.eigvalsh(_MATRIX @ _MATRIX.T)
        counts: dict = {}
        for i in range(1500):
            counts[i % 97] = counts.get(i % 97, 0.0) + i * 0.5
    return perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Scale for a time measured between two calibrations."""
    return REFERENCE_S / ((before + after) / 2.0)


def factors(cal: list) -> list:
    """Scale for each of the ``len(cal) - 1`` times measured between
    consecutive calibrations: the median of the two calibrations on each
    side, which tracks the drift but not the jitter of a single one."""
    return [REFERENCE_S / statistics.median(cal[max(0, i - 1):i + 3])
            for i in range(len(cal) - 1)]
