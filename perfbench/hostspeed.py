"""The host's speed, timed with a fixed reference loop between passes.

On a shared host the same pass takes from 1.8 s to 3.6 s, in stretches
that last from seconds to minutes, so raw pass times of two runs differ
by more than most changes to the program would. The reference loop is
timed in slices between the passes of a run; the passes and the slices
slow down together, and a run's times are scaled by

    REFERENCE_SLICE_S / mean slice time

to what they would be on a host that runs one slice in REFERENCE_SLICE_S.

The loop is the benchmark's own and imports nothing from a2glos, so a
change to the program moves the passes and leaves the slices as they
were. It does the kinds of work the program does: scalar closed-form
math in Python (``oracle.p_los``) and small numpy products in a Python
loop, in about equal shares.
"""

from __future__ import annotations

import time

import oracle

#: Seconds one slice takes at the reference speed; about its median on the
#: 2-vCPU Xeon host the README describes.
REFERENCE_SLICE_S = 0.25

#: One slice follows every this many seconds of program work, at least one.
SLICE_EVERY_S = 2.0

_P_LOS_CALLS = 16_000
_NUMPY_STEPS = 3_000


def time_slice() -> float:
    """Wall time of one slice of the reference loop."""
    import numpy as np

    t0 = time.perf_counter()
    for k in range(_P_LOS_CALLS):
        oracle.p_los(0.3, 500.0, 15.0, 0.0107, 100.0, 1.5, 0.6 * (k % 2000 + 1))
    w = np.linspace(-1.0, 1.0, 20)
    x = np.linspace(0.0, 1.0, 200)
    for _ in range(_NUMPY_STEPS):
        h = np.tanh(np.outer(x, w) + 0.1)
        w = w - 1e-6 * (h.T @ (h @ w - x))
    return time.perf_counter() - t0


def time_slices(work_s: float) -> list[float]:
    """Slices timed after a stretch of program work that took ``work_s``.

    Longer work gets more slices, so that the host's speed is sampled as
    densely after a 8 s ``fit`` pass as after a 1.5 s one.
    """
    return [time_slice() for _ in range(max(1, round(work_s / SLICE_EVERY_S)))]
