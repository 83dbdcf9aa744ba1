"""Worker-count policy of the Monte-Carlo estimator's realization pool.

The A2G_LOS_THREADS environment variable caps the number of workers;
0 or unset means automatic (one per CPU). Results are combined in input
order, so the worker count never affects outputs.
"""

from __future__ import annotations

import os


def worker_count() -> int:
    auto = os.cpu_count() or 1
    raw = os.environ.get("A2G_LOS_THREADS", "0").strip()
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"A2G_LOS_THREADS must be an integer, got {raw!r}") from exc
    if cap < 0:
        raise ValueError(f"A2G_LOS_THREADS must be >= 0, got {cap}")
    return auto if cap == 0 else min(cap, auto)
