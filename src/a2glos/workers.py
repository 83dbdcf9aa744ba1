"""Worker-count policy, left from the Monte-Carlo estimator's old pool.

No code runs a pool now: `rt_sim` and `fit` import `worker_count` only for
the benchmark's tracer, which wraps it there by name, until ROADMAP item 1
drops those wraps. A2G_LOS_THREADS caps the count; 0 or unset means one per CPU.
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
