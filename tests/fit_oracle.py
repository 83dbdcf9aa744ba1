"""An independent least-squares (D1, D2) solver, the oracle of the fit tests.

With D2 fixed and D1 between two neighbouring grid distances, every
distance at or below D1 has the residual 1 - y and every one beyond it
D1 * u + v, with u = (1 - e)/d, v = e - y and e = exp(-d/D2). On each
interval the SSE is therefore a quadratic in D1, minimised at
-sum(u v)/sum(u u) clipped to the interval. This module visits the
intervals one by one in a plain loop, with the distances in ascending
order and v formed directly, and scans D2 densely; it shares no code with
``a2glos.fit``. Every SSE it reports is summed from the residuals at the
point it reports.
"""

import numpy as np

#: Dense D2 scan [m]: every integer to 2,000 m, then 1,000 geometric steps
#: to 1e6 m.
D2_DENSE = np.concatenate((np.arange(1.0, 2001.0), np.geomspace(2000.0, 1e6, 1001)[1:]))
N_INTEGER_D2 = 2000


def residual_sse(d, y, d1, d2):
    """SSE of min(D1/d, 1)(1 - e) + e against y, per curve (rows)."""
    sse = np.empty(len(y))
    for c in range(len(y)):
        tail = np.exp(-d / d2[c])
        model = np.where(d <= d1[c], 1.0, d1[c] / d * (1.0 - tail) + tail)
        sse[c] = float(np.sum((model - y[c]) ** 2))
    return sse


def profile(d, y, d2):
    """Best SSE over D1, and that D1, for each curve and each D2.

    ``d`` (n,) ascending, ``y`` (C, n), ``d2`` (1 or C, m). Returns
    (sse, d1), each (C, m).
    """
    n = len(d)
    e = np.exp(-d[:, None, None] / d2[None])  # (n, 1|C, m)
    u = (1.0 - e) / d[:, None, None]
    v = e - y.T[:, :, None]  # (n, C, m)
    flat = np.zeros((n + 1, len(y)))
    flat[1:] = np.cumsum((1.0 - y.T) ** 2, axis=0)  # sum over d[:k]
    # D1 at or above the largest distance: nothing beyond it
    best_sse = np.repeat(flat[n][:, None], v.shape[2], axis=1)
    best_d1 = np.full(best_sse.shape, d[-1])
    suu = suv = svv = 0.0  # sums over d[k:], the distances beyond D1
    for k in range(n - 1, -1, -1):  # D1 in [d[k-1], d[k]]
        suu = suu + u[k] * u[k]
        suv = suv + u[k] * v[k]
        svv = svv + v[k] * v[k]
        d1 = np.clip(-suv / suu, d[k - 1] if k else 0.0, d[k])
        sse = flat[k][:, None] + d1 * d1 * suu + 2.0 * d1 * suv + svv
        better = sse < best_sse
        best_sse = np.where(better, sse, best_sse)
        best_d1 = np.where(better, d1, best_d1)
    return best_sse, best_d1


def _scan(d, y, d2, block=100):
    """Profile over a D2 table (1 or C, m); returns (sse, d1), each (C, m)."""
    parts = [profile(d, y, d2[:, s:s + block]) for s in range(0, d2.shape[1], block)]
    return np.concatenate([p[0] for p in parts], 1), np.concatenate([p[1] for p in parts], 1)


def solve(d, curves):
    """Oracle fit of a stack of curves (C, n) over distances d (n,).

    Returns a dict of per-curve arrays: ``d1``, ``d2`` and ``sse`` of the
    refined dense-scan optimum, and ``line_sse``, the SSE of the best
    point with D2 an integer in 1..2000 and D1 free. The grid of integers
    D1 = 1..600 x D2 = 1..2000 is a subset of that line, so ``line_sse``
    is at most the integer-grid SSE.
    """
    order = np.argsort(d)
    d, y = np.asarray(d, dtype=float)[order], np.asarray(curves, dtype=float)[:, order]
    rows = np.arange(len(y))

    def best_of(sse, d1, d2):
        i = np.argmin(sse, axis=1)
        return i, d1[rows, i], np.broadcast_to(d2, sse.shape)[rows, i]

    sse, d1 = _scan(d, y, D2_DENSE[None])
    _, l1, l2 = best_of(sse[:, :N_INTEGER_D2], d1[:, :N_INTEGER_D2], D2_DENSE[None, :N_INTEGER_D2])
    line_sse = residual_sse(d, y, l1, l2)
    i, d1, d2 = best_of(sse, d1, D2_DENSE[None])
    best = residual_sse(d, y, d1, d2)
    # refine: two rounds of 201 points across the bracket of the best D2
    lo = D2_DENSE[np.maximum(i - 1, 0)]
    hi = D2_DENSE[np.minimum(i + 1, D2_DENSE.size - 1)]
    for _ in range(2):
        grid = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 201)
        j, r1, r2 = best_of(*_scan(d, y, grid), grid)
        sse = residual_sse(d, y, r1, r2)
        better = sse < best
        d1, d2, best = np.where(better, r1, d1), np.where(better, r2, d2), np.minimum(sse, best)
        lo, hi = grid[rows, np.maximum(j - 1, 0)], grid[rows, np.minimum(j + 1, 200)]
    return {"d1": d1, "d2": d2, "sse": best, "line_sse": line_sse}
