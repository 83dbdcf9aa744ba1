"""Reference (D1, D2) solver: ``a2glos.fit.fit_parametric_curve`` as it was
before it streamed the D2 scan and refined the curves in row blocks through
buffers allocated once per call.

The oracle tests compare the buffered solver against
:func:`fit_parametric_curve` here byte for byte, so ``_profile`` and
``fit_parametric_curve`` below are kept verbatim and must not be edited.
"""

from __future__ import annotations

import numpy as np

#: D2 values the (D1, D2) fit scans [m]: every integer to 2,000 m (the SSE
#: profile over D2 is rugged there), then a geometric tail to 1e6 m.
_D2_SCAN = np.concatenate((np.arange(1.0, 2001.0), np.geomspace(2000.0, 1e6, 301)[1:]))
_D2_CHUNK = 8  # D2 values per scan block: a few MB of temporaries
# D2 refinement: nested scans of 17 points, each narrowing the bracket 8-fold
_REFINE_POINTS, _REFINE_STAGES = 17, 10


def _profile(d, lo, y, flat, d2):
    """Least-squares D1, and its SSE, at each D2 of ``d2`` (1 or C, m).

    With ``d`` descending, on interval j (D1 in [lo_j, d_j] = [d_j+1, d_j])
    the residual is 1 - y past d_j (``flat`` sums their squares) and D1 u + v
    up to it, u = (1 - e)/d, v = e - y, e = exp(-d/D2): a quadratic in D1.
    """
    x = d / d2[..., None]
    e = np.exp(-x)
    u = np.expm1(-x)
    np.divide(u, -d, out=u, where=d > 0.0)  # at d = 0, u = 0: a flat residual
    suu = np.cumsum(u * u, axis=-1)
    # v formed, not expanded to e.e - 2 e.y + y.y, which cancels where e, y ~ 1
    v = e - y[:, None, :]
    suv = np.cumsum(u * v, axis=-1)
    v *= v
    sse = np.cumsum(v, axis=-1)
    sse += flat[:, None, :]
    d1 = np.divide(suv, suu)
    np.negative(d1, out=d1)
    np.maximum(d1, lo, out=d1)
    np.minimum(d1, d, out=d1)
    # SSE at the clipped minimiser: flat + sum(v^2) + D1 (D1 suu + 2 suv)
    suv *= 2.0
    suv += d1 * suu
    suv *= d1
    sse += suv
    k = np.argmin(sse, axis=-1)[..., None]
    return np.take_along_axis(sse, k, -1)[..., 0], np.take_along_axis(d1, k, -1)[..., 0]


def fit_parametric_curve(d_grid: np.ndarray, curves: np.ndarray):
    """Least-squares (D1, D2) for one curve (n_d,) or a stack (C, n_d).

    The best D1 is exact for each D2 of _D2_SCAN; the best D2 is refined in
    its bracket, and kept only where no worse. Distances are >= 0, in any
    order. Returns (d1, d2, sse), sse summed from the residuals at (d1, d2):
    floats for one curve, arrays (C,) for a stack.
    """
    order = np.argsort(np.asarray(d_grid, dtype=float))[::-1]
    d = np.asarray(d_grid, dtype=float)[order]
    stack = np.asarray(curves, dtype=float)
    y = np.atleast_2d(stack)[:, order]
    lo = np.append(d[1:], 0.0)
    flat = np.zeros_like(y)
    flat[:, :-1] = np.cumsum(((1.0 - y) ** 2)[:, :0:-1], axis=1)[:, ::-1]

    scan = [_profile(d, lo, y, flat, _D2_SCAN[None, s:s + _D2_CHUNK])
            for s in range(0, _D2_SCAN.size, _D2_CHUNK)]
    scan_sse, scan_d1 = (np.concatenate(part, axis=1) for part in zip(*scan))
    rows = np.arange(len(y))
    i = np.argmin(scan_sse, axis=1)
    a, b = _D2_SCAN[np.clip([i - 1, i + 1], 0, _D2_SCAN.size - 1)]  # the bracket of i
    steps = np.linspace(0.0, 1.0, _REFINE_POINTS)
    for _ in range(_REFINE_STAGES):
        grid = a[:, None] + (b - a)[:, None] * steps
        ref_sse, ref_d1 = _profile(d, lo, y, flat, grid)
        j = np.argmin(ref_sse, axis=1)
        a, b = grid[rows, np.clip([j - 1, j + 1], 0, _REFINE_POINTS - 1)]
    # (scanned, refined) x curves, each SSE summed from its residuals
    d1 = np.stack([scan_d1[rows, i], ref_d1[rows, j]])
    d2 = np.stack([_D2_SCAN[i], grid[rows, j]])
    tail = np.exp(-d / d2[..., None])
    r = d1[..., None] / np.maximum(d, d1[..., None]) * (1.0 - tail) + tail - y
    sse = np.sum(r * r, axis=-1)
    pick = (sse[1] <= sse[0]).astype(int), rows
    if stack.ndim == 1:
        return float(d1[pick][0]), float(d2[pick][0]), float(sse[pick][0])
    return d1[pick], d2[pick], sse[pick]
