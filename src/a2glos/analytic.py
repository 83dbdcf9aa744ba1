"""Closed-form LoS probability over a statistically described urban area.

The LoS probability of a link is the product, over the buildings expected
along the path, of the probability that each building stays below the
clearance limit of the link. Two variants are provided:

* :func:`p_los_baseline` ignores building width and the clearance zone
  (buildings are zero-thickness screens, blockage is purely optical);
* :func:`p_los` accounts for the mean building width and for the
  first-order (or order-n) Fresnel clearance requirement, which brings the
  carrier frequency into the model.

:func:`p_los_curve` is the one kernel of the width-aware product, over
arrays of links; :func:`p_los` is that kernel at one point. The per-link
product it replaced is kept as the test oracle in
``tests/analytic_reference.py``.

A clearance limit of zero or below means the building blocks the link with
certainty, so that factor is zero. The width-aware building positions can
land slightly beyond the receiver; the transverse clearance reach is
clamped at zero there so the zone radius never goes negative.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import ArrayLike

from .environment import Environment, building_count, mean_width
from .geometry import FresnelSpec, LinkGeometry

#: Default search ceiling for max_comm_distance [m].
DEFAULT_MAX_SEARCH_DISTANCE = 20_000.0

#: Rows x buildings that p_los_curve evaluates per block. It bounds the
#: temporaries to 32 KiB each; larger blocks were no faster and raised peak memory.
_CURVE_BLOCK = 4096

#: Distances per p_los_curve call in the 1 m scan of max_comm_distance.
_MCD_CHUNK = 128


def p_los_baseline(link: LinkGeometry, env: Environment) -> float:
    """Width- and frequency-blind LoS probability (optical direct path).

    Product over the expected buildings of the probability that each stays
    below the straight TX-RX line; 1.0 when no building is expected.
    """
    n = building_count(env, link.d_rx)
    if n == 0:
        return 1.0
    idx = np.arange(1, n + 1, dtype=float)
    line_height = link.h_tx - (idx - 0.5) / n * link.delta_h
    factors = 1.0 - np.exp(-(line_height**2) / (2.0 * env.gamma**2))
    return float(np.prod(factors))


def p_los(
    link: LinkGeometry,
    env: Environment,
    spec: FresnelSpec,
    width: float | None = None,
) -> float:
    """LoS probability with building width and Fresnel clearance.

    Args:
        link: link geometry.
        env: area statistics.
        spec: clearance-zone spec; order 1 is the physically standard
            choice, other orders are accepted for exploration.
        width: optional override of the mean building width [m]; the
            building count still follows from (alpha, beta).

    Returns:
        Probability in [0, 1]; exactly 1.0 when no building is expected.
    """
    return float(p_los_curve(link.h_tx, link.h_rx, link.d_rx, env, spec, width))


def p_los_curve(
    h_tx: ArrayLike, h_rx: ArrayLike, d: ArrayLike, env: Environment, spec: FresnelSpec,
    width: float | None = None,
) -> np.ndarray:
    """Width-aware LoS probability over arrays of heights and distances, broadcast together.

    A masked rows x n_max product: slots past a row's own building count are
    factors of 1, and rows with no building expected (d == 0 too) are 1.0.
    Each row's clearance scale uses math.hypot, as the per-link product it
    replaced did, so every value equals that product's bit for bit. Raises
    ValueError for non-finite heights, distances or width, h_rx < 0,
    h_tx < h_rx, h_tx <= 0, d < 0 or width < 0, whether or not any building
    is expected.
    """
    h_tx, h_rx, d = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (h_tx, h_rx, d)))
    if not (np.isfinite(h_tx).all() and np.isfinite(h_rx).all() and (h_rx >= 0.0).all()):
        raise ValueError("heights must be finite, with h_rx >= 0")
    if not ((h_tx >= h_rx) & (h_tx > 0.0)).all():
        raise ValueError("h_tx must be > 0 and not below h_rx")
    if not (np.isfinite(d) & (d >= 0.0)).all():
        raise ValueError("distances must be finite and >= 0")
    w = mean_width(env) if width is None else float(width)
    if not 0.0 <= w < math.inf:
        raise ValueError(f"width must be finite and >= 0, got {width}")
    out = np.ones(d.shape)
    flat, d, h_tx, h_rx = out.reshape(-1), d.reshape(-1), h_tx.reshape(-1), h_rx.reshape(-1)
    n = building_count(env, d)
    rows = np.flatnonzero(n)
    idx = np.arange(1.0, n.max(initial=0.0) + 1.0)
    per_block = max(1, _CURVE_BLOCK // max(idx.size, 1))
    for start in range(0, rows.size, per_block):
        sel = rows[start : start + per_block]
        dd, nn, top = d[sel, None], n[sel, None], h_tx[sel, None]
        dh = top - h_rx[sel, None]
        hyp = np.array(list(map(math.hypot, dd[:, 0].tolist(), dh[:, 0].tolist())))
        d_i = (idx - 0.5) * dd / nn + w / 2.0
        reach = np.maximum(np.minimum(d_i, dd - d_i), 0.0)
        fresnel_drop = np.sqrt(spec.order * spec.wavelength * dd) * reach / hyp[:, None]
        limits = np.maximum(top - d_i * dh / dd - fresnel_drop, 0.0)
        factors = 1.0 - np.exp(-(limits**2) / (2.0 * env.gamma**2))
        flat[sel] = np.prod(np.where(idx <= nn, factors, 1.0), axis=1)
    return out


def max_comm_distance(
    h_tx: float,
    h_rx: float,
    env: Environment,
    spec: FresnelSpec,
    threshold: float,
    max_distance: float = DEFAULT_MAX_SEARCH_DISTANCE,
    width: float | None = None,
) -> float | None:
    """Largest distance up to which the LoS probability stays above a threshold.

    Scans distance at 1 m pitch for the first downward crossing of the
    threshold, then bisects the bracketing metre down to 0.1 m. Returns the
    last distance known to satisfy the threshold, or None if the
    probability never drops below it within ``max_distance``.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    last = math.floor(max_distance)
    for start in range(1, last + 1, _MCD_CHUNK):
        ds = np.arange(start, min(start + _MCD_CHUNK, last + 1), dtype=float)
        below = np.flatnonzero(p_los_curve(h_tx, h_rx, ds, env, spec, width) < threshold)
        if below.size:
            hi = float(ds[below[0]])
            break
    else:
        return None
    lo = hi - 1.0
    # Bisect the bracketing metre [lo + a/16, lo + b/16]. Every midpoint down
    # to 0.1 m is a sixteenth of it, exact in floats, so one call evaluates
    # the 15 interior sixteenths and the halving walks over the results.
    p = p_los_curve(h_tx, h_rx, lo + np.arange(1, 16) / 16.0, env, spec, width)
    a, b = 0, 16
    while (b - a) / 16.0 > 0.1:
        mid = (a + b) // 2
        if p[mid - 1] >= threshold:
            a = mid
        else:
            b = mid
    return lo + a / 16.0


def p_los_vs_elevation(
    env: Environment,
    spec: FresnelSpec,
    h_tx: float,
    h_rx: float,
    angles: "list[float] | np.ndarray",
    width: float | None = None,
) -> list[float]:
    """LoS probability as a function of elevation angle [rad].

    Each angle maps to the horizontal distance of :func:`elevation_distances`
    at which the probability is evaluated; theta -> pi/2 collapses the
    distance to zero, where the probability is 1 by definition.
    """
    d = elevation_distances(h_tx, h_rx, angles)
    return p_los_curve(h_tx, h_rx, d, env, spec, width).tolist()


def elevation_distances(h_tx: float, h_rx: float, angles: "list[float] | np.ndarray") -> list[float]:
    """Horizontal distance delta_h / tan(theta) [m] at each elevation angle
    [rad]. The angles need the TX above the RX and must be in (0, pi/2]."""
    if not h_tx > h_rx:
        raise ValueError(f"an elevation sweep needs h_tx > h_rx, got {h_tx} and {h_rx}")
    for theta in angles:
        if not 0.0 < theta <= math.pi / 2.0:
            raise ValueError(f"elevation angle must be in (0, pi/2], got {theta}")
    return [(h_tx - h_rx) / math.tan(theta) for theta in angles]
