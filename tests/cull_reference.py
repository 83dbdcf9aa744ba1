"""Reference cull: one azimuth at a time, as ``a2glos.rt_sim`` culled
before it ran the culls over every azimuth at once.

``tests/test_rt_sim.py`` checks that ``rt_sim._fan_candidates`` keeps the
same receivers and (link, building) pairs as :func:`azimuth_candidates`,
so the body below is kept verbatim and must not be edited.
"""

from __future__ import annotations

import math

import numpy as np


def azimuth_candidates(scene, fan, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Valid receivers at azimuth ``k`` and the (ring, building) pairs that
    survive the corridor, bounding-circle and roof-height culls."""
    rx = fan.rx[k]
    none = np.zeros(0, dtype=np.intp)
    radius = scene._widths * (math.sqrt(2.0) / 2.0)
    ux, uy = fan.unit[k]
    along = scene._centers @ fan.unit[k]
    reach = radius + fan.corridor[k]
    near = np.nonzero(
        (np.abs(scene._centers @ np.array([-uy, ux])) <= reach)
        & (along >= -reach)
        & (along <= fan.ground[k].max() + reach)
    )[0]
    along = along[near]
    centers = scene._centers[near]
    radius = radius[near]
    half_w = scene._widths[near] / 2.0
    valid = ~(
        (np.abs(rx[:, 0][:, None] - centers[:, 0]) <= half_w)
        & (np.abs(rx[:, 1][:, None] - centers[:, 1]) <= half_w)
    ).any(axis=1)
    links = np.nonzero(valid)[0]
    if near.size == 0 or links.size == 0:
        return valid, none, none

    seg = rx[links, :2]  # (L, 2) ground tracks from the origin
    t = np.clip((seg @ centers.T) / np.sum(seg * seg, axis=1)[:, None], 0.0, 1.0)
    gap = np.hypot(
        centers[:, 0] - t * seg[:, 0][:, None], centers[:, 1] - t * seg[:, 1][:, None]
    )
    keep = gap <= radius + fan.clearance[k, links][:, None]

    slope = (fan.tx[2] - rx[links, 2])[:, None] / fan.ground[k, links][:, None]
    dip = np.maximum((along - radius) * slope, (along + radius) * slope)
    floor = fan.tx[2] - dip - fan.drop[k, links][:, None]
    keep &= scene._heights[near] >= floor

    pair_link, pair_building = np.nonzero(keep)
    return valid, links[pair_link], near[pair_building]


def fan_candidates(scene, fan) -> tuple[np.ndarray, set[tuple[int, int]]]:
    """Valid receivers (K, R) and the set of (flat link, building) pairs."""
    n_rings = fan.ground.shape[1]
    valid, pairs = [], set()
    for k in range(len(fan.unit)):
        ok, ring, near = azimuth_candidates(scene, fan, k)
        valid.append(ok)
        pairs.update(zip((k * n_rings + ring).tolist(), near.tolist()))
    return np.array(valid), pairs
