"""Ray-tracing Monte-Carlo estimator of LoS probability.

A city scene with the target area statistics is synthesized as axis-aligned
box buildings on a regular street grid (heights drawn from the Rayleigh
law, footprint and spacing fixed by the area parameters), and held as the
read-only arrays of a `Scene`. Each building contributes 10 triangles (4
walls of 2, 2 for the roof; no floor). A link is line-of-sight when no
triangle touches its Fresnel ellipsoid of order ``spec.order``; with a zero
wavelength the test degenerates to segment blockage.

Blockage tests are exact: Moller-Trumbore for ray/triangle hits, and for
the clearance test an affine map takes the ellipsoid to the unit sphere
where triangle/sphere overlap reduces to a point-triangle distance. The
per-link predicates cull buildings by a bounding-circle check only and
test the mesh of every building left; they are the reference for the
Monte-Carlo estimator, which culls harder, over every azimuth at once
(see `estimate_p_los`). At zero wavelength its verdict is a segment-box
slab test, with no triangles; with a clearance zone the slab test settles
sure blockages, and only the buildings left are triangulated for its
batched exact test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.typing import ArrayLike

from .environment import Environment, mean_width
from .geometry import FresnelSpec, LinkGeometry, fresnel_axes
# perfbench/tracing.py wraps worker_count here by name; the estimator has no pool.
from .workers import worker_count  # noqa: F401

_DET_EPS = 1e-12  # ray parallel to triangle plane below this determinant
_CULL_MARGIN = 0.5  # [m] slack of the building culls around the clearance zone
_SEGMENT_CLEARANCE = 1e-9  # [m] bounding-circle slack of the segment test
_BATCH_PAIRS = 256  # (link, building) pairs per batched exact test
_CROSS_MARGIN = 1e-3  # segment parameter kept clear of each end by the crossing pre-test
_CULL_ELEMENTS = 1 << 14  # (building, azimuth) pairs per cull block: 128 KiB per float64 temporary

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def _subseed(seed: int, index: int) -> int:
    """Deterministic per-realization seed: splitmix64 of seed + k*golden."""
    z = (seed + (index + 1) * _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class Building:
    """One row of `Scene.buildings`: an axis-aligned box with a square footprint."""

    center_x: float
    center_y: float
    width: float
    height: float


class Scene:
    """Box buildings as read-only float arrays, centres (n, 2), footprint
    widths and heights (n,), plus the scene side and seed. The arrays are
    non-writeable views: the caller's own stay writeable. `buildings` holds
    the same boxes as records, derived on first use.
    """

    def __init__(self, centers: ArrayLike, widths: ArrayLike, heights: ArrayLike,
                 extent: float, seed: int):
        self.widths, self.heights = (np.asarray(v, dtype=float).view() for v in (widths, heights))
        if self.widths.ndim != 1 or self.heights.shape != self.widths.shape:
            raise ValueError(f"widths {self.widths.shape}, heights {self.heights.shape}: not 1-D of one length")
        for name, values in (("width", self.widths), ("height", self.heights)):
            bad = ~(values > 0.0)
            if bad.any():
                raise ValueError(f"{name} must be > 0, got {values[bad][0]}")
        self.centers = np.asarray(centers, dtype=float).reshape(len(self.widths), 2)
        for values in (self.centers, self.widths, self.heights):
            values.flags.writeable = False
        self.extent = float(extent)
        self.seed = int(seed)

    @cached_property
    def buildings(self) -> tuple[Building, ...]:
        columns = (self.centers[:, 0], self.centers[:, 1], self.widths, self.heights)
        return tuple(map(Building, *(c.tolist() for c in columns)))

    def __len__(self) -> int:
        return len(self.widths)


def _triangulate(centers: np.ndarray, widths: np.ndarray, heights: np.ndarray) -> np.ndarray:
    """Mesh the buildings: 4 walls (2 triangles each) plus a 2-triangle roof,
    10 consecutive triangles per building in building order, (10 n, 3, 3)."""
    n = len(widths)
    half = widths / 2.0
    x0, x1 = centers[:, 0] - half, centers[:, 0] + half
    y0, y1 = centers[:, 1] - half, centers[:, 1] + half
    zeros = np.zeros(n)
    h = heights
    # Bottom corners b1..b4 counter-clockwise, top corners t1..t4 above them.
    b1 = np.stack([x0, y0, zeros], axis=1)
    b2 = np.stack([x1, y0, zeros], axis=1)
    b3 = np.stack([x1, y1, zeros], axis=1)
    b4 = np.stack([x0, y1, zeros], axis=1)
    t1 = np.stack([x0, y0, h], axis=1)
    t2 = np.stack([x1, y0, h], axis=1)
    t3 = np.stack([x1, y1, h], axis=1)
    t4 = np.stack([x0, y1, h], axis=1)
    tris = np.stack(
        [
            np.stack([b1, b2, t2], axis=1),
            np.stack([b1, t2, t1], axis=1),
            np.stack([b2, b3, t3], axis=1),
            np.stack([b2, t3, t2], axis=1),
            np.stack([b3, b4, t4], axis=1),
            np.stack([b3, t4, t3], axis=1),
            np.stack([b4, b1, t1], axis=1),
            np.stack([b4, t1, t4], axis=1),
            np.stack([t1, t2, t3], axis=1),
            np.stack([t1, t3, t4], axis=1),
        ],
        axis=1,
    )  # (n, 10, 3, 3)
    return tris.reshape(n * 10, 3, 3)


def sample_heights(gamma: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Rayleigh building heights [m] with scale gamma."""
    if not gamma > 0.0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    return rng.rayleigh(scale=gamma, size=count)


def synthesize_scene(
    env: Environment, extent: float, seed: int, layout: str = "grid"
) -> Scene:
    """Build a random city with the statistics of ``env``.

    Grid layout (default): one building per cell of a square grid with
    pitch 1000/sqrt(beta) m, footprint W x W centered in the cell, heights
    independent Rayleigh(gamma). The grid is centered on the origin. The
    "uniform" layout instead scatters round(beta * area_km2) buildings
    uniformly (overlaps allowed); it exists for sensitivity checks.
    """
    if not 0.0 < extent < math.inf:
        raise ValueError(f"extent must be finite and > 0, got {extent}")
    pitch = 1000.0 / math.sqrt(env.beta)
    width = mean_width(env)
    if width >= pitch:
        raise ValueError(
            f"building width {width:.2f} m is not below the grid pitch "
            f"{pitch:.2f} m; (alpha={env.alpha}, beta={env.beta}) describe "
            "overlapping buildings"
        )
    rng = np.random.default_rng(seed)
    if layout == "grid":
        n_side = int(extent // pitch) + 2
        base = (np.arange(n_side) - (n_side - 1) / 2.0) * pitch
        # Random grid phase: the scene center (where the TX hovers) lands at
        # a random position within a street cell, so independent seeds give
        # independent scene/terminal alignments. The center itself is kept
        # on open ground: an aerial terminal is never inside a building.
        for _ in range(128):
            offset = rng.uniform(-pitch / 2.0, pitch / 2.0, size=2)
            if np.max(np.abs(offset)) > width / 2.0:
                break
        else:
            raise ValueError("could not place the scene center on open ground")
        gx, gy = np.meshgrid(base + offset[0], base + offset[1], indexing="ij")
        centers = np.stack([gx.ravel(), gy.ravel()], axis=1)
        lim = (extent - width) / 2.0
        centers = centers[np.max(np.abs(centers), axis=1) <= lim]
        if len(centers) == 0:
            raise ValueError(f"extent {extent} m holds no {pitch:.2f} m grid cell")
    elif layout == "uniform":
        count = int(round(env.beta * (extent / 1000.0) ** 2))
        if count < 1:
            raise ValueError(f"extent {extent} m too small for any building")
        lim = (extent - width) / 2.0
        centers = rng.uniform(-lim, lim, size=(count, 2))
    else:
        raise ValueError(f"layout must be 'grid' or 'uniform', got {layout!r}")
    heights = sample_heights(env.gamma, len(centers), rng)
    return Scene(centers, np.full(len(centers), width), heights, extent, seed)


def scene_csv_lines(scene: Scene) -> list[str]:
    """A provenance header and `center_x,center_y,width,height` rows."""
    columns = (scene.centers[:, 0], scene.centers[:, 1], scene.widths, scene.heights)
    rows = zip(*(map(repr, c.tolist()) for c in columns))
    header = [f"# extent={scene.extent!r} seed={scene.seed}", "center_x,center_y,width,height"]
    return header + [",".join(row) for row in rows]


# --- ray/triangle intersection -------------------------------------------


def _mt_batch(origin: np.ndarray, direction: np.ndarray, tris: np.ndarray):
    """Cramer's-rule ray/triangle intersection for a triangle batch.

    ``origin`` and ``direction`` may be single vectors (one ray against
    every triangle) or per-triangle rows. Returns (hit, s, u, v) arrays; a
    hit needs s > 0, barycentrics inside the triangle and a determinant
    above the parallel cutoff.
    """
    v0 = tris[:, 0]
    origin = np.broadcast_to(np.asarray(origin, dtype=float), v0.shape)
    direction = np.broadcast_to(np.asarray(direction, dtype=float), v0.shape)
    e1 = tris[:, 1] - v0
    e2 = tris[:, 2] - v0
    k = np.cross(direction, e2)  # direction x E2
    det = np.einsum("ij,ij->i", k, e1)
    valid = np.abs(det) > _DET_EPS
    inv = np.where(valid, det, 1.0) ** -1
    e0 = origin - v0
    q = np.cross(e0, e1)
    s = np.einsum("ij,ij->i", q, e2) * inv
    u = np.einsum("ij,ij->i", k, e0) * inv
    v = np.einsum("ij,ij->i", q, direction) * inv
    hit = valid & (s > 0.0) & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0)
    return hit, s, u, v


# --- blockage predicates ---------------------------------------------------


def _candidate_triangles(scene: Scene, p0: np.ndarray, p1: np.ndarray, clearance: float) -> np.ndarray:
    """Triangles of buildings whose bounding circle meets the link corridor.

    Horizontal distance from each building center to the projected segment,
    against the footprint circumradius plus ``clearance``; only the buildings
    kept are triangulated.
    """
    a = p0[:2]
    seg = p1[:2] - a
    seg_len_sq = float(seg @ seg)
    rel = scene.centers - a
    if seg_len_sq == 0.0:
        dist = np.linalg.norm(rel, axis=1)
    else:
        t = np.clip((rel @ seg) / seg_len_sq, 0.0, 1.0)
        dist = np.linalg.norm(rel - t[:, None] * seg, axis=1)
    radius = scene.widths * (math.sqrt(2.0) / 2.0) + clearance
    idx = np.nonzero(dist <= radius)[0]
    return _triangulate(scene.centers[idx], scene.widths[idx], scene.heights[idx])


def los_blocked_geometric(scene: Scene, tx: Sequence[float], rx: Sequence[float]) -> bool:
    """True when any scene triangle cuts the open TX-RX segment."""
    p0 = np.asarray(tx, dtype=float)
    p1 = np.asarray(rx, dtype=float)
    length = float(np.linalg.norm(p1 - p0))
    if length == 0.0:
        raise ValueError("tx and rx coincide")
    tris = _candidate_triangles(scene, p0, p1, clearance=_SEGMENT_CLEARANCE)
    if len(tris) == 0:
        return False
    direction = (p1 - p0) / length
    hit, s, _, _ = _mt_batch(p0, direction, tris)
    return bool(np.any(hit & (s < length)))


def _orthonormal_frame(axis_unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing each unit vector of shape (..., 3) to a frame."""
    steep = np.abs(axis_unit[..., 2:]) >= 0.9
    helper = np.where(steep, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    v = np.cross(axis_unit, helper)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v, np.cross(axis_unit, v)


def _point_triangle_dist_sq(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared distance from the origin to each triangle (a, b, c).

    Vectorised barycentric region walk: candidate closest points on the
    three vertices, three edges and the face are selected by the standard
    sign tests in the order vertex A, B, C, edge AB, AC, BC, face; the
    `np.where` chain below runs that order backwards, so the first match sticks.
    """
    ab = b - a
    ac = c - a
    ap = -a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = -b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = -c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    denom = va + vb + vc
    safe = np.where(denom == 0.0, 1.0, denom)
    closest = a + (vb / safe)[:, None] * ab + (vc / safe)[:, None] * ac  # face region
    denom_bc = (d4 - d3) + (d5 - d6)
    t_bc = np.divide(d4 - d3, denom_bc, out=np.zeros_like(d4), where=denom_bc != 0.0)
    edge_bc = (va <= 0.0) & (d4 - d3 >= 0.0) & (d5 - d6 >= 0.0)
    closest = np.where(edge_bc[:, None], b + t_bc[:, None] * (c - b), closest)
    denom_ac = d2 - d6
    t_ac = np.divide(d2, denom_ac, out=np.zeros_like(d2), where=denom_ac != 0.0)
    edge_ac = (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0)
    closest = np.where(edge_ac[:, None], a + t_ac[:, None] * ac, closest)
    denom_ab = d1 - d3
    t_ab = np.divide(d1, denom_ab, out=np.zeros_like(d1), where=denom_ab != 0.0)
    edge_ab = (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0)
    closest = np.where(edge_ab[:, None], a + t_ab[:, None] * ab, closest)
    closest = np.where(((d6 >= 0.0) & (d5 <= d6))[:, None], c, closest)  # vertex C region
    closest = np.where(((d3 >= 0.0) & (d4 <= d3))[:, None], b, closest)  # vertex B region
    closest = np.where(((d1 <= 0.0) & (d2 <= 0.0))[:, None], a, closest)  # vertex A region
    return np.einsum("ij,ij->i", closest, closest)


def los_blocked_fresnel(
    scene: Scene, tx: Sequence[float], rx: Sequence[float], spec: FresnelSpec
) -> bool:
    """True when any triangle touches the link's order-n Fresnel ellipsoid.

    The ellipsoid has its major axis on the TX-RX line, is centered at the
    midpoint, and its semi-axes follow from the 3D terminal separation, so
    the direct segment always lies inside it. A zero wavelength collapses
    the ellipsoid onto the segment and defers to the geometric test.
    """
    p0 = np.asarray(tx, dtype=float)
    p1 = np.asarray(rx, dtype=float)
    separation = float(np.linalg.norm(p1 - p0))
    if separation == 0.0:
        raise ValueError("tx and rx coincide")
    transverse, along = fresnel_axes(spec, separation)
    if transverse == 0.0:
        return los_blocked_geometric(scene, tx, rx)
    tris = _candidate_triangles(scene, p0, p1, clearance=transverse + _CULL_MARGIN)
    if len(tris) == 0:
        return False
    center = 0.5 * (p0 + p1)
    axis_unit = (p1 - p0) / separation
    v, w = _orthonormal_frame(axis_unit)
    # Rows transverse/axial/transverse; scaling sends the ellipsoid to the
    # unit sphere at the origin.
    frame = np.stack([v, axis_unit, w])
    scale = np.array([transverse, along, transverse])
    mapped = ((tris - center) @ frame.T) / scale
    dist_sq = _point_triangle_dist_sq(mapped[:, 0], mapped[:, 1], mapped[:, 2])
    return bool(np.any(dist_sq <= 1.0))


# --- Monte-Carlo estimate ---------------------------------------------------


@dataclass(frozen=True)
class PLosEstimate:
    """Per-distance LoS probability estimate with normal-approximation CI."""

    distances: tuple[float, ...]
    p_los: np.ndarray
    ci_halfwidth: np.ndarray  # 95% half-width
    n_links: np.ndarray  # valid links per distance


@dataclass(frozen=True)
class _LinkFan:
    """Links from a TX over the scene centre to receivers on concentric rings.

    Per-link arrays have shape (azimuths, rings, ...). The receivers of one
    azimuth all lie on one ray from the origin, so their links share one
    ground corridor.
    """

    tx: np.ndarray  # (3,)
    rx: np.ndarray  # (K, R, 3)
    unit: np.ndarray  # (K, 2) horizontal direction of each azimuth
    ground: np.ndarray  # (K, R) horizontal TX-RX distance
    length: np.ndarray  # (K, R) TX-RX separation
    semi_axes: np.ndarray  # (K, R, 3) clearance-ellipsoid semi-axes (x, y, z)
    frame: np.ndarray  # (K, R, 3, 3) rows: transverse, axial, transverse
    clearance: np.ndarray  # (K, R) bounding-circle slack, as the per-link test
    corridor: np.ndarray  # (K,) bounding-circle slack of the whole corridor
    drop: np.ndarray  # (K, R) depth of the bounding cylinder's underside below the axis
    geometric: bool  # zero wavelength: segment blockage instead of clearance


def _link_fan(
    spec: FresnelSpec, h_tx: float, h_rx: float, distances: Sequence[float], links_per_ring: int
) -> _LinkFan:
    angles = 2.0 * math.pi * np.arange(links_per_ring) / links_per_ring
    unit = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    xy = unit[:, None, :] * np.asarray(distances, dtype=float)[None, :, None]
    rx = np.concatenate([xy, np.full(xy.shape[:2] + (1,), float(h_rx))], axis=2)
    tx = np.array([0.0, 0.0, h_tx])
    delta = rx - tx
    length = np.linalg.norm(delta, axis=2)
    x_semi, along = fresnel_axes(spec, length)
    geometric = spec.wavelength == 0.0
    clearance = (
        np.full_like(length, _SEGMENT_CLEARANCE) if geometric else x_semi + _CULL_MARGIN
    )
    axis_unit = delta / length[..., None]
    v, w = _orthonormal_frame(axis_unit)
    ground = np.hypot(xy[..., 0], xy[..., 1])
    return _LinkFan(
        tx=tx,
        rx=rx,
        unit=unit,
        ground=ground,
        length=length,
        semi_axes=np.stack([x_semi, along, x_semi], axis=-1),
        frame=np.stack([v, axis_unit, w], axis=2),
        clearance=clearance,
        corridor=x_semi.max(axis=1) + _CULL_MARGIN,
        drop=clearance * length / ground,
        geometric=geometric,
    )


def _fan_candidates(
    scene: Scene, fan: _LinkFan
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Valid receivers, shape (K, R), and the (link, building) pairs that
    survive the culls, ``link`` indexing the flattened fan. The culls only
    drop buildings that cannot touch a link's clearance zone:

    1. corridor: buildings whose bounding circle comes within the largest
       clearance of the rectangle around the longest ring's ground track;
       receivers inside a footprint can only be inside one of these;
    2. per link, the bounding-circle check of ``_candidate_triangles``;
    3. per link, roofs below the underside of a cylinder of radius
       ``clearance`` about the link axis, which holds the clearance zone,
       over the building's span along the ground track. On a vertical line
       the underside lies ``drop`` = clearance / cos(elevation) below the
       axis, and the axis height is linear along the track, so the lowest
       point over the span is at one of its ends.

    Cull 1 runs on (building, azimuth) pairs, the others on (pair, ring)
    masks, over blocks of azimuths of at most ``_CULL_ELEMENTS`` pairs.
    """
    n_az, n_rings = fan.ground.shape
    radius = scene.widths * (math.sqrt(2.0) / 2.0)
    half_w = scene.widths / 2.0
    valid = np.ones((n_az, n_rings), dtype=bool)
    link, building = [], []
    step = max(1, _CULL_ELEMENTS // max(len(scene), 1))
    for start in range(0, n_az, step):
        block = slice(start, start + step)
        ux, uy = fan.unit[block].T
        along = scene.centers @ fan.unit[block].T  # (N, B)
        across = scene.centers @ np.stack([-uy, ux])
        reach = radius[:, None] + fan.corridor[block]
        b, k = np.nonzero(
            (np.abs(across) <= reach) & (along >= -reach)
            & (along <= fan.ground[block].max(axis=1) + reach)
        )
        along = along[b, k][:, None]
        k += start
        cx, cy = scene.centers[b].T[..., None]
        r, hw = radius[b, None], half_w[b, None]
        rx = fan.rx[k]  # (P, R, 3)
        pair, ring = np.nonzero(
            (np.abs(rx[..., 0] - cx) <= hw) & (np.abs(rx[..., 1] - cy) <= hw)
        )
        valid[k[pair], ring] = False

        t = np.clip(along / fan.ground[k], 0.0, 1.0)
        keep = valid[k] & (np.hypot(cx - t * rx[..., 0], cy - t * rx[..., 1])
                           <= r + fan.clearance[k])
        slope = (fan.tx[2] - rx[..., 2]) / fan.ground[k]
        dip = np.maximum((along - r) * slope, (along + r) * slope)
        keep &= scene.heights[b, None] >= fan.tx[2] - dip - fan.drop[k]
        pair, ring = np.nonzero(keep)
        link.append(k[pair] * n_rings + ring)
        building.append(b[pair])
    return valid, np.concatenate(link), np.concatenate(building)


def _pairs_blocked(
    scene: Scene, fan: _LinkFan, link: np.ndarray, building: np.ndarray
) -> np.ndarray:
    """Whether each building's triangles touch its link's clearance zone,
    ``link`` indexing the flattened fan (a fan with a clearance zone)."""
    tris = _triangulate(scene.centers[building], scene.widths[building], scene.heights[building])
    center = 0.5 * (fan.tx + fan.rx.reshape(-1, 3)[link])
    frame = fan.frame.reshape(-1, 3, 3)[link]
    rel = tris.reshape(len(link), 30, 3) - center[:, None]
    mapped = (rel @ frame.transpose(0, 2, 1)) / fan.semi_axes.reshape(-1, 3)[link][:, None]
    mapped = mapped.reshape(-1, 3, 3)
    hit = _point_triangle_dist_sq(mapped[:, 0], mapped[:, 1], mapped[:, 2]) <= 1.0
    return hit.reshape(-1, 10).any(axis=1)


def _segments_cross_boxes(
    scene: Scene, fan: _LinkFan, link: np.ndarray, building: np.ndarray, margin: float
) -> np.ndarray:
    """Whether each link's TX-RX segment crosses its building's closed box
    surface at a segment parameter t in [margin, 1 - margin] (the slab test
    of Kay & Kajiya, "Ray Tracing Complex Scenes", 1986).

    With margin 0 this is the zero-wavelength verdict: the segment meets the
    box (a receiver inside a footprint is not a valid link). With a positive
    margin and both terminals at or above ground the point lies on a wall or
    the roof, and the clearance test maps it onto the axis at radius <= 1 -
    2 * margin, so the exact test is sure to block the pair. A zero direction
    component gives an infinite slab when the TX is inside it and an empty
    one outside; on its boundary one bound is 0/0, the slab's entry and
    exit are NaN, and fmax and fmin skip them: the slab stays closed.
    """
    half = scene.widths[building, None] / 2.0
    lo = np.column_stack([scene.centers[building] - half, np.zeros(building.size)])
    hi = np.column_stack([scene.centers[building] + half, scene.heights[building]])
    direction = fan.rx.reshape(-1, 3)[link] - fan.tx
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (lo - fan.tx) / direction
        t_hi = (hi - fan.tx) / direction
    ends = np.stack([np.fmax.reduce(np.minimum(t_lo, t_hi), axis=1),
                     np.fmin.reduce(np.maximum(t_lo, t_hi), axis=1)])
    inner = (ends >= margin) & (ends <= 1.0 - margin)
    return (ends[0] <= ends[1]) & inner.any(axis=0)


def _scene_verdicts(scene: Scene, fan: _LinkFan) -> tuple[np.ndarray, np.ndarray]:
    """Valid receivers and blocked links of the whole fan, shape (K, R).

    At zero wavelength a link is blocked when its segment meets a box, which
    the slab test settles exactly: no triangles. With a clearance zone and
    no terminal below ground, the pairs whose segment crosses the box well
    inside the link (`_segments_cross_boxes` at ``_CROSS_MARGIN``) block at
    once. The pairs left go through the exact test in batches of at most
    ``_BATCH_PAIRS``, which bounds its temporaries, and before each batch
    the pairs of links already blocked are dropped.
    """
    valid, link, building = _fan_candidates(scene, fan)
    blocked = np.zeros(fan.length.size, dtype=bool)
    if fan.geometric:
        blocked[link[_segments_cross_boxes(scene, fan, link, building, 0.0)]] = True
        return valid, blocked.reshape(fan.length.shape)
    if min(fan.tx[2], fan.rx[0, 0, 2]) >= 0.0:
        blocked[link[_segments_cross_boxes(scene, fan, link, building, _CROSS_MARGIN)]] = True
    while True:
        keep = ~blocked[link]
        link, building = link[keep], building[keep]
        if not link.size:
            return valid, blocked.reshape(fan.length.shape)
        batch = slice(_BATCH_PAIRS)
        blocked[link[batch][_pairs_blocked(scene, fan, link[batch], building[batch])]] = True
        link, building = link[_BATCH_PAIRS:], building[_BATCH_PAIRS:]


def realization_scene(
    env: Environment, extent: float, seed: int, index: int, layout: str = "grid"
) -> Scene:
    """The scene of realization ``index`` of an estimate seeded with ``seed``."""
    return synthesize_scene(env, extent, _subseed(seed, index), layout=layout)


def default_extent(d_grid: Sequence[float]) -> float:
    """Scene side that keeps every ring of ``d_grid`` inside the city [m]."""
    return 2.0 * max(d_grid) + 100.0


def estimate_p_los(
    env: Environment,
    spec: FresnelSpec,
    h_tx: float,
    h_rx: float,
    d_grid: Sequence[float],
    realizations: int,
    links_per_ring: int,
    seed: int,
    extent: float | None = None,
    layout: str = "grid",
) -> PLosEstimate:
    """Monte-Carlo LoS probability over seeded random city scenes.

    Per realization a fresh scene is synthesized (sub-seed from a splitmix
    stream of ``seed``) with the TX over the scene center at ``h_tx``. For
    every distance, receivers sit uniformly spaced on the circle of that
    radius at ``h_rx``; receivers falling inside a building footprint are
    not valid user positions and are excluded from the tally. A link
    counts as LoS when its clearance zone, of order ``spec.order``, is
    free of scene triangles.

    The receivers of one azimuth share a ground corridor from the scene
    center. Buildings are culled against the corridor of the longest ring,
    for all azimuths in a few array blocks, then per link by bounding
    circle and by roof height (a roof below the cylinder that encloses the
    clearance zone cannot touch it). At zero wavelength a surviving (link,
    building) pair blocks when the segment meets the box (slab test). With
    a clearance zone, a pair whose segment crosses the box well inside the
    link blocks at once. The other pairs drop out once their link is
    blocked; only their buildings are triangulated, and they go through the
    exact test in array batches. The verdicts are those of
    `los_blocked_fresnel` on each link, except on a link tangent to a box
    at zero wavelength: the slab test blocks a segment that meets a box
    only on two vertical corner edges (along its diagonal) or only at the
    TX, where Moller-Trumbore, the per-link test, can leave it clear.

    The default extent, 2*max(d) + 100 m, keeps every ring inside the
    city. Realizations run one after another in the calling thread.
    """
    if realizations < 1:
        raise ValueError(f"realizations must be >= 1, got {realizations}")
    if links_per_ring < 1:
        raise ValueError(f"links_per_ring must be >= 1, got {links_per_ring}")
    distances = [float(d) for d in d_grid]
    if not distances:
        raise ValueError("distance grid is empty")
    if min(distances) <= 0.0:
        raise ValueError("distances must be > 0")
    LinkGeometry(h_tx, h_rx, min(distances))  # the height rules of a link
    if extent is None:
        extent = default_extent(distances)
    if max(distances) > extent / 2.0:
        raise ValueError(
            f"ring radius {max(distances)} m exceeds half the extent ({extent / 2.0} m)"
        )
    fan = _link_fan(spec, h_tx, h_rx, distances, links_per_ring)
    clear = np.zeros(len(distances), dtype=np.int64)
    valid = np.zeros(len(distances), dtype=np.int64)
    for r in range(realizations):
        scene = realization_scene(env, extent, seed, r, layout=layout)
        ok, blocked = _scene_verdicts(scene, fan)
        clear += np.sum(ok & ~blocked, axis=0)
        valid += np.sum(ok, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(valid > 0, clear / np.maximum(valid, 1), np.nan)
        ci = np.where(
            valid > 0,
            1.96 * np.sqrt(np.maximum(p * (1.0 - p), 0.0) / np.maximum(valid, 1)),
            np.nan,
        )
    return PLosEstimate(
        distances=tuple(distances),
        p_los=p,
        ci_halfwidth=ci,
        n_links=valid,
    )
