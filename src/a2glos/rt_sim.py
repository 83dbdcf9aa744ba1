"""Ray-tracing Monte-Carlo estimator of LoS probability.

A city scene with the target area statistics is synthesized as axis-aligned
box buildings on a regular street grid (heights drawn from the Rayleigh
law, footprint and spacing fixed by the area parameters), and held as the
read-only arrays of a `Scene`. A link is line-of-sight when no box touches
its Fresnel ellipsoid of order ``spec.order``; with a zero wavelength the
test degenerates to segment blockage.

Both tests are exact and take the boxes as they are: a segment-box slab
test at zero wavelength, and otherwise one box-ellipsoid kernel that
minimises the ellipsoid's quadratic form over each box. The per-link
predicates cull buildings by a bounding-circle check only and run these
two tests on the buildings left; the Monte-Carlo estimator culls harder,
over every azimuth at once, and runs the same two tests (see
`estimate_p_los`). A triangle mesh of the boxes, with Moller-Trumbore and
point-triangle tests, is the test oracle, ``tests/mesh_reference.py``.
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

_CULL_MARGIN = 0.5  # [m] slack of the building culls around the clearance zone
_SEGMENT_CLEARANCE = 1e-9  # [m] bounding-circle slack of the segment test
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


# --- blockage tests --------------------------------------------------------

# Box corner c has bit j of c set where it takes the upper bound on axis j.
# Edge e runs along axis _EDGE_AXIS[e] from corner _EDGE_CORNER[e], the end
# with that bit clear; face f is the plane x_j = lo_j (f < 3) or hi_j.
_CORNER_BITS = (np.arange(8)[:, None] >> np.arange(3) & 1).astype(bool)
_EDGE_AXIS = np.repeat(np.arange(3), 4)
_EDGE_CORNER = np.array([c for j in range(3) for c in range(8) if not c >> j & 1])
_FACE_AXIS = np.tile(np.arange(3), 2)


def _boxes(scene: Scene, building: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners, (P, 3) each, of the buildings' boxes."""
    half = scene.widths[building, None] / 2.0
    centers = scene.centers[building]
    return (np.column_stack([centers - half, np.zeros(len(centers))]),
            np.column_stack([centers + half, scene.heights[building]]))


def _segments_cross_boxes(
    start: np.ndarray, direction: np.ndarray, lo: np.ndarray, hi: np.ndarray, margin: float
) -> np.ndarray:
    """Whether each segment start + t * direction crosses its box [lo, hi]
    (arrays that broadcast to (P, 3)) at a segment parameter t in [margin,
    1 - margin] (the slab test of Kay & Kajiya, "Ray Tracing Complex
    Scenes", 1986).

    With margin 0 this is the zero-wavelength verdict: the segment meets the
    box. With a positive margin the crossing is a box point that the
    clearance test maps onto the axis at radius <= 1 - 2 * margin, so the
    exact test is sure to block the pair. A zero direction component gives
    an infinite slab when the start is inside it and an empty one outside;
    on its boundary one bound is 0/0, the slab's entry and exit are NaN, and
    fmax and fmin skip them: the slab stays closed.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (lo - start) / direction
        t_hi = (hi - start) / direction
    ends = np.stack([np.fmax.reduce(np.minimum(t_lo, t_hi), axis=-1),
                     np.fmin.reduce(np.maximum(t_lo, t_hi), axis=-1)])
    inner = (ends >= margin) & (ends <= 1.0 - margin)
    return (ends[0] <= ends[1]) & inner.any(axis=0)


def _boxes_touch_ellipsoids(
    center: np.ndarray, frame: np.ndarray, semi: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Whether each box [lo, hi] meets its ellipsoid, centred at ``center``
    with the rows of ``frame`` as axes and ``semi`` as semi-axes. Points,
    semi-axes and corners broadcast to (P, 3), frames to (P, 3, 3).

    The ellipsoid is q(x) <= 1, q(x) = (x - c)^T Q (x - c) with Q = F^T
    diag(s)^-2 F. The minimum of the convex q over the box is the free
    minimum of its interior, of one of its 6 faces, 12 edges or 8 corners
    (for closest points on boxes, Ericson, "Real-Time Collision Detection",
    2004, ch. 5). The 27 candidates are the centre, the corners, one exact
    step along each edge from a corner, x_j -= (Q(x - c))_j / Q_jj, and on
    each face x_j = side the point c + S[:, j] (side - c_j) / S_jj, where
    S = F^T diag(s)^2 F is Q^-1. Each is clipped into the box: the minimiser
    stays put and every other candidate stays a box point, so the box
    touches exactly when one of them maps into the unit ball.
    """
    lo, hi = lo - center, hi - center  # candidates are offsets from the centre
    scaled = frame / semi[..., None]
    q = np.swapaxes(scaled, -1, -2) @ scaled
    spread = frame * semi[..., None]
    s = np.swapaxes(spread, -1, -2) @ spread
    corners = np.where(_CORNER_BITS, hi[..., None, :], lo[..., None, :])
    start = corners[..., _EDGE_CORNER, :]
    step = (start @ q)[..., np.arange(12), _EDGE_AXIS] / np.diagonal(q, 0, -2, -1)[..., _EDGE_AXIS]
    edges = start - step[..., None] * np.eye(3)[_EDGE_AXIS]
    side = np.concatenate([lo, hi], axis=-1) / np.diagonal(s, 0, -2, -1)[..., _FACE_AXIS]
    faces = s[..., _FACE_AXIS, :] * side[..., None]
    points = np.concatenate([np.zeros_like(corners[..., :1, :]), corners, edges, faces], axis=-2)
    np.clip(points, lo[..., None, :], hi[..., None, :], out=points)
    mapped = points @ np.swapaxes(frame, -1, -2)
    mapped /= semi[..., None, :]
    return (np.einsum("...ij,...ij->...i", mapped, mapped) <= 1.0).any(axis=-1)


def _orthonormal_frame(axis_unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing each unit vector of shape (..., 3) to a frame."""
    steep = np.abs(axis_unit[..., 2:]) >= 0.9
    helper = np.where(steep, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    v = np.cross(axis_unit, helper)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v, np.cross(axis_unit, v)


def los_blocked_fresnel(
    scene: Scene, tx: Sequence[float], rx: Sequence[float], spec: FresnelSpec
) -> bool:
    """True when any box touches the link's order-n Fresnel ellipsoid.

    The ellipsoid has its major axis on the TX-RX line, is centered at the
    midpoint, and its semi-axes follow from the 3D terminal separation, so
    the direct segment always lies inside it. Only the buildings whose
    bounding circle comes within the clearance of the ground track are
    tested. A zero wavelength collapses the ellipsoid onto the segment, and
    the slab test decides.
    """
    p0 = np.asarray(tx, dtype=float)
    p1 = np.asarray(rx, dtype=float)
    separation = float(np.linalg.norm(p1 - p0))
    if separation == 0.0:
        raise ValueError("tx and rx coincide")
    transverse, along = fresnel_axes(spec, separation)
    a = p0[:2]
    seg = p1[:2] - a
    seg_len_sq = float(seg @ seg)
    rel = scene.centers - a
    if seg_len_sq == 0.0:
        dist = np.linalg.norm(rel, axis=1)
    else:
        t = np.clip((rel @ seg) / seg_len_sq, 0.0, 1.0)
        dist = np.linalg.norm(rel - t[:, None] * seg, axis=1)
    clearance = _SEGMENT_CLEARANCE if transverse == 0.0 else transverse + _CULL_MARGIN
    lo, hi = _boxes(scene, np.nonzero(dist <= scene.widths * (math.sqrt(2.0) / 2.0) + clearance)[0])
    if transverse == 0.0:
        return bool(_segments_cross_boxes(p0, p1 - p0, lo, hi, 0.0).any())
    axis_unit = (p1 - p0) / separation
    v, w = _orthonormal_frame(axis_unit)
    return bool(_boxes_touch_ellipsoids(0.5 * (p0 + p1), np.stack([v, axis_unit, w]),
                                        np.array([transverse, along, transverse]), lo, hi).any())


def los_blocked_geometric(scene: Scene, tx: Sequence[float], rx: Sequence[float]) -> bool:
    """True when the TX-RX segment meets a box: `los_blocked_fresnel` at zero wavelength."""
    return los_blocked_fresnel(scene, tx, rx, FresnelSpec(0.0))


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
    2. per link, the bounding-circle check of `los_blocked_fresnel`;
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


def _scene_verdicts(scene: Scene, fan: _LinkFan) -> tuple[np.ndarray, np.ndarray]:
    """Valid receivers and blocked links of the whole fan, shape (K, R).

    At zero wavelength a link is blocked when its segment meets a box, which
    the slab test settles exactly. With a clearance zone, the pairs whose
    segment crosses the box well inside the link (`_segments_cross_boxes` at
    ``_CROSS_MARGIN``) block at once, and the pairs of the links left go
    through the box-ellipsoid test in one call.
    """
    valid, link, building = _fan_candidates(scene, fan)
    lo, hi = _boxes(scene, building)
    rx = fan.rx.reshape(-1, 3)[link]
    blocked = np.zeros(fan.length.size, dtype=bool)
    margin = 0.0 if fan.geometric else _CROSS_MARGIN
    blocked[link[_segments_cross_boxes(fan.tx, rx - fan.tx, lo, hi, margin)]] = True
    if not fan.geometric:
        left = ~blocked[link]
        link, rx, lo, hi = link[left], rx[left], lo[left], hi[left]
        touch = _boxes_touch_ellipsoids(0.5 * (fan.tx + rx), fan.frame.reshape(-1, 3, 3)[link],
                                        fan.semi_axes.reshape(-1, 3)[link], lo, hi)
        blocked[link[touch]] = True
    return valid, blocked.reshape(fan.length.shape)


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
    free of boxes.

    The receivers of one azimuth share a ground corridor from the scene
    center. Buildings are culled against the corridor of the longest ring,
    for all azimuths in a few array blocks, then per link by bounding
    circle and by roof height (a roof below the cylinder that encloses the
    clearance zone cannot touch it). At zero wavelength a surviving (link,
    building) pair blocks when the segment meets the box (slab test). With
    a clearance zone, a pair whose segment crosses the box well inside the
    link blocks at once, and the pairs of the other links go through the
    exact box-ellipsoid test in one array call. These are the kernels of
    `los_blocked_fresnel`, so the verdicts are its verdicts on each link.

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
