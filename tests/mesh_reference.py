"""Reference blockage tests on a triangle mesh, as ``a2glos.rt_sim`` ran them
before it tested each box against the clearance ellipsoid directly.

Each building is meshed into 10 triangles: 4 walls of 2 and a 2-triangle
roof, with no floor. Segment blockage is Moller-Trumbore against every
triangle; the clearance test maps the triangles into the unit-sphere frame
of the link's ellipsoid and takes their distance to the origin.

``tests/test_rt_sim.py`` compares the estimator's verdicts and the box
kernel with these functions, and criterion 5 checks :func:`mt_batch`
against an LU solve, so the bodies below are kept verbatim and must not be
edited.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from a2glos.geometry import FresnelSpec, fresnel_axes

DET_EPS = 1e-12  # ray parallel to triangle plane below this determinant
CULL_MARGIN = 0.5  # [m] slack of the building culls around the clearance zone
SEGMENT_CLEARANCE = 1e-9  # [m] bounding-circle slack of the segment test


def triangulate(centers: np.ndarray, widths: np.ndarray, heights: np.ndarray) -> np.ndarray:
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


def mt_batch(origin: np.ndarray, direction: np.ndarray, tris: np.ndarray):
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
    valid = np.abs(det) > DET_EPS
    inv = np.where(valid, det, 1.0) ** -1
    e0 = origin - v0
    q = np.cross(e0, e1)
    s = np.einsum("ij,ij->i", q, e2) * inv
    u = np.einsum("ij,ij->i", k, e0) * inv
    v = np.einsum("ij,ij->i", q, direction) * inv
    hit = valid & (s > 0.0) & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0)
    return hit, s, u, v


def candidate_triangles(scene, p0: np.ndarray, p1: np.ndarray, clearance: float) -> np.ndarray:
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
    return triangulate(scene.centers[idx], scene.widths[idx], scene.heights[idx])


def los_blocked_geometric(scene, tx: Sequence[float], rx: Sequence[float]) -> bool:
    """True when any scene triangle cuts the open TX-RX segment."""
    p0 = np.asarray(tx, dtype=float)
    p1 = np.asarray(rx, dtype=float)
    length = float(np.linalg.norm(p1 - p0))
    if length == 0.0:
        raise ValueError("tx and rx coincide")
    tris = candidate_triangles(scene, p0, p1, clearance=SEGMENT_CLEARANCE)
    if len(tris) == 0:
        return False
    direction = (p1 - p0) / length
    hit, s, _, _ = mt_batch(p0, direction, tris)
    return bool(np.any(hit & (s < length)))


def orthonormal_frame(axis_unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing each unit vector of shape (..., 3) to a frame."""
    steep = np.abs(axis_unit[..., 2:]) >= 0.9
    helper = np.where(steep, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    v = np.cross(axis_unit, helper)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    return v, np.cross(axis_unit, v)


def point_triangle_dist_sq(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
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
    scene, tx: Sequence[float], rx: Sequence[float], spec: FresnelSpec
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
    tris = candidate_triangles(scene, p0, p1, clearance=transverse + CULL_MARGIN)
    if len(tris) == 0:
        return False
    center = 0.5 * (p0 + p1)
    axis_unit = (p1 - p0) / separation
    v, w = orthonormal_frame(axis_unit)
    # Rows transverse/axial/transverse; scaling sends the ellipsoid to the
    # unit sphere at the origin.
    frame = np.stack([v, axis_unit, w])
    scale = np.array([transverse, along, transverse])
    mapped = ((tris - center) @ frame.T) / scale
    dist_sq = point_triangle_dist_sq(mapped[:, 0], mapped[:, 1], mapped[:, 2])
    return bool(np.any(dist_sq <= 1.0))


def pairs_blocked(scene, fan, link: np.ndarray, building: np.ndarray) -> np.ndarray:
    """Whether each building's triangles touch its link's clearance zone,
    ``link`` indexing the flattened fan (a fan with a clearance zone)."""
    tris = triangulate(scene.centers[building], scene.widths[building], scene.heights[building])
    center = 0.5 * (fan.tx + fan.rx.reshape(-1, 3)[link])
    frame = fan.frame.reshape(-1, 3, 3)[link]
    rel = tris.reshape(len(link), 30, 3) - center[:, None]
    mapped = (rel @ frame.transpose(0, 2, 1)) / fan.semi_axes.reshape(-1, 3)[link][:, None]
    mapped = mapped.reshape(-1, 3, 3)
    hit = point_triangle_dist_sq(mapped[:, 0], mapped[:, 1], mapped[:, 2]) <= 1.0
    return hit.reshape(-1, 10).any(axis=1)
