"""Reference point-triangle distance: seven masked copies in priority order,
as ``a2glos.rt_sim`` computed it before it chose the closest points with
one chain of ``np.where`` (that chain is now in ``tests/mesh_reference.py``).

``tests/test_rt_sim.py`` checks that ``mesh_reference.point_triangle_dist_sq``
gives the same distances bit for bit as :func:`point_triangle_dist_sq`, so
the body below is kept verbatim and must not be edited.
"""

from __future__ import annotations

import numpy as np


def point_triangle_dist_sq(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared distance from the origin to each triangle (a, b, c).

    Vectorised barycentric region walk: candidate closest points on the
    three vertices, three edges and the face are selected by the standard
    sign tests.
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

    closest = np.empty_like(a)
    done = np.zeros(len(a), dtype=bool)

    def assign(mask: np.ndarray, points: np.ndarray) -> None:
        nonlocal done
        mask = mask & ~done
        closest[mask] = points[mask]
        done |= mask

    assign((d1 <= 0.0) & (d2 <= 0.0), a)  # vertex A region
    assign((d3 >= 0.0) & (d4 <= d3), b)  # vertex B region
    assign((d6 >= 0.0) & (d5 <= d6), c)  # vertex C region

    denom_ab = d1 - d3
    t_ab = np.divide(d1, denom_ab, out=np.zeros_like(d1), where=denom_ab != 0.0)
    assign((vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0), a + t_ab[:, None] * ab)

    denom_ac = d2 - d6
    t_ac = np.divide(d2, denom_ac, out=np.zeros_like(d2), where=denom_ac != 0.0)
    assign((vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0), a + t_ac[:, None] * ac)

    denom_bc = (d4 - d3) + (d5 - d6)
    t_bc = np.divide(d4 - d3, denom_bc, out=np.zeros_like(d4), where=denom_bc != 0.0)
    assign((va <= 0.0) & (d4 - d3 >= 0.0) & (d5 - d6 >= 0.0), b + t_bc[:, None] * (c - b))

    if not np.all(done):  # face region
        denom = va + vb + vc
        safe = np.where(denom == 0.0, 1.0, denom)
        v = vb / safe
        w = vc / safe
        face = a + v[:, None] * ab + w[:, None] * ac
        assign(~done, face)

    return np.einsum("ij,ij->i", closest, closest)
