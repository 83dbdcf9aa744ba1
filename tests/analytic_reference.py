"""Reference closed form: one link per call, as ``a2glos.analytic.p_los``
computed it before it became ``p_los_curve`` evaluated at one point.

``tests/test_analytic.py`` checks that ``p_los_curve`` and ``p_los`` give
the same values bit for bit as :func:`p_los`, so ``_clearance_limits`` and
``p_los`` below are kept verbatim and must not be edited.
"""

from __future__ import annotations

import math

import numpy as np

from a2glos.environment import Environment, building_count, mean_width
from a2glos.geometry import FresnelSpec, LinkGeometry


def _clearance_limits(
    link: LinkGeometry, spec: FresnelSpec, n_buildings: int, width: float
) -> np.ndarray:
    """Clearance limit (allowed building height) at each building position.

    Vectorised form of the allowed-height formula evaluated at the
    width-shifted building positions; entries may be negative.
    """
    d = link.d_rx
    dh = link.delta_h
    idx = np.arange(1, n_buildings + 1, dtype=float)
    d_i = (idx - 0.5) * d / n_buildings + width / 2.0
    ray_height = link.h_tx - d_i * dh / d
    reach = np.maximum(np.minimum(d_i, d - d_i), 0.0)
    fresnel_drop = (
        math.sqrt(spec.order * spec.wavelength * d) * reach / math.hypot(d, dh)
    )
    return ray_height - fresnel_drop


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
    n = building_count(env, link.d_rx)
    if n == 0:
        return 1.0
    w = mean_width(env) if width is None else float(width)
    if w < 0.0:
        raise ValueError(f"width must be >= 0, got {width}")
    limits = _clearance_limits(link, spec, n, w)
    limits = np.maximum(limits, 0.0)  # non-positive allowance blocks for sure
    factors = 1.0 - np.exp(-(limits**2) / (2.0 * env.gamma**2))
    return float(np.prod(factors))
