"""Reference scalar approx model: one distance and one height difference per
call, as ``a2glos.approx`` and ``a2glos.fit`` evaluated it before their
array kernels.

The oracle tests compare the array kernels against the functions here bit
for bit, so ``p_los_approx``, ``mlp_forward`` and
``approx_vs_analytic_error`` below are kept verbatim and must not be edited.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from a2glos.analytic import p_los_curve
from a2glos.approx import ApproxParams, Mlp
from a2glos.environment import Environment
from a2glos.fit import default_d_grid, default_delta_h_grid
from a2glos.geometry import FresnelSpec


def p_los_approx(d_rx: float, params: ApproxParams) -> float:
    """Parametric LoS probability at horizontal distance d_rx [m].

    Exactly 1 for d_rx <= D1 (the d_rx = 0 value is the limit 1), then
    strictly decreasing towards 0.
    """
    if d_rx < 0.0:
        raise ValueError(f"d_rx must be >= 0, got {d_rx}")
    if d_rx <= params.d1:
        return 1.0  # breakpoint region (covers the d_rx = 0 limit)
    tail = math.exp(-d_rx / params.d2)
    return (params.d1 / d_rx) * (1.0 - tail) + tail


def mlp_forward(mlp: Mlp, delta_h: float) -> float:
    """Evaluate the network at a height difference delta_h [m]."""
    in_lo, in_hi = mlp.input_norm
    x = (delta_h - in_lo) / (in_hi - in_lo)
    z = np.asarray(mlp.input_weights) * x + np.asarray(mlp.input_biases)
    with np.errstate(over="ignore"):  # saturated sigmoid: exp overflow -> 0
        hidden = 1.0 / (1.0 + np.exp(-z))
    y = float(np.dot(mlp.output_weights, hidden)) + mlp.output_bias
    out_lo, out_hi = mlp.output_norm
    return y * (out_hi - out_lo) + out_lo


def approx_vs_analytic_error(
    mlp_d1: Mlp,
    mlp_d2: Mlp,
    env: Environment,
    spec: FresnelSpec,
    h_rx: float = 1.5,
    delta_h_grid: Sequence[float] | None = None,
    d_grid: Sequence[float] | None = None,
) -> tuple[float, float]:
    """(MSE, max absolute error) of the parametric model vs the analytic one.

    Evaluated over the delta_h x distance mesh (defaults match the training
    grids), with the parametric curves driven by the network predictions.
    """
    dhs = np.asarray(
        default_delta_h_grid() if delta_h_grid is None else delta_h_grid, dtype=float
    )
    d = np.asarray(default_d_grid() if d_grid is None else d_grid, dtype=float)
    analytic_mesh = p_los_curve(h_rx + dhs[:, None], h_rx, d, env, spec)
    total_sq = 0.0
    max_abs = 0.0
    count = 0
    for delta_h, analytic in zip(dhs, analytic_mesh):
        params = ApproxParams(
            d1=max(mlp_forward(mlp_d1, delta_h), 1e-3),
            d2=max(mlp_forward(mlp_d2, delta_h), 1e-3),
        )
        model = np.array([p_los_approx(di, params) for di in d])
        err = model - analytic
        total_sq += float(err @ err)
        max_abs = max(max_abs, float(np.max(np.abs(err))))
        count += d.size
    return total_sq / count, max_abs
