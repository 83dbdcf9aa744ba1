"""Fresnel-zone geometry of a single air-to-ground link.

All quantities are SI (meters, hertz, radians). Functions here are pure;
probability semantics (what a negative clearance means, etc.) live in the
`analytic` module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

#: Speed of light in vacuum [m/s], SI exact value.
SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class LinkGeometry:
    """Transmitter/receiver heights and their horizontal separation.

    Convention: the transmitter is the elevated terminal, so ``h_tx >= h_rx``.
    """

    h_tx: float  # transmitter height [m]
    h_rx: float  # receiver height [m]
    d_rx: float  # horizontal TX-RX distance [m]

    def __post_init__(self) -> None:
        if not 0.0 < self.h_tx < math.inf:
            raise ValueError(f"h_tx must be > 0 and finite, got {self.h_tx}")
        if not 0.0 <= self.h_rx < math.inf:
            raise ValueError(f"h_rx must be >= 0 and finite, got {self.h_rx}")
        if not 0.0 < self.d_rx < math.inf:
            raise ValueError(f"d_rx must be > 0 and finite, got {self.d_rx}")
        if not self.h_tx >= self.h_rx:
            raise ValueError(
                f"h_tx ({self.h_tx}) must not be below h_rx ({self.h_rx})"
            )

    @property
    def delta_h(self) -> float:
        """Transceiver height difference h_tx - h_rx [m]."""
        return self.h_tx - self.h_rx


@dataclass(frozen=True)
class FresnelSpec:
    """Carrier wavelength and Fresnel-zone order.

    ``wavelength == 0`` is accepted as the degenerate infinite-frequency
    limit, in which the clearance zone collapses onto the direct ray.
    """

    wavelength: float  # carrier wavelength [m], >= 0
    order: int = 1  # Fresnel zone order n, >= 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.wavelength < math.inf:
            raise ValueError(f"wavelength must be >= 0 and finite, got {self.wavelength}")
        if not (1 <= self.order < math.inf and int(self.order) == self.order):
            raise ValueError(f"order must be a positive integer, got {self.order}")


def wavelength_from_frequency(frequency_hz: float) -> float:
    """Return the free-space wavelength [m] for a carrier frequency [Hz]."""
    if not 0.0 < frequency_hz < math.inf:
        raise ValueError(f"frequency must be > 0 and finite, got {frequency_hz}")
    return SPEED_OF_LIGHT / frequency_hz


def fresnel_axes(spec: FresnelSpec, d: ArrayLike) -> tuple:
    """Semi-axes (transverse, along) [m] of the order-n Fresnel ellipsoid of
    a link of length d, ``sqrt(n lambda d)/2`` and ``sqrt(n lambda d/4 +
    d^2/4)``: floats for a scalar, else arrays of its shape. np.sqrt rounds
    as math.sqrt does, so each value equals a lone call's bit for bit.
    """
    d = np.asarray(d, dtype=float)
    bad = ~(d > 0.0)
    if bad.any():
        raise ValueError(f"link length must be > 0, got {d[bad][0]}")
    n_lambda_d = spec.order * spec.wavelength * d
    transverse = np.sqrt(n_lambda_d) / 2.0
    along = np.sqrt(n_lambda_d / 4.0 + d * d / 4.0)
    return (float(transverse), float(along)) if d.ndim == 0 else (transverse, along)


def fresnel_radius_at(spec: FresnelSpec, d_rx: float, d_los: float) -> float:
    """Clearance-zone radius [m] at distance d_los from the TX end.

    Piecewise-linear profile: grows from zero at the TX to the mid-span
    maximum ``sqrt(n lambda d)/2`` and closes again at the RX.
    """
    if not d_rx > 0.0:
        raise ValueError(f"d_rx must be > 0, got {d_rx}")
    if d_los < 0.0 or d_los > d_rx:
        raise ValueError(f"d_los must lie in [0, {d_rx}], got {d_los}")
    reach = min(d_los, d_rx - d_los)
    return math.sqrt(spec.order * spec.wavelength * d_rx) * reach / d_rx


def allowed_height(link: LinkGeometry, spec: FresnelSpec, d_los: float) -> float:
    """Maximum obstruction height [m] that keeps the clearance zone open.

    Equals the direct-ray height at ``d_los`` minus the vertical extent of
    the clearance zone there. May be negative; callers decide what a
    negative allowance means (see the analytic module).
    """
    if d_los < 0.0 or d_los > link.d_rx:
        raise ValueError(f"d_los must lie in [0, {link.d_rx}], got {d_los}")
    dh = link.delta_h
    ray_height = link.h_tx - d_los * dh / link.d_rx
    cos_elev = link.d_rx / math.hypot(link.d_rx, dh)
    return ray_height - fresnel_radius_at(spec, link.d_rx, d_los) * cos_elev
