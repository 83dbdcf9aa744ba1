"""Parametric LoS probability model with network-generated parameters.

The 3GPP-style two-parameter model

    P(d) = min(D1/d, 1) * (1 - exp(-d/D2)) + exp(-d/D2)

is exact to 1 up to the breakpoint distance D1 and decays with constant D2
beyond it. To make (D1, D2) altitude-dependent, a single-hidden-layer
network maps the transceiver height difference to each parameter. The `fit`
module trains such networks against the analytic model. Reference weight
tables for the four standard scenarios are also bundled
(:func:`reference_mlp`), but their original normalization convention is
unknown, so their outputs are best-effort only.

Two array kernels carry the model, :func:`mlp_forward` over height
differences and :func:`p_los_approx` over distances and (D1, D2); scalars
give floats equal bit for bit to an array call's elements. Every caller
gets (D1, D2) from :func:`network_params`, which holds the 1 mm floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

import numpy as np
from numpy.typing import ArrayLike

from .environment import canonical_name


@dataclass(frozen=True)
class ApproxParams:
    """Breakpoint distance D1 and decay distance D2 [m]: floats, or arrays
    of one (D1, D2) per curve that broadcast against the distances."""

    d1: float | np.ndarray
    d2: float | np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.asarray(self.d1) > 0.0):
            raise ValueError(f"d1 must be > 0, got {self.d1}")
        if not np.all(np.asarray(self.d2) > 0.0):
            raise ValueError(f"d2 must be > 0, got {self.d2}")


#: Land-mobile parameter sets recommended by the standard channel models.
STANDARD_PARAM_SETS: dict[str, ApproxParams] = {
    "3gpp": ApproxParams(d1=18.0, d2=63.0),
    "5gcm": ApproxParams(d1=20.0, d2=66.0),
}


def p_los_approx(d_rx: ArrayLike, params: ApproxParams) -> float | np.ndarray:
    """Parametric LoS probability at horizontal distances d_rx [m], broadcast
    against the parameters; a float for scalars.

    Exactly 1 for d_rx <= D1 (the d_rx = 0 value is the limit 1), then
    strictly decreasing towards 0. Raises ValueError for d_rx < 0.
    """
    d, d1, d2 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (d_rx, params.d1, params.d2)))
    if (d < 0.0).any():
        raise ValueError(f"d_rx must be >= 0, got {d[d < 0.0][0]}")
    out = np.ones(d.shape)  # breakpoint region (covers the d_rx = 0 limit)
    far = ~(d <= d1)
    x = d[far]
    tail = np.array(list(map(math.exp, (-x / d2[far]).tolist())))  # np.exp rounds some differently
    out[far] = (d1[far] / x) * (1.0 - tail) + tail
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Mlp:
    """One-input, one-output network with a single sigmoid hidden layer.

    Input and target are min-max normalized to [0, 1]; the normalization
    ranges travel with the weights. The output activation is the identity,
    so predictions are unbounded before de-normalization.
    """

    input_weights: tuple[float, ...]  # hidden weight per neuron
    input_biases: tuple[float, ...]
    output_weights: tuple[float, ...]
    output_bias: float
    input_norm: tuple[float, float]  # (min, max) of the raw input
    output_norm: tuple[float, float]  # (min, max) of the raw target

    def __post_init__(self) -> None:
        j = len(self.input_weights)
        if j < 1:
            raise ValueError("network needs at least one hidden neuron")
        if len(self.input_biases) != j or len(self.output_weights) != j:
            raise ValueError("weight/bias lengths disagree")
        for lo, hi in (self.input_norm, self.output_norm):
            if not hi > lo:
                raise ValueError(f"degenerate normalization range ({lo}, {hi})")


def mlp_forward(mlp: Mlp, delta_h: ArrayLike) -> float | np.ndarray:
    """Evaluate the network at height differences delta_h [m]: a float for a
    scalar, else an array of its shape. np.vecdot sums each row as np.dot
    sums one, so every value equals a lone call's bit for bit."""
    in_lo, in_hi = mlp.input_norm
    x = (np.asarray(delta_h, dtype=float)[..., None] - in_lo) / (in_hi - in_lo)
    z = np.asarray(mlp.input_weights) * x + np.asarray(mlp.input_biases)
    with np.errstate(over="ignore"):  # saturated sigmoid: exp overflow -> 0
        hidden = 1.0 / (1.0 + np.exp(-z))
    y = np.vecdot(hidden, mlp.output_weights) + mlp.output_bias
    out_lo, out_hi = mlp.output_norm
    y = y * (out_hi - out_lo) + out_lo
    return float(y) if np.ndim(y) == 0 else y


def network_params(pair: tuple[Mlp, Mlp], delta_h: ArrayLike) -> ApproxParams:
    """(D1, D2) a (d1 net, d2 net) pair predicts at height differences
    delta_h [m], each > 0: scalars for a scalar, else arrays. Predictions are
    floored at 1 mm to keep the parameter invariants even under extreme
    extrapolation.
    """
    dh = check_delta_h(delta_h)
    d1, d2 = (np.maximum(mlp_forward(net, dh), 1e-3) for net in pair)
    return ApproxParams(d1=d1, d2=d2)


def check_delta_h(delta_h: ArrayLike) -> np.ndarray:
    """delta_h [m] as an array; ValueError unless every value is > 0."""
    dh = np.asarray(delta_h, dtype=float)
    if not (dh > 0.0).all():
        raise ValueError(f"delta_h must be > 0, got {dh[~(dh > 0.0)][0]}")
    return dh


# --- plain-text serialization -------------------------------------------

_TAGS = ("iw", "ib", "ow", "ob", "inorm", "onorm")
_ARITY = {"ob": 1, "inorm": 2, "onorm": 2}  # values per tag of fixed length


def save_mlp(mlp: Mlp, stream: IO[str]) -> None:
    """Write a network to a text stream as one `tag v1 v2 ...` line per tensor."""

    def fmt(values: Iterable[float]) -> str:
        return " ".join(f"{v:.17g}" for v in values)

    lines = [
        f"iw {fmt(mlp.input_weights)}",
        f"ib {fmt(mlp.input_biases)}",
        f"ow {fmt(mlp.output_weights)}",
        f"ob {fmt([mlp.output_bias])}",
        f"inorm {fmt(mlp.input_norm)}",
        f"onorm {fmt(mlp.output_norm)}",
    ]
    stream.write("\n".join(lines) + "\n")


def load_mlp(path: str | Path | IO[str]) -> Mlp:
    """Read a network written by :func:`save_mlp`. ValueError names the tag
    that is unknown, repeated, missing or of the wrong length."""
    if hasattr(path, "read"):
        text = path.read()
    else:
        text = Path(path).read_text()
    fields: dict[str, tuple[float, ...]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tag, *values = line.split()
        if tag not in _TAGS:
            raise ValueError(f"unknown tensor tag {tag!r}")
        if tag in fields:
            raise ValueError(f"tensor tag {tag!r} is repeated")
        if tag in _ARITY and len(values) != _ARITY[tag]:
            raise ValueError(f"tensor tag {tag!r} takes {_ARITY[tag]} value(s), got {len(values)}")
        fields[tag] = tuple(float(v) for v in values)
    missing = [t for t in _TAGS if t not in fields]
    if missing:
        raise ValueError(f"model file lacks tensors: {', '.join(missing)}")
    return Mlp(
        input_weights=fields["iw"],
        input_biases=fields["ib"],
        output_weights=fields["ow"],
        output_bias=fields["ob"][0],
        input_norm=fields["inorm"],
        output_norm=fields["onorm"],
    )


# --- bundled reference weight tables ------------------------------------

#: Normalization range assumed when evaluating the reference tables. Their
#: original convention was never published; (0, 1000) m covers the height
#: differences and distances the scenarios were characterised over.
REFERENCE_NORM_RANGE = (0.0, 1000.0)

# Per scenario, per parameter: 4 hidden weights, 4 hidden biases,
# output weight, output bias.
_REFERENCE_WEIGHTS: dict[str, dict[str, dict[str, tuple[float, ...] | float]]] = {
    "suburban": {
        "d1": {
            "iw": (16.2579, -5.5254, 15.4283, 9.6738),
            "ib": (-3.0018, -1.3995, -0.8644, 1.0262),
            "ow": (5.1456,),
            "ob": -6.6230,
        },
        "d2": {
            "iw": (6.5142, -10.6197, -3.9213, -0.6352),
            "ib": (-0.2573, 0.7117, -2.7229, -1.4552),
            "ow": (3.1422,),
            "ob": -2.8366,
        },
    },
    "urban": {
        "d1": {
            "iw": (-1.6587, 5.1759, 9.1645, 4.9191),
            "ib": (-1.2296, -3.2076, -1.7848, -3.1057),
            "ow": (3.4246,),
            "ob": -1.4798,
        },
        "d2": {
            "iw": (-13.0707, 8.4525, -1.3332, 7.2757),
            "ib": (2.8829, -0.5461, -1.9083, 0.1436),
            "ow": (4.1644,),
            "ob": -7.8225,
        },
    },
    "dense-urban": {
        "d1": {
            "iw": (2.4455, -3.5892, 2.5314, 5.2872),
            "ib": (-2.7575, -0.8322, -2.7720, -1.3142),
            "ow": (3.9771,),
            "ob": -2.3955,
        },
        "d2": {
            "iw": (4.6853, 0.3355, 5.7374, -7.3002),
            "ib": (-0.1744, -0.8997, 0.3100, 2.9326),
            "ow": (3.1653,),
            "ob": -6.7432,
        },
    },
    "high-rise": {
        "d1": {
            "iw": (1.2291, -0.3727, 3.0045, -0.7202),
            "ib": (-1.7200, -1.1132, -2.1148, -1.0177),
            "ow": (2.6658,),
            "ob": -1.9291,
        },
        "d2": {
            "iw": (-2.3706, 6.1472, 1.0547, 3.8038),
            "ib": (1.1160, -0.8216, 1.6107, -0.3733),
            "ow": (1.3593,),
            "ob": -2.6654,
        },
    },
}


def reference_mlp(scenario_name: str, parameter: str) -> Mlp:
    """Bundled reference network for a scenario and parameter ('d1'/'d2').

    The hidden weights and biases are shipped verbatim. Each table carries
    a single output weight, read here as shared across the hidden neurons,
    and the normalization ranges are this package's convention (see
    REFERENCE_NORM_RANGE), so outputs are indicative, not ground truth.
    """
    wanted = canonical_name(scenario_name)
    for name, params in _REFERENCE_WEIGHTS.items():
        if canonical_name(name) == wanted:
            break
    else:
        raise KeyError(f"no reference weights for scenario {scenario_name!r}")
    if parameter not in ("d1", "d2"):
        raise ValueError(f"parameter must be 'd1' or 'd2', got {parameter!r}")
    w = params[parameter]
    hidden = tuple(w["iw"])
    return Mlp(
        input_weights=hidden,
        input_biases=tuple(w["ib"]),
        output_weights=(float(w["ow"][0]),) * len(hidden),
        output_bias=float(w["ob"]),
        input_norm=REFERENCE_NORM_RANGE,
        output_norm=REFERENCE_NORM_RANGE,
    )
