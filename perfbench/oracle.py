"""Reference results written from the model's formulas, not from a2glos.

The output checks compare what the program prints against these. Nothing
here imports the package under test; the closed form, the breakpoint/decay
curve, the network forward pass and the segment-versus-box test are
written out in plain ``math`` so that a fault shared by the program and
its own helpers cannot hide.
"""

from __future__ import annotations

import math

SPEED_OF_LIGHT = 299_792_458.0

#: ITU-R P.1410 (alpha, beta, gamma) of the four standard areas.
PRESETS = {
    "suburban": (0.1, 750.0, 8.0),
    "urban": (0.3, 500.0, 15.0),
    "dense-urban": (0.5, 300.0, 20.0),
    "high-rise": (0.5, 300.0, 50.0),
}

#: Breakpoint/decay parameters (D1, D2) of the 3GPP and 5GCM models [m].
STANDARD_PARAMS = {"3gpp": (18.0, 63.0), "5gcm": (20.0, 66.0)}


def wavelength(f_ghz: float | None) -> float:
    """Carrier wavelength [m]; None is the infinite-frequency limit."""
    return 0.0 if f_ghz is None else SPEED_OF_LIGHT / (f_ghz * 1e9)


def p_los(alpha, beta, gamma, lam, h_tx, h_rx, d, order=1):
    """Closed-form LoS probability with building width and Fresnel clearance.

    P = prod_i [1 - exp(-h_i^2 / (2 gamma^2))] over the n = floor(d sqrt(alpha
    beta) / 1000) buildings expected on the path. Building i sits at
    d_i = (i - 1/2) d / n + W/2 with W = 1000 sqrt(alpha / beta), and h_i is
    the height the direct ray leaves free there, less the vertical extent
    of the clearance zone, floored at 0.
    """
    n = math.floor(d * math.sqrt(alpha * beta) / 1000.0)
    if n == 0:
        return 1.0
    width = 1000.0 * math.sqrt(alpha / beta)
    dh = h_tx - h_rx
    zone = math.sqrt(order * lam * d) / math.hypot(d, dh)
    p = 1.0
    for i in range(1, n + 1):
        d_i = (i - 0.5) * d / n + width / 2.0
        reach = max(min(d_i, d - d_i), 0.0)
        h = max(h_tx - d_i * dh / d - zone * reach, 0.0)
        p *= 1.0 - math.exp(-(h * h) / (2.0 * gamma * gamma))
    return p


def p_approx(d, d1, d2):
    """Breakpoint/decay curve min(D1/d, 1)(1 - e^(-d/D2)) + e^(-d/D2)."""
    if d <= d1:
        return 1.0
    tail = math.exp(-d / d2)
    return (d1 / d) * (1.0 - tail) + tail


def parse_mlp(text: str) -> dict[str, list[float]]:
    """Read a network file: one ``tag v1 v2 ...`` line per tensor."""
    fields = {}
    for line in text.splitlines():
        parts = line.split()
        if parts and not parts[0].startswith("#"):
            fields[parts[0]] = [float(v) for v in parts[1:]]
    missing = {"iw", "ib", "ow", "ob", "inorm", "onorm"} - fields.keys()
    if missing:
        raise ValueError(f"network file lacks {sorted(missing)}")
    return fields


def mlp(net: dict[str, list[float]], delta_h: float) -> float:
    """One sigmoid hidden layer, min-max normalised input and output."""
    in_lo, in_hi = net["inorm"]
    out_lo, out_hi = net["onorm"]
    x = (delta_h - in_lo) / (in_hi - in_lo)
    y = net["ob"][0]
    for w, b, v in zip(net["iw"], net["ib"], net["ow"]):
        z = w * x + b
        y += v * (0.0 if z < -700.0 else 1.0 / (1.0 + math.exp(-z)))
    return y * (out_hi - out_lo) + out_lo


def segment_hits_box(p0, p1, x0, x1, y0, y1, height) -> bool:
    """Slab test: does the segment p0-p1 meet the box [x0,x1]x[y0,y1]x[0,h]?"""
    t_in, t_out = 0.0, 1.0
    for a, lo, hi in ((0, x0, x1), (1, y0, y1), (2, 0.0, height)):
        step = p1[a] - p0[a]
        if step == 0.0:
            if not lo <= p0[a] <= hi:
                return False
            continue
        ta, tb = (lo - p0[a]) / step, (hi - p0[a]) / step
        if ta > tb:
            ta, tb = tb, ta
        t_in, t_out = max(t_in, ta), min(t_out, tb)
        if t_in > t_out:
            return False
    return True
