"""Training pipeline for the parametric model's network-generated parameters.

Stage 1 (:func:`build_dataset`): for a grid of height differences, fit the
two-parameter model to the analytic LoS curve by least squares (exact in D1
for each D2 of a scan streamed in chunks, then refined in D2 in row blocks,
on buffers allocated once), yielding a (delta_h -> D1, D2) dataset.

Stage 2 (:func:`train`): train one small network per parameter on that
dataset by full-batch gradient descent on a mean-square-error cost with an
optional quadratic weight penalty. The networks train in lockstep: every
step evaluates all of them on the training rows in one pass, while each
keeps its own learning rate, step halving and stop. A 70/30 random split
provides the validation set; it stays out of the steps, and each network's
epoch with the best validation RMSE, found in blocks of accepted epochs, wins.

Evaluation (:func:`rmse`, :func:`approx_vs_analytic_error`) calls the
networks and the curve once each over whole arrays, through the kernels of
the `approx` module and its 1 mm floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

# perfbench/tracing.py wraps p_los and worker_count here by name.
from .analytic import p_los, p_los_curve  # noqa: F401
from .approx import Mlp, mlp_forward, network_params, p_los_approx
from .environment import Environment
from .geometry import FresnelSpec
from .workers import worker_count  # noqa: F401

#: Fraction of records used for training in the random split.
SPLIT_RATIO = 0.7

#: D2 values the (D1, D2) fit scans [m]: every integer to 2,000 m (the SSE
#: profile over D2 is rugged there), then a geometric tail to 1e6 m.
_D2_SCAN = np.concatenate((np.arange(1.0, 2001.0), np.geomspace(2000.0, 1e6, 301)[1:]))
_D2_CHUNK = 8  # D2 values per scan chunk, over every curve at once
_REFINE_ROWS = 16  # curves per refinement block
# D2 refinement: nested scans of 17 points, each narrowing the bracket 8-fold
_REFINE_POINTS, _REFINE_STAGES = 17, 10


@dataclass(frozen=True)
class FitRecord:
    delta_h: float
    d1: float
    d2: float


@dataclass(frozen=True)
class FitDataset:
    """(delta_h -> D1, D2) records plus the configuration that produced them.

    ``fit_sse``, when present, carries the per-record sum of squared
    residuals of the curve fits, aligned with ``records``.
    """

    records: tuple[FitRecord, ...]
    env: Environment
    spec: FresnelSpec
    h_rx: float
    rejected: tuple[tuple[float, str], ...] = field(default=())
    fit_sse: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        dhs = [r.delta_h for r in self.records]
        if any(b <= a for a, b in zip(dhs, dhs[1:])):
            raise ValueError("delta_h values must be strictly increasing")
        for r in self.records:
            if not (0.0 < r.d1 < math.inf and 0.0 < r.d2 < math.inf):
                raise ValueError(f"D1 and D2 must be finite and positive, got {r}")

    def __len__(self) -> int:
        return len(self.records)

    def column(self, target: str) -> np.ndarray:
        if target == "d1":
            return np.array([r.d1 for r in self.records])
        if target == "d2":
            return np.array([r.d2 for r in self.records])
        raise ValueError(f"target must be 'd1' or 'd2', got {target!r}")

    @property
    def delta_h(self) -> np.ndarray:
        return np.array([r.delta_h for r in self.records])


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the gradient-descent training loop.

    ``split_seed`` drives both the 70/30 partition and the weight
    initialisation (through separate derived streams). The split ratio is
    fixed at SPLIT_RATIO.
    """

    hidden_neurons: int = 4
    learning_rate: float = 0.2
    epochs: int = 30_000
    eta: float = 0.0  # weight-penalty coefficient
    split_seed: int = 1234

    def __post_init__(self) -> None:
        if self.hidden_neurons < 1:
            raise ValueError("hidden_neurons must be >= 1")
        if not (self.learning_rate > 0.0 and math.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (self.eta >= 0.0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")


def default_delta_h_grid() -> np.ndarray:
    """Height differences 28.5 .. 998.5 m in 10 m steps.

    The lower end corresponds to the lowest aerial transmitter of interest
    (30 m) over a 1.5 m ground terminal.
    """
    return np.arange(28.5, 1000.0, 10.0)


def default_d_grid() -> np.ndarray:
    """Distance grid for curve fitting: 1 m plus 10..1000 m in 10 m steps."""
    return np.concatenate(([1.0], np.arange(10.0, 1001.0, 10.0)))


def _profile(d, lo, y, flat, d2, buf):
    """Per curve, the least SSE over the D2 values ``d2`` (1 or C, K; m), its
    D1 and its index in K, worked out in the leading (C, K, n_d) block of the
    buffers ``buf`` (5, C', K', n_d). Ties keep the first D2, then the first D1.

    With ``d`` descending, on interval j (D1 in [lo_j, d_j] = [d_j+1, d_j])
    the residual is 1 - y past d_j (``flat`` sums their squares) and D1 u + v
    up to it, u = (1 - e)/d, v = e - y, e = exp(-d/D2): a quadratic in D1.
    """
    v, uv, suv, sse, d1 = buf[:, :len(y), :d2.shape[-1]]
    x = d / d2[..., None]
    e = np.exp(-x)
    u = np.expm1(-x)
    np.divide(u, -d, out=u, where=d > 0.0)  # at d = 0, u = 0: a flat residual
    suu = np.cumsum(u * u, axis=-1)
    # v formed, not expanded to e.e - 2 e.y + y.y, which cancels where e, y ~ 1
    np.subtract(e, y[:, None, :], out=v)
    np.cumsum(np.multiply(u, v, out=uv), axis=-1, out=suv)
    v *= v
    np.cumsum(v, axis=-1, out=sse)
    sse += flat[:, None, :]
    np.divide(suv, suu, out=d1)
    np.negative(d1, out=d1)
    np.maximum(d1, lo, out=d1)
    np.minimum(d1, d, out=d1)
    # SSE at the clipped minimiser: flat + sum(v^2) + D1 (D1 suu + 2 suv)
    suv *= 2.0
    suv += np.multiply(d1, suu, out=uv)
    suv *= d1
    sse += suv
    shape = len(y), d2.shape[-1] * d.size  # (C, K n_d): a zero-curve stack has no -1
    m = np.argmin(sse.reshape(shape), axis=1)[:, None]
    sse, d1 = (np.take_along_axis(a.reshape(shape), m, 1)[:, 0] for a in (sse, d1))
    return sse, d1, m[:, 0] // d.size


def fit_parametric_curve(d_grid: np.ndarray, curves: np.ndarray):
    """Least-squares (D1, D2) for one curve (n_d,) or a stack (C, n_d).

    The best D1 is exact for each D2 of _D2_SCAN; the best D2 is refined in
    its bracket, and kept only where no worse. Distances (finite, >= 0, at
    least two distinct ones > 0: one leaves the two parameters free) come in
    any order, curve values are finite. Returns (d1, d2, sse), sse summed
    from the residuals at (d1, d2): floats for one curve, arrays (C,) for a
    stack. The scan streams _D2_CHUNK values of D2 over all curves, keeping
    each curve's first best (a later chunk wins by a strictly lower SSE); the
    refinement runs in blocks of _REFINE_ROWS curves. Both work in buffers
    allocated once a call: the memory peak stays bounded, the bits unchanged.
    """
    d, stack = np.asarray(d_grid, dtype=float), np.asarray(curves, dtype=float)
    if d.ndim != 1 or stack.ndim not in (1, 2) or stack.shape[-1] != d.size:
        raise ValueError(f"curves of shape {stack.shape} do not match a grid of {d.size} distances")
    if not (np.all((d >= 0.0) & (d < math.inf)) and len(set(d[d > 0.0].tolist())) > 1):
        raise ValueError("distances must be finite and >= 0, with two distinct ones > 0")
    if not np.all(np.isfinite(stack)):
        raise ValueError("curve values must be finite")
    order = np.argsort(d)[::-1]
    d = d[order]
    y = np.atleast_2d(stack)[:, order]
    lo = np.append(d[1:], 0.0)
    flat = np.zeros_like(y)
    flat[:, :-1] = np.cumsum(((1.0 - y) ** 2)[:, :0:-1], axis=1)[:, ::-1]

    rows = np.arange(len(y))
    buf = np.empty((5, len(y), min(_D2_CHUNK, _D2_SCAN.size), d.size))
    best, scan_d1, i = np.full(len(y), math.inf), np.full(len(y), math.nan), np.zeros(len(y), int)
    for s in range(0, _D2_SCAN.size, _D2_CHUNK):
        c_sse, c_d1, k = _profile(d, lo, y, flat, _D2_SCAN[None, s:s + _D2_CHUNK], buf)
        win = c_sse < best
        best[win], scan_d1[win], i[win] = c_sse[win], c_d1[win], k[win] + s
    a, b = _D2_SCAN[np.clip([i - 1, i + 1], 0, _D2_SCAN.size - 1)]  # the bracket of i
    steps = np.linspace(0.0, 1.0, _REFINE_POINTS)
    d1, d2 = np.empty((2, 2, len(y)))  # (scanned, refined) x curves
    d1[0], d2[0] = scan_d1, _D2_SCAN[i]
    buf = np.empty((5, min(_REFINE_ROWS, len(y)), _REFINE_POINTS, d.size))
    for r in range(0, len(y), _REFINE_ROWS):
        at = slice(r, r + _REFINE_ROWS)
        n = rows[:len(rows[at])]
        for _ in range(_REFINE_STAGES):
            grid = a[at, None] + (b[at] - a[at])[:, None] * steps
            _, d1_j, j = _profile(d, lo, y[at], flat[at], grid, buf)
            a[at], b[at] = grid[n, np.clip([j - 1, j + 1], 0, _REFINE_POINTS - 1)]
        d1[1, at], d2[1, at] = d1_j, grid[n, j]
    # each SSE summed from its residuals
    tail = np.exp(-d / d2[..., None])
    r = d1[..., None] / np.maximum(d, d1[..., None]) * (1.0 - tail) + tail - y
    sse = np.sum(r * r, axis=-1)
    pick = (sse[1] <= sse[0]).astype(int), rows
    if stack.ndim == 1:
        return float(d1[pick][0]), float(d2[pick][0]), float(sse[pick][0])
    return d1[pick], d2[pick], sse[pick]


def build_dataset(
    env: Environment,
    spec: FresnelSpec,
    h_rx: float = 1.5,
    delta_h_grid: Sequence[float] | np.ndarray | None = None,
    d_grid: Sequence[float] | np.ndarray | None = None,
) -> FitDataset:
    """Fit (D1, D2) against the analytic model for each height difference.

    All curves are fitted in one call. Rejected with a diagnostic, giving no
    record: a curve identically 1 on the grid (no decay), a fitted D1 of 0 (a
    pure exponential), a D1 with under two grid distances beyond it (D2
    then trades off freely) and a D2 in the last step of its scan. With
    every height difference rejected, raises RuntimeError naming the first.
    """
    dhs = np.sort(np.asarray(
        default_delta_h_grid() if delta_h_grid is None else delta_h_grid,
        dtype=float,
    ))
    if dhs.size == 0:
        raise ValueError("delta_h grid is empty")
    if not dhs[0] > 0.0:
        raise ValueError(f"delta_h must be > 0, got {dhs[0]}")
    if np.any(np.diff(dhs) <= 0.0):
        raise ValueError("delta_h grid has duplicate values")
    d = np.asarray(default_d_grid() if d_grid is None else d_grid, dtype=float)
    if d.size == 0:
        raise ValueError("distance grid is empty")

    curves = p_los_curve(h_rx + dhs[:, None], h_rx, d, env, spec)
    flat = np.all(curves >= 1.0, axis=1)
    d1, d2, sse = fit_parametric_curve(d, curves[~flat])
    beyond = np.sum(d > d1[:, None], axis=1)
    fitted = zip(d1.tolist(), d2.tolist(), sse.tolist(), beyond.tolist())
    records, rejected, sses = [], [], []
    for delta_h, is_flat in zip(dhs.tolist(), flat.tolist()):
        p1, p2, res, n_beyond = (0.0, 0.0, 0.0, 0) if is_flat else next(fitted)
        if is_flat:
            reason = "analytic curve is identically 1 on the distance grid"
        elif not p1 > 0.0:
            reason = "D1 is not identified: the least-squares D1 is 0, a pure exponential decay"
        elif n_beyond < 2:
            reason = f"D2 is not identified: {n_beyond} grid distance(s) beyond the fitted D1={p1!r}"
        elif p2 > _D2_SCAN[-2]:
            reason = f"D2 is not identified: the fitted D2={p2!r} is at the {_D2_SCAN[-1]:.0f} m end of the scan"
        else:
            records.append(FitRecord(delta_h, p1, p2))
            sses.append(res)
            continue
        rejected.append((delta_h, reason))
    if not records:
        delta_h, reason = rejected[0]
        raise RuntimeError(f"dataset generation failed: delta_h={delta_h} rejected ({reason})")
    return FitDataset(
        records=tuple(records),
        env=env,
        spec=spec,
        h_rx=h_rx,
        rejected=tuple(rejected),
        fit_sse=tuple(sses),
    )


def dataset_lines(ds: FitDataset, notes: Sequence[str] = ()) -> list[str]:
    """A dataset as `delta_h,d1,d2` CSV lines under a `# alpha=...` config
    line, with the `#` lines ``notes`` between the two; :func:`load_dataset`
    reads them back."""
    config = (
        f"# alpha={float(ds.env.alpha)!r} beta={float(ds.env.beta)!r} "
        f"gamma={float(ds.env.gamma)!r} lambda={float(ds.spec.wavelength)!r} "
        f"order={ds.spec.order} h_rx={float(ds.h_rx)!r}"
    )
    rows = [f"{float(r.delta_h)!r},{float(r.d1)!r},{float(r.d2)!r}" for r in ds.records]
    return [config, *notes, "delta_h,d1,d2", *rows]


def load_dataset(path) -> FitDataset:
    """Read a dataset written as :func:`dataset_lines`. The config comes from
    the `#` line that starts with `alpha=`; other `#` lines are notes."""
    text = path.read() if hasattr(path, "read") else Path(path).read_text()
    meta: dict[str, str] = {}
    records = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            tokens = line[1:].split()
            if tokens and tokens[0].startswith("alpha="):
                meta = dict(token.split("=", 1) for token in tokens if "=" in token)
            continue
        if line.startswith("delta_h"):
            continue
        dh, d1, d2 = (float(v) for v in line.split(","))
        records.append(FitRecord(dh, d1, d2))
    for key in ("alpha", "beta", "gamma", "lambda"):
        if key not in meta:
            raise ValueError(f"dataset file lacks {key}= in its comment header")
    order = float(meta.get("order", 1))
    if not order.is_integer():
        raise ValueError(f"dataset order must be a whole number, got {meta['order']}")
    return FitDataset(
        records=tuple(records),
        env=Environment(float(meta["alpha"]), float(meta["beta"]), float(meta["gamma"])),
        spec=FresnelSpec(float(meta["lambda"]), order=int(order)),
        h_rx=float(meta.get("h_rx", 1.5)),
    )


def split_dataset(ds: FitDataset, seed: int) -> tuple[FitDataset, FitDataset]:
    """Random disjoint 70/30 partition; sizes ceil(0.7N) / floor(0.3N)."""
    n = len(ds)
    if n < 10:
        raise ValueError(f"need at least 10 records to split, got {n}")
    n_train = math.ceil(SPLIT_RATIO * n)
    perm = np.random.default_rng([seed, 0]).permutation(n)
    train_idx = np.sort(perm[:n_train])
    val_idx = np.sort(perm[n_train:])

    def subset(idx: np.ndarray) -> FitDataset:
        return FitDataset(
            records=tuple(ds.records[i] for i in idx),
            env=ds.env,
            spec=ds.spec,
            h_rx=ds.h_rx,
        )

    return subset(train_idx), subset(val_idx)


# --- network internals ----------------------------------------------------

#: Accepted parameter rows per network that one validation pass covers.
_VAL_BLOCK = 1024


class _Params:
    """Rows (w1 | b1 | w2 | b2) of K networks, a gradient of that shape, and their views."""

    def __init__(self, theta):
        j, g = theta.shape[1] // 3, np.empty_like(theta)
        self.theta, self.grad = theta, g
        self.w1, self.b1, self.w2, self.b2 = (theta[:, None, a:a + j] for a in range(0, 4 * j, j))
        self.w2_col, self.g_w2 = (a[:, 2 * j:3 * j, None] for a in (theta, g))
        self.g_w1, self.g_b1, self.g_b2 = g[:, :j], g[:, j:2 * j], g[:, 3 * j]


def _forward(p, x, hidden, y):
    """Outputs into ``y`` (K, M, 1) and activations into ``hidden`` (K, M, J) at ``x`` (M,)."""
    np.multiply(x[:, None], p.w1, out=hidden)
    hidden += p.b1
    np.negative(hidden, out=hidden)
    np.exp(hidden, out=hidden)
    hidden += 1.0
    np.divide(1.0, hidden, out=hidden)
    np.matmul(hidden, p.w2_col, out=y)
    y += p.b2


def _evaluator(x, t, eta, j):
    """Cost and gradient of K stacked networks at the inputs ``x`` (N,) against
    ``t`` (K, N), on buffers allocated once: the function returned fills the
    gradient of a :class:`_Params` and returns the K costs. Each network keeps
    the layout and operations it has alone (K = 1), so stacking changes no bit."""
    n = t.shape[1]
    hidden, dhidden, slope = (np.empty(t.shape + (j,)) for _ in range(3))
    dy = np.empty(t.shape + (1,))  # the outputs, then the errors, then d cost / d y
    err, err_row, hidden_t = dy[:, :, 0], dy.transpose(0, 2, 1), hidden.transpose(0, 2, 1)

    def evaluate(p):
        _forward(p, x, hidden, dy)
        np.subtract(err, t, out=err)
        sq = np.matmul(err_row, dy).ravel().tolist()
        if eta:
            pen = (np.matmul(p.w1, p.w1.transpose(0, 2, 1)).ravel().tolist(),
                   np.matmul(p.w2, p.w2_col).ravel().tolist())
            cost = [s / n + 0.5 * eta * (p1 + p2) for s, p1, p2 in zip(sq, *pen)]
        else:  # a zero penalty adds nothing
            cost = [s / n for s in sq]
        np.multiply(dy, 2.0, out=dy)
        np.divide(dy, n, out=dy)
        np.matmul(hidden_t, dy, out=p.g_w2)
        np.add.reduce(err, axis=1, out=p.g_b2)
        np.multiply(dy, p.w2, out=dhidden)
        np.multiply(dhidden, hidden, out=dhidden)
        np.multiply(dhidden, np.subtract(1.0, hidden, out=slope), out=dhidden)
        np.matmul(x, dhidden, out=p.g_w1)
        np.add.reduce(dhidden, axis=1, out=p.g_b1)
        if eta:
            p.g_w1 += eta * p.w1[:, 0]
            p.g_w2 += eta * p.w2_col
        return cost

    return evaluate


def _val_rmse(rows, x, lo, span, target):
    """RMSE [m] against ``target`` of one network at each parameter row (B,
    3J+1), in one forward pass over ``x`` (M,), outputs scaled back by ``span`` and ``lo``."""
    y = np.empty((len(rows), len(x), 1))
    _forward(_Params(rows), x, np.empty((len(rows), len(x), rows.shape[1] // 3)), y)
    err = y[:, :, 0] * span + lo - target
    return np.sqrt(np.add.reduce(err * err, axis=1) / len(x))


def cost_and_gradient(w1, b1, w2, b2, x, t, eta):
    """Cost and its gradient for normalized data.

    Cost = mean squared error + (eta/2) * (|w1|^2 + |w2|^2); biases carry
    no penalty. Returns (cost, (gw1, gb1, gw2, gb2)). This is the
    single-network view of the evaluator that :func:`train` runs.
    """
    j = len(w1)
    p = _Params(np.concatenate([w1, b1, w2, [float(b2)]], dtype=float)[None])
    with np.errstate(over="ignore"):
        cost = _evaluator(np.asarray(x, dtype=float), np.asarray(t, dtype=float)[None], eta, j)(p)
    g = p.grad[0]
    return cost[0], (g[:j], g[j:2 * j], g[2 * j:3 * j], float(g[3 * j]))


def train(
    ds: FitDataset, targets: Sequence[str], cfg: TrainConfig | None = None
) -> list[Mlp]:
    """Train one network per target ('d1', 'd2') mapping delta_h to it.

    The networks share the split and the input normalization and train in
    lockstep: each step evaluates all of them on the training rows in one
    pass. Per network the rules are those of full-batch gradient descent
    with a safeguard: a step that would raise the training cost is undone
    and that network's learning rate halved, so its cost never increases
    between epochs; below a learning rate of 1e-15 it stops, and the others
    go on. Each returned model is its network's epoch with the lowest
    validation RMSE (the initial weights count, the earliest of equal ones
    wins, a NaN never does). Validation is not part of a step: a network's
    accepted parameters fill blocks of _VAL_BLOCK rows, each validated, as
    is the last part-filled one, in one batched forward pass. Raises on
    divergence (non-finite cost), naming the target and its learning rate.

    Returns one model per target, in order.
    """
    if isinstance(targets, str):
        raise ValueError(f"targets must be a sequence of names, got the string {targets!r}")
    targets = list(targets)
    if not targets:
        raise ValueError("no targets to train")
    cfg = cfg or TrainConfig()
    train_ds, val_ds = split_dataset(ds, cfg.split_seed)

    in_lo, in_hi = float(np.min(train_ds.delta_h)), float(np.max(train_ds.delta_h))
    if not in_hi > in_lo:
        raise ValueError("training inputs are constant; cannot normalize")
    columns = np.array([train_ds.column(target) for target in targets])
    lo, hi = columns.min(axis=1, keepdims=True), columns.max(axis=1, keepdims=True)
    # A constant target: widen its range symmetrically so the identity
    # output can still express it.
    flat = ~(hi > lo)
    lo, hi = np.where(flat, lo - 0.5, lo), np.where(flat, hi + 0.5, hi)
    span = hi - lo
    t = (columns - lo) / span
    tv_raw = np.array([val_ds.column(target) for target in targets])
    x, xv = ((part.delta_h - in_lo) / (in_hi - in_lo) for part in (train_ds, val_ds))

    j, k = cfg.hidden_neurons, len(targets)
    rng = np.random.default_rng([cfg.split_seed, 1])
    init = [rng.uniform(-0.5, 0.5, j) for _ in range(3)] + [[rng.uniform(-0.5, 0.5)]]  # w1 b1 w2, b2
    cur, nxt = (_Params(np.tile(np.concatenate(init), (k, 1))) for _ in range(2))
    evaluate = _evaluator(x, t, cfg.eta, j)
    lr = np.full((k, 1), float(cfg.learning_rate))
    epochs_left = [cfg.epochs] * k
    block, filled = np.empty((k, _VAL_BLOCK, cur.theta.shape[1])), [0] * k

    def validate(i):  # a row wins by a strictly lower RMSE: never a NaN, the first of equals
        rows, filled[i] = block[i, :filled[i]], 0
        r = _val_rmse(rows, xv, lo[i], span[i], tv_raw[i])
        m = int(np.argmin(np.where(r < best_rmse[i], r, np.inf)))
        if r[m] < best_rmse[i]:
            best_rmse[i], best[i] = r[m], rows[m]

    with np.errstate(over="ignore"):
        cost = evaluate(cur)
        best = cur.theta.copy()
        best_rmse = [_val_rmse(best[i:i + 1], xv, lo[i], span[i], tv_raw[i])[0] for i in range(k)]
        active = list(range(k))
        while active:
            np.multiply(lr, cur.grad, out=nxt.theta)
            np.subtract(cur.theta, nxt.theta, out=nxt.theta)
            new_cost = evaluate(nxt)
            accepted, still = [], []
            for i in active:
                c = new_cost[i]
                if not math.isfinite(c):
                    raise ArithmeticError(
                        f"training diverged for {targets[i]} (cost={c}); lower "
                        f"learning_rate (currently {float(lr[i, 0])})"
                    )
                if lr[i, 0] < 1e-15:  # the rate was set below the floor
                    continue
                if c <= cost[i]:
                    accepted.append(i)
                    cost[i] = c
                    block[i, filled[i]] = nxt.theta[i]
                    filled[i] += 1
                    if filled[i] == _VAL_BLOCK:
                        validate(i)
                    epochs_left[i] -= 1
                    if epochs_left[i]:
                        still.append(i)
                else:  # undo the step: keep theta[i], halve its rate
                    lr[i, 0] /= 2.0
                    # below this the cost is at a numerical floor: stop
                    if lr[i, 0] >= 1e-15:
                        still.append(i)
            if len(accepted) == k:  # swap the buffers, do not copy them
                cur, nxt = nxt, cur
            else:
                for i in accepted:
                    cur.theta[i], cur.grad[i] = nxt.theta[i], nxt.grad[i]
            active = still
        for i in range(k):
            if filled[i]:
                validate(i)

    return [
        Mlp(
            input_weights=tuple(row[:j]),
            input_biases=tuple(row[j:2 * j]),
            output_weights=tuple(row[2 * j:3 * j]),
            output_bias=row[3 * j],
            input_norm=(in_lo, in_hi),
            output_norm=(out_lo, out_hi),
        )
        for row, out_lo, out_hi in zip(best.tolist(), lo[:, 0].tolist(), hi[:, 0].tolist())
    ]


def rmse(mlp: Mlp, ds: FitDataset, target: str) -> float:
    """Root-mean-square prediction error [m] over a dataset."""
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    preds = mlp_forward(mlp, ds.delta_h)
    return float(np.sqrt(np.mean((preds - ds.column(target)) ** 2)))


def train_pair(
    env: Environment, spec: FresnelSpec, h_rx: float = 1.5
) -> tuple[Mlp, Mlp, FitDataset]:
    """Build the default dataset and train the (D1, D2) network pair."""
    ds = build_dataset(env, spec, h_rx=h_rx)
    mlp_d1, mlp_d2 = train(ds, ("d1", "d2"))
    return mlp_d1, mlp_d2, ds


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
    grids), with the parametric curves driven by the network predictions,
    as one array each. The squared errors are summed row by row, one dot
    product per height difference, and the rows added in order.
    """
    dhs = np.asarray(
        default_delta_h_grid() if delta_h_grid is None else delta_h_grid, dtype=float
    )
    d = np.asarray(default_d_grid() if d_grid is None else d_grid, dtype=float)
    analytic_mesh = p_los_curve(h_rx + dhs[:, None], h_rx, d, env, spec)
    params = network_params((mlp_d1, mlp_d2), dhs[:, None])
    err = p_los_approx(d, params) - analytic_mesh
    total_sq = np.cumsum(np.vecdot(err, err))[-1]
    return float(total_sq) / err.size, float(np.max(np.abs(err)))
