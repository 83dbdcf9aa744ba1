"""Training pipeline for the parametric model's network-generated parameters.

Stage 1 (:func:`build_dataset`): for a grid of height differences, fit the
two-parameter model to the analytic LoS curve by least squares (exact in D1
for each scanned D2, then refined in D2), all curves in one array
computation, yielding a (delta_h -> D1, D2) dataset.

Stage 2 (:func:`train`): train one small network per parameter on that
dataset by full-batch gradient descent on a mean-square-error cost with an
optional quadratic weight penalty. A 70/30 random split provides the
validation set; the epoch with the best validation RMSE wins. The networks
train in lockstep: every step evaluates all of them, on the training and
the validation rows, in one pass, while each keeps its own learning rate,
step halving, stop and best epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

# perfbench/tracing.py wraps p_los and worker_count here by name.
from .analytic import p_los, p_los_curve  # noqa: F401
from .approx import ApproxParams, Mlp, mlp_forward, p_los_approx
from .environment import Environment
from .geometry import FresnelSpec, wavelength_from_frequency
from .workers import worker_count  # noqa: F401

#: Fraction of records used for training in the random split.
SPLIT_RATIO = 0.7

#: D2 values the (D1, D2) fit scans [m]: every integer to 2,000 m (the SSE
#: profile over D2 is rugged there), then a geometric tail to 1e6 m.
_D2_SCAN = np.concatenate((np.arange(1.0, 2001.0), np.geomspace(2000.0, 1e6, 301)[1:]))
_D2_CHUNK = 8  # D2 values per scan block: a few MB of temporaries
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


def _profile(d, lo, y, flat, d2):
    """Least-squares D1, and its SSE, at each D2 of ``d2`` (1 or C, m).

    With ``d`` descending, on interval j (D1 in [lo_j, d_j] = [d_j+1, d_j])
    the residual is 1 - y past d_j (``flat`` sums their squares) and D1 u + v
    up to it, u = (1 - e)/d, v = e - y, e = exp(-d/D2): a quadratic in D1.
    """
    x = d / d2[..., None]
    e = np.exp(-x)
    u = np.expm1(-x)
    np.divide(u, -d, out=u, where=d > 0.0)  # at d = 0, u = 0: a flat residual
    suu = np.cumsum(u * u, axis=-1)
    # v formed, not expanded to e.e - 2 e.y + y.y, which cancels where e, y ~ 1
    v = e - y[:, None, :]
    suv = np.cumsum(u * v, axis=-1)
    v *= v
    sse = np.cumsum(v, axis=-1)
    sse += flat[:, None, :]
    d1 = np.divide(suv, suu)
    np.negative(d1, out=d1)
    np.maximum(d1, lo, out=d1)
    np.minimum(d1, d, out=d1)
    # SSE at the clipped minimiser: flat + sum(v^2) + D1 (D1 suu + 2 suv)
    suv *= 2.0
    suv += d1 * suu
    suv *= d1
    sse += suv
    k = np.argmin(sse, axis=-1)[..., None]
    return np.take_along_axis(sse, k, -1)[..., 0], np.take_along_axis(d1, k, -1)[..., 0]


def fit_parametric_curve(d_grid: np.ndarray, curves: np.ndarray):
    """Least-squares (D1, D2) for one curve (n_d,) or a stack (C, n_d).

    The best D1 is exact for each D2 of _D2_SCAN; the best D2 is refined in
    its bracket, and kept only where no worse. Distances are >= 0, in any
    order. Returns (d1, d2, sse), sse summed from the residuals at (d1, d2):
    floats for one curve, arrays (C,) for a stack.
    """
    order = np.argsort(np.asarray(d_grid, dtype=float))[::-1]
    d = np.asarray(d_grid, dtype=float)[order]
    stack = np.asarray(curves, dtype=float)
    y = np.atleast_2d(stack)[:, order]
    lo = np.append(d[1:], 0.0)
    flat = np.zeros_like(y)
    flat[:, :-1] = np.cumsum(((1.0 - y) ** 2)[:, :0:-1], axis=1)[:, ::-1]

    scan = [_profile(d, lo, y, flat, _D2_SCAN[None, s:s + _D2_CHUNK])
            for s in range(0, _D2_SCAN.size, _D2_CHUNK)]
    scan_sse, scan_d1 = (np.concatenate(part, axis=1) for part in zip(*scan))
    rows = np.arange(len(y))
    i = np.argmin(scan_sse, axis=1)
    a, b = _D2_SCAN[np.clip([i - 1, i + 1], 0, _D2_SCAN.size - 1)]  # the bracket of i
    steps = np.linspace(0.0, 1.0, _REFINE_POINTS)
    for _ in range(_REFINE_STAGES):
        grid = a[:, None] + (b - a)[:, None] * steps
        ref_sse, ref_d1 = _profile(d, lo, y, flat, grid)
        j = np.argmin(ref_sse, axis=1)
        a, b = grid[rows, np.clip([j - 1, j + 1], 0, _REFINE_POINTS - 1)]
    # (scanned, refined) x curves, each SSE summed from its residuals
    d1 = np.stack([scan_d1[rows, i], ref_d1[rows, j]])
    d2 = np.stack([_D2_SCAN[i], grid[rows, j]])
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
    then trades off freely) and a D2 in the last step of its scan.
    """
    dhs = np.sort(np.asarray(
        default_delta_h_grid() if delta_h_grid is None else delta_h_grid,
        dtype=float,
    ))
    if dhs.size == 0:
        raise ValueError("delta_h grid is empty")
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
    return FitDataset(
        records=tuple(records),
        env=env,
        spec=spec,
        h_rx=h_rx,
        rejected=tuple(rejected),
        fit_sse=tuple(sses),
    )


def save_dataset(ds: FitDataset, path) -> None:
    """Write a dataset as `delta_h,d1,d2` CSV with a config comment line."""
    lines = [
        f"# alpha={float(ds.env.alpha)!r} beta={float(ds.env.beta)!r} "
        f"gamma={float(ds.env.gamma)!r} lambda={float(ds.spec.wavelength)!r} "
        f"order={ds.spec.order} h_rx={float(ds.h_rx)!r}",
        "delta_h,d1,d2",
    ]
    lines += [
        f"{float(r.delta_h)!r},{float(r.d1)!r},{float(r.d2)!r}" for r in ds.records
    ]
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        Path(path).write_text(text)


def load_dataset(path) -> FitDataset:
    """Read a dataset written by :func:`save_dataset`."""
    text = path.read() if hasattr(path, "read") else Path(path).read_text()
    meta: dict[str, float] = {}
    records = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    key, value = token.split("=", 1)
                    meta[key] = float(value)
            continue
        if line.startswith("delta_h"):
            continue
        dh, d1, d2 = (float(v) for v in line.split(","))
        records.append(FitRecord(dh, d1, d2))
    for key in ("alpha", "beta", "gamma", "lambda"):
        if key not in meta:
            raise ValueError(f"dataset file lacks {key}= in its comment header")
    return FitDataset(
        records=tuple(records),
        env=Environment(meta["alpha"], meta["beta"], meta["gamma"]),
        spec=FresnelSpec(meta["lambda"], order=int(meta.get("order", 1))),
        h_rx=meta.get("h_rx", 1.5),
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


def _evaluate(theta, x, t, eta):
    """Cost, gradient and outputs of K stacked networks in one pass.

    ``theta`` holds one (w1 | b1 | w2 | b2) block per network, shape
    (K, 3J+1). Every row of ``x`` (M,) goes through the forward pass; the
    cost and the gradient are taken over the first N, against ``t`` (K, N).
    Each network keeps the memory layout and the operations it would have
    alone (K = 1), products and reductions included, so stacking changes
    no bit. The caller silences exp overflow.

    Returns the costs (a list of K floats), the gradient blocks (K, 3J+1)
    and the outputs (K, M).
    """
    j = theta.shape[1] // 3
    n = t.shape[1]
    w1, b1, w2 = theta[:, None, :j], theta[:, None, j:2 * j], theta[:, None, 2 * j:3 * j]
    hidden = x[:, None] * w1  # (K, M, J)
    hidden += b1
    np.negative(hidden, out=hidden)
    np.exp(hidden, out=hidden)
    hidden += 1.0
    np.divide(1.0, hidden, out=hidden)
    h = hidden[:, :n]
    w2_col = w2.transpose(0, 2, 1)
    y = np.empty((len(theta), len(x), 1))
    np.matmul(h, w2_col, out=y[:, :n])
    np.matmul(hidden[:, n:], w2_col, out=y[:, n:])
    y = y[:, :, 0]
    y += theta[:, 3 * j:]
    err = y[:, :n] - t
    sq = np.matmul(err[:, None, :], err[:, :, None]).ravel().tolist()
    if eta:
        pen = (np.matmul(w1, w1.transpose(0, 2, 1)).ravel().tolist(),
               np.matmul(w2, w2_col).ravel().tolist())
        cost = [s / n + 0.5 * eta * (p1 + p2) for s, p1, p2 in zip(sq, *pen)]
    else:  # a zero penalty adds nothing
        cost = [s / n for s in sq]
    dy = np.multiply(err, 2.0, out=err)
    dy /= n
    grad = np.empty_like(theta)
    np.matmul(h.transpose(0, 2, 1), dy[:, :, None], out=grad[:, 2 * j:3 * j, None])
    np.add.reduce(dy, axis=1, out=grad[:, 3 * j])
    dhidden = dy[:, :, None] * w2  # (K, N, J)
    dhidden *= h
    dhidden *= 1.0 - h
    np.matmul(x[:n], dhidden, out=grad[:, :j])
    np.add.reduce(dhidden, axis=1, out=grad[:, j:2 * j])
    if eta:
        grad[:, :j] += eta * theta[:, :j]
        grad[:, 2 * j:3 * j] += eta * theta[:, 2 * j:3 * j]
    return cost, grad, y


def cost_and_gradient(w1, b1, w2, b2, x, t, eta):
    """Cost and its gradient for normalized data.

    Cost = mean squared error + (eta/2) * (|w1|^2 + |w2|^2); biases carry
    no penalty. Returns (cost, (gw1, gb1, gw2, gb2)). This is the
    single-network view of the evaluator that :func:`train` runs.
    """
    w1 = np.asarray(w1, dtype=float)
    j = len(w1)
    theta = np.concatenate([w1, np.asarray(b1, dtype=float),
                            np.asarray(w2, dtype=float), [float(b2)]])[None]
    with np.errstate(over="ignore"):
        cost, grad, _ = _evaluate(theta, np.asarray(x, dtype=float),
                                  np.asarray(t, dtype=float)[None], eta)
    g = grad[0]
    return cost[0], (g[:j], g[j:2 * j], g[2 * j:3 * j], float(g[3 * j]))


def train(
    ds: FitDataset, targets: Sequence[str], cfg: TrainConfig | None = None
) -> list[Mlp]:
    """Train one network per target ('d1', 'd2') mapping delta_h to it.

    The networks share the split and the input normalization and train in
    lockstep: each step evaluates all of them, training and validation
    rows together, in one pass. Per network the rules are those of
    full-batch gradient descent with a safeguard: a step that would raise
    the training cost is undone and that network's learning rate halved,
    so its cost never increases between epochs; below a learning rate of
    1e-15 it stops, and the others go on. Each returned model is its
    network's epoch with the lowest validation RMSE. Raises on divergence
    (non-finite cost), naming the target and its learning rate.

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
    # training rows first, then the validation rows, in one forward pass
    x = (np.concatenate([train_ds.delta_h, val_ds.delta_h]) - in_lo) / (in_hi - in_lo)
    n_train, n_val = t.shape[1], tv_raw.shape[1]

    def val_rmse(y):
        pred = y[:, n_train:] * span
        pred += lo
        pred -= tv_raw
        np.square(pred, out=pred)
        return [math.sqrt(s / n_val) for s in np.add.reduce(pred, axis=1).tolist()]

    j = cfg.hidden_neurons
    rng = np.random.default_rng([cfg.split_seed, 1])
    w1 = rng.uniform(-0.5, 0.5, j)
    b1 = rng.uniform(-0.5, 0.5, j)
    w2 = rng.uniform(-0.5, 0.5, j)
    b2 = rng.uniform(-0.5, 0.5)
    theta = np.tile(np.concatenate([w1, b1, w2, [b2]]), (len(targets), 1))
    lr = np.full((len(targets), 1), float(cfg.learning_rate))
    epochs_left = [cfg.epochs] * len(targets)

    with np.errstate(over="ignore"):
        cost, grad, y = _evaluate(theta, x, t, cfg.eta)
        best_rmse = val_rmse(y)
        best = theta.copy()
        active = list(range(len(targets)))
        while active:
            step = lr * grad
            cand = np.subtract(theta, step, out=step)
            new_cost, new_grad, y = _evaluate(cand, x, t, cfg.eta)
            rmse_now = val_rmse(y)
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
                    if rmse_now[i] < best_rmse[i]:
                        best_rmse[i] = rmse_now[i]
                        best[i] = cand[i]
                    epochs_left[i] -= 1
                    if epochs_left[i]:
                        still.append(i)
                else:  # undo the step: keep theta[i], halve its rate
                    lr[i, 0] /= 2.0
                    # below this the cost is at a numerical floor: stop
                    if lr[i, 0] >= 1e-15:
                        still.append(i)
            if len(accepted) == len(targets):
                theta, grad = cand, new_grad
            else:
                for i in accepted:
                    theta[i], grad[i] = cand[i], new_grad[i]
            active = still

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
    preds = np.array([mlp_forward(mlp, r.delta_h) for r in ds.records])
    return float(np.sqrt(np.mean((preds - ds.column(target)) ** 2)))


def train_pair(
    env: Environment,
    spec: FresnelSpec | None = None,
    h_rx: float = 1.5,
    delta_h_grid: Sequence[float] | None = None,
    d_grid: Sequence[float] | None = None,
    cfg: TrainConfig | None = None,
) -> tuple[Mlp, Mlp, FitDataset]:
    """Build the default dataset and train the (D1, D2) network pair.

    The default clearance spec is first-order at 28 GHz, matching the
    simulation campaigns this model is compared against.
    """
    if spec is None:
        spec = FresnelSpec(wavelength_from_frequency(28e9))
    ds = build_dataset(env, spec, h_rx=h_rx, delta_h_grid=delta_h_grid, d_grid=d_grid)
    mlp_d1, mlp_d2 = train(ds, ("d1", "d2"), cfg)
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
