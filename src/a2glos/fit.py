"""Training pipeline for the parametric model's network-generated parameters.

Stage 1 (:func:`build_dataset`): for a grid of height differences, fit the
two-parameter model to the analytic LoS curve by exhaustive integer grid
search over (D1, D2) followed by coordinate-descent refinement, yielding a
(delta_h -> D1, D2) dataset.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

# perfbench/tracing.py wraps p_los here by name.
from .analytic import p_los, p_los_curve  # noqa: F401
from .approx import ApproxParams, Mlp, mlp_forward, p_los_approx
from .environment import Environment
from .geometry import FresnelSpec, wavelength_from_frequency
from .workers import worker_count

#: Fraction of records used for training in the random split.
SPLIT_RATIO = 0.7

#: Integer search grids for the per-curve (D1, D2) fit [m].
D1_GRID = np.arange(1.0, 601.0)
D2_GRID = np.arange(1.0, 2001.0)

# Terminal pattern-search step; finer than the 0.01 m parameter resolution
# the fits are reported at, which costs little and keeps shallow valleys
# (weakly identified D2 at large D1) converging.
_REFINE_TOL = 0.001


@dataclass(frozen=True)
class FitRecord:
    delta_h: float
    d1: float
    d2: float


@dataclass(frozen=True)
class FitDataset:
    """(delta_h -> D1, D2) records plus the configuration that produced them.

    ``fit_sse``, when present, carries the refined per-record sum of squared
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
            if not (r.d1 > 0.0 and r.d2 > 0.0):
                raise ValueError(f"non-positive parameter in record {r}")

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


def fit_parametric_curve(
    d_grid: np.ndarray, p_curve: np.ndarray
) -> tuple[float, float, float]:
    """Least-squares (D1, D2) for one probability curve.

    Exhaustive search on the integer grids D1_GRID x D2_GRID, then greedy
    coordinate/pattern descent with step halving, refining well below the
    0.01 m resolution the parameters are reported at.

    Returns:
        (d1, d2, sse) with sse the refined sum of squared residuals.
    """
    d = np.asarray(d_grid, dtype=float)
    y = np.asarray(p_curve, dtype=float)
    order = np.argsort(d)
    d, y = d[order], y[order]

    # Residual per (D1, D2): A*(1-e) + (e-y) with A = min(D1/d, 1) and
    # e = exp(-d/D2). Its squared sum expands into three matrix products,
    # which evaluates the whole integer grid in a few GEMMs.
    a = np.minimum(D1_GRID[:, None] / d[None, :], 1.0)  # (n_d1, n_d)
    tail = np.exp(-d[None, :] / D2_GRID[:, None])  # (n_d2, n_d)
    shrink = 1.0 - tail
    offset = tail - y[None, :]
    sse = (a * a) @ (shrink * shrink).T
    sse += 2.0 * (a @ (shrink * offset).T)
    sse += np.sum(offset * offset, axis=1)[None, :]
    d1i, d2i = np.unravel_index(int(np.argmin(sse)), sse.shape)
    best_d1 = float(D1_GRID[d1i])
    best_d2 = float(D2_GRID[d2i])
    best_sse = float(sse[d1i, d2i])

    def sse_at(d1: float, d2: float) -> float:
        tail = np.exp(-d / d2)
        model = np.minimum(d1 / d, 1.0) * (1.0 - tail) + tail
        r = model - y
        return float(r @ r)

    # Pattern search from the best grid point. Diagonal moves plus a
    # slide in the last improving direction keep the descent moving along
    # the correlated (D1, D2) valley instead of stalling on its wall.
    moves = [(i, j) for i in (-1.0, 0.0, 1.0) for j in (-1.0, 0.0, 1.0) if i or j]
    d1, d2, sse = best_d1, best_d2, best_sse
    step = 1.0
    while step >= _REFINE_TOL:
        best_move = None
        for dd1, dd2 in moves:
            c1, c2 = d1 + step * dd1, d2 + step * dd2
            if c1 <= 0.0 or c2 <= 0.0:
                continue
            cand = sse_at(c1, c2)
            if cand < sse:
                d1, d2, sse, best_move = c1, c2, cand, (dd1, dd2)
        if best_move is None:
            step /= 2.0
            continue
        while True:
            c1, c2 = d1 + step * best_move[0], d2 + step * best_move[1]
            if c1 <= 0.0 or c2 <= 0.0:
                break
            cand = sse_at(c1, c2)
            if cand >= sse:
                break
            d1, d2, sse = c1, c2, cand
    return d1, d2, sse


def build_dataset(
    env: Environment,
    spec: FresnelSpec,
    h_rx: float = 1.5,
    delta_h_grid: Sequence[float] | np.ndarray | None = None,
    d_grid: Sequence[float] | np.ndarray | None = None,
) -> FitDataset:
    """Fit (D1, D2) against the analytic model for each height difference.

    Height differences whose analytic curve never leaves 1 on the grid have
    no decay to fit and are recorded as rejected with a diagnostic.
    """
    dhs = np.sort(np.asarray(
        default_delta_h_grid() if delta_h_grid is None else delta_h_grid,
        dtype=float,
    ))
    if dhs.size == 0:
        raise ValueError("delta_h grid is empty")
    if np.any(np.diff(dhs) <= 0.0):
        raise ValueError("delta_h grid has duplicate values")
    d = np.sort(np.asarray(
        default_d_grid() if d_grid is None else d_grid, dtype=float
    ))
    if d.size == 0:
        raise ValueError("distance grid is empty")

    curves = p_los_curve(h_rx + dhs[:, None], h_rx, d, env, spec)

    def fit_one(curve: np.ndarray) -> tuple[float, float, float] | str:
        if np.all(curve >= 1.0):
            return "analytic curve is identically 1 on the distance grid"
        return fit_parametric_curve(d, curve)

    with ThreadPoolExecutor(max_workers=worker_count()) as pool:
        results = list(pool.map(fit_one, curves))

    records = []
    rejected = []
    sses = []
    for delta_h, res in zip(dhs, results):
        if isinstance(res, str):
            rejected.append((float(delta_h), res))
        else:
            records.append(FitRecord(float(delta_h), res[0], res[1]))
            sses.append(res[2])
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
