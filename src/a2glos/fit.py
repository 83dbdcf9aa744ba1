"""Training pipeline for the parametric model's network-generated parameters.

Stage 1 (:func:`build_dataset`): for a grid of height differences, fit the
two-parameter model to the analytic LoS curve by exhaustive integer grid
search over (D1, D2) followed by coordinate-descent refinement, yielding a
(delta_h -> D1, D2) dataset.

Stage 2 (:func:`train`): train one small network per parameter on that
dataset by full-batch gradient descent on a mean-square-error cost with an
optional quadratic weight penalty. A 70/30 random split provides the
validation set; the epoch with the best validation RMSE wins.
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
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.eta < 0.0:
            raise ValueError("eta must be >= 0")


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


def _forward(w1, b1, w2, b2, x):
    """Hidden activations and outputs for normalized inputs x (N,)."""
    with np.errstate(over="ignore"):  # saturated sigmoid: exp overflow -> 0
        hidden = 1.0 / (1.0 + np.exp(-(np.outer(x, w1) + b1)))  # (N, J)
    return hidden, hidden @ w2 + b2


def cost_and_gradient(w1, b1, w2, b2, x, t, eta):
    """Cost and its gradient for normalized data.

    Cost = mean squared error + (eta/2) * (|w1|^2 + |w2|^2); biases carry
    no penalty. Returns (cost, (gw1, gb1, gw2, gb2)).
    """
    w1 = np.asarray(w1, dtype=float)
    b1 = np.asarray(b1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    n = len(x)
    hidden, y = _forward(w1, b1, w2, b2, x)
    err = y - t
    cost = float(err @ err) / n + 0.5 * eta * (float(w1 @ w1) + float(w2 @ w2))
    dy = 2.0 * err / n  # (N,)
    gb2 = float(np.sum(dy))
    gw2 = hidden.T @ dy + eta * w2
    dhidden = np.outer(dy, w2) * hidden * (1.0 - hidden)  # (N, J)
    gw1 = x @ dhidden + eta * w1
    gb1 = dhidden.sum(axis=0)
    return cost, (gw1, gb1, gw2, gb2)


def train(ds: FitDataset, target: str, cfg: TrainConfig | None = None) -> Mlp:
    """Train a network mapping delta_h to one parameter ('d1' or 'd2').

    Full-batch gradient descent with a safeguard: any step that would raise
    the training cost is undone and the learning rate halved, so the cost
    never increases between epochs. The returned model is the epoch with
    the lowest validation RMSE. Raises on divergence (non-finite cost),
    naming the offending hyperparameter.
    """
    cfg = cfg or TrainConfig()
    train_ds, val_ds = split_dataset(ds, cfg.split_seed)

    in_lo, in_hi = float(np.min(train_ds.delta_h)), float(np.max(train_ds.delta_h))
    targets = train_ds.column(target)
    out_lo, out_hi = float(np.min(targets)), float(np.max(targets))
    if not in_hi > in_lo:
        raise ValueError("training inputs are constant; cannot normalize")
    if not out_hi > out_lo:
        # Constant target: widen the range symmetrically so the identity
        # output can still express it.
        out_lo, out_hi = out_lo - 0.5, out_hi + 0.5

    x = (train_ds.delta_h - in_lo) / (in_hi - in_lo)
    t = (targets - out_lo) / (out_hi - out_lo)
    xv = (val_ds.delta_h - in_lo) / (in_hi - in_lo)
    tv_raw = val_ds.column(target)

    j = cfg.hidden_neurons
    rng = np.random.default_rng([cfg.split_seed, 1])
    w1 = rng.uniform(-0.5, 0.5, j)
    b1 = rng.uniform(-0.5, 0.5, j)
    w2 = rng.uniform(-0.5, 0.5, j)
    b2 = float(rng.uniform(-0.5, 0.5))

    def val_rmse(w1, b1, w2, b2) -> float:
        _, yv = _forward(w1, b1, w2, b2, xv)
        pred = yv * (out_hi - out_lo) + out_lo
        return float(np.sqrt(np.mean((pred - tv_raw) ** 2)))

    lr = cfg.learning_rate
    cost, grads = cost_and_gradient(w1, b1, w2, b2, x, t, cfg.eta)
    best = (val_rmse(w1, b1, w2, b2), w1.copy(), b1.copy(), w2.copy(), b2)
    for _ in range(cfg.epochs):
        while True:
            n_w1 = w1 - lr * grads[0]
            n_b1 = b1 - lr * grads[1]
            n_w2 = w2 - lr * grads[2]
            n_b2 = b2 - lr * grads[3]
            new_cost, new_grads = cost_and_gradient(n_w1, n_b1, n_w2, n_b2, x, t, cfg.eta)
            if not math.isfinite(new_cost):
                raise ArithmeticError(
                    f"training diverged (cost={new_cost}); lower learning_rate "
                    f"(currently {lr})"
                )
            if new_cost <= cost:
                break
            lr /= 2.0
            if lr < 1e-15:
                break
        if lr < 1e-15:  # cost is at a numerical floor; nothing left to learn
            break
        w1, b1, w2, b2 = n_w1, n_b1, n_w2, n_b2
        cost, grads = new_cost, new_grads
        rmse_now = val_rmse(w1, b1, w2, b2)
        if rmse_now < best[0]:
            best = (rmse_now, w1.copy(), b1.copy(), w2.copy(), b2)

    _, w1, b1, w2, b2 = best
    return Mlp(
        input_weights=tuple(float(v) for v in w1),
        input_biases=tuple(float(v) for v in b1),
        output_weights=tuple(float(v) for v in w2),
        output_bias=float(b2),
        input_norm=(in_lo, in_hi),
        output_norm=(out_lo, out_hi),
    )


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
    cfg = cfg or TrainConfig()
    return train(ds, "d1", cfg), train(ds, "d2", cfg), ds


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
