"""Reference training loop: one network at a time, as ``a2glos.fit.train``
did before it trained every requested network in lockstep.

The oracle tests compare the lockstep loop against :func:`train` here bit
for bit, so ``_forward``, ``cost_and_gradient`` and ``train`` below are kept
verbatim and must not be edited.
"""

from __future__ import annotations

import math

import numpy as np

from a2glos.approx import Mlp
from a2glos.fit import FitDataset, TrainConfig, split_dataset


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
