"""The lockstep training loop against the one-network-at-a-time reference.

``train_reference.train`` is the loop that trained each network on its
own. ``a2glos.fit.train`` advances every requested network together and
must return the same models bit for bit (``==`` on the frozen ``Mlp``).
"""

import math
import tracemalloc

import numpy as np
import pytest

import train_reference as reference
from a2glos import fit
from a2glos.fit import (
    FitDataset, FitRecord, TrainConfig, _Params, _evaluator, _forward, _val_rmse, cost_and_gradient, train,
)
from test_fit import make_dataset, linear_records

DHS = np.linspace(30.0, 900.0, 20)


def rise_and_vee():
    """d1 rises with delta_h, d2 is V-shaped. At learning rate 500 and split
    seed 3 the reference halves d1's rate 11 times and d2's 10 times, and
    d2's best validation epoch is 14 while d1's is its last."""
    return make_dataset([FitRecord(dh, 2.0 * dh + 5.0, 10.0 + abs(dh - 450.0)) for dh in DHS])


def assert_matches_reference(ds, cfg, targets=("d1", "d2")):
    got = train(ds, targets, cfg)
    want = [reference.train(ds, target, cfg) for target in targets]
    assert got == want


class TestLockstepMatchesReference:
    @pytest.mark.parametrize("seed", [1234, 7, 99])
    def test_urban_default_dataset(self, urban_models, seed):
        _, _, ds = urban_models
        assert_matches_reference(ds, TrainConfig(epochs=1500, split_seed=seed))

    def test_weight_penalty(self, urban_models):
        _, _, ds = urban_models
        assert_matches_reference(ds, TrainConfig(epochs=1500, eta=1e-3))

    def test_halving_heavy_rate(self):
        ds = make_dataset(linear_records(20))
        assert_matches_reference(ds, TrainConfig(epochs=300, learning_rate=500.0, split_seed=3))

    def test_targets_that_halve_and_peak_differently(self):
        assert_matches_reference(
            rise_and_vee(), TrainConfig(epochs=300, learning_rate=500.0, split_seed=3)
        )

    def test_constant_target(self):
        # a constant target's output range is widened by 0.5 on each side
        ds = make_dataset([FitRecord(dh, 2.0 * dh + 5.0, 50.0) for dh in DHS])
        assert_matches_reference(ds, TrainConfig(epochs=300, learning_rate=5.0, split_seed=3))

    def test_one_target_stops_at_the_rate_floor(self):
        # lr * eta = 2 at the last rate above 1e-15 (0.2 / 2**47): each step
        # flips the penalised weights, and rounding decides whether the cost
        # rises. The reference halves d1 below 1e-15 in its tenth epoch and
        # stops it there; d2 runs all 30 epochs.
        cfg = TrainConfig(epochs=30, learning_rate=0.2, eta=1407374883553279.5, split_seed=3)
        assert_matches_reference(rise_and_vee(), cfg)

    def test_rate_set_below_the_floor_returns_the_initial_weights(self):
        ds = rise_and_vee()
        cfg = TrainConfig(epochs=50, learning_rate=1e-16, split_seed=3)
        assert_matches_reference(ds, cfg)
        first = train(ds, ("d1",), cfg)[0]
        assert first == train(ds, ("d1",), TrainConfig(epochs=1, learning_rate=1e-16, split_seed=3))[0]

    @pytest.mark.parametrize("target, row", [("d1", 0), ("d2", 1)])
    def test_one_target_equals_its_row_of_two(self, target, row):
        ds = rise_and_vee()
        cfg = TrainConfig(epochs=300, learning_rate=500.0, split_seed=3)
        assert train(ds, (target,), cfg) == [train(ds, ("d1", "d2"), cfg)[row]]

    def test_order_of_targets_is_the_order_of_models(self):
        ds = rise_and_vee()
        cfg = TrainConfig(epochs=50, split_seed=3)
        d1, d2 = train(ds, ("d1", "d2"), cfg)
        assert train(ds, ("d2", "d1"), cfg) == [d2, d1]


class TestLockstepAcrossBlockEdges(TestLockstepMatchesReference):
    """Every comparison above again, with validation blocks of 7 rows: the
    best epochs and the stops at the rate floor then fall inside blocks and
    on their edges."""

    @pytest.fixture(autouse=True)
    def blocks_of_seven(self, monkeypatch):
        monkeypatch.setattr(fit, "_VAL_BLOCK", 7)

    @pytest.mark.parametrize("block", [1, 2, 13, 14, 15])
    def test_best_epoch_at_each_place_in_a_block(self, monkeypatch, block):
        # d2's best epoch is its 14th accepted step (see rise_and_vee): a
        # block of its own, the last row of a block (2, 14), the first (13)
        # and the second to last (15).
        monkeypatch.setattr(fit, "_VAL_BLOCK", block)
        assert_matches_reference(
            rise_and_vee(), TrainConfig(epochs=300, learning_rate=500.0, split_seed=3)
        )


NAN = math.nan


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("rmse, best", [
    ([5.0, 4.0, NAN, 3.0, 3.0, 6.0, 2.5, 2.5, NAN, 2.5], 6),  # ties across edges keep the first
    ([5.0, 3.0, 3.0, 4.0], 1),  # a tie inside a block keeps the first
    ([1.0, 2.0, 3.0, 4.0, 5.0], 0),  # the initial weights count
    ([5.0, NAN, NAN, NAN], 0),  # a NaN never wins
    ([NAN, 1.0, 2.0, 0.5], 0),  # a NaN at the start is never beaten, as in the reference
])
def test_best_epoch_rule_over_blocks(monkeypatch, block, rmse, best):
    # Validation RMSE by accepted epoch (0: the initial weights) is set by
    # hand; the model returned must be the parameter row of epoch `best`.
    rows_seen = []

    def fake_val_rmse(rows, *args):
        rows_seen.extend(rows.copy())
        return np.array(rmse[len(rows_seen) - len(rows):len(rows_seen)])

    monkeypatch.setattr(fit, "_VAL_BLOCK", block)
    monkeypatch.setattr(fit, "_val_rmse", fake_val_rmse)
    cfg = TrainConfig(epochs=len(rmse) - 1, split_seed=3)
    (model,) = train(rise_and_vee(), ("d1",), cfg)
    assert len(rows_seen) == len(rmse)
    assert len({row.tobytes() for row in rows_seen}) == len(rmse)  # every epoch moved
    j = cfg.hidden_neurons
    assert model.input_weights == tuple(rows_seen[best][:j].tolist())
    assert model.output_bias == rows_seen[best][3 * j]


def test_training_memory_does_not_grow_with_epochs():
    # Validation holds one block of rows per network, not one row per epoch:
    # keeping every row would add 18,000 x 2 rows of 13 floats (3.7 MB) here.
    ds = rise_and_vee()
    train(ds, ("d1", "d2"), TrainConfig(epochs=50, split_seed=3))  # first-call allocations
    peaks = []
    for epochs in (2_000, 20_000):
        tracemalloc.start()
        try:
            train(ds, ("d1", "d2"), TrainConfig(epochs=epochs, split_seed=3))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 65_536


class TestLockstepErrors:
    def test_diverging_network_names_itself_and_its_own_rate(self, monkeypatch):
        # d2 has an infinite training target, so its cost is NaN at the
        # first step. In that same step d1 rejects its rate of 500 and
        # halves it to 250; the message must give d2's rate. FitDataset
        # refuses such a record, so its validation is switched off here.
        monkeypatch.setattr(FitDataset, "__post_init__", lambda self: None)
        records = [FitRecord(dh, 2.0 * dh + 5.0, 10.0 + abs(dh - 450.0)) for dh in DHS]
        records[1] = FitRecord(DHS[1], records[1].d1, math.inf)
        ds = make_dataset(records)
        cfg = TrainConfig(epochs=5, learning_rate=500.0, split_seed=3)
        with np.errstate(invalid="ignore"):  # inf / inf in the target scaling
            with pytest.raises(ArithmeticError, match=r"currently 500\.0"):
                reference.train(ds, "d2", cfg)
            with pytest.raises(ArithmeticError, match=r"for d2 .*currently 500\.0\)"):
                train(ds, ("d1", "d2"), cfg)

    def test_bare_string_is_rejected(self):
        with pytest.raises(ValueError, match="sequence"):
            train(rise_and_vee(), "d1", TrainConfig(epochs=5))

    def test_no_targets_is_rejected(self):
        with pytest.raises(ValueError):
            train(rise_and_vee(), (), TrainConfig(epochs=5))


class TestEvaluatorMatchesReference:
    def test_per_network_cost_and_gradient(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            j, n = int(rng.integers(1, 6)), int(rng.integers(3, 80))
            w1, b1, w2 = rng.normal(0, 2, j), rng.normal(0, 2, j), rng.normal(0, 2, j)
            b2 = float(rng.normal())
            x, t = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
            eta = float(rng.choice([0.0, rng.uniform(0, 1)]))
            cost, grads = cost_and_gradient(w1, b1, w2, b2, x, t, eta)
            ref_cost, ref_grads = reference.cost_and_gradient(w1, b1, w2, b2, x, t, eta)
            assert cost == ref_cost
            for got, want in zip(grads, ref_grads):
                assert np.array_equal(got, want)
            assert isinstance(grads[3], float)

    @pytest.mark.parametrize("eta", [0.0, 0.3])
    def test_every_stacked_row(self, eta):
        # K networks side by side over the training rows: each row's cost
        # and gradient are the reference's. The same evaluator is called
        # twice, so its reused buffers carry nothing over.
        rng = np.random.default_rng(5)
        for _ in range(20):
            k, j, n = int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(3, 80))
            x, t = rng.uniform(0, 1, n), rng.uniform(0, 1, (k, n))
            evaluate = _evaluator(x, t, eta, j)
            for _ in range(2):
                p = _Params(rng.normal(0, 2, (k, 3 * j + 1)))
                with np.errstate(over="ignore"):
                    cost = evaluate(p)
                for i in range(k):
                    w1, b1, w2 = p.theta[i, :j], p.theta[i, j:2 * j], p.theta[i, 2 * j:3 * j]
                    b2 = float(p.theta[i, 3 * j])
                    ref_cost, ref_grads = reference.cost_and_gradient(w1, b1, w2, b2, x, t[i], eta)
                    assert cost[i] == ref_cost
                    assert np.array_equal(p.grad[i], np.concatenate([*ref_grads[:3], [ref_grads[3]]]))

    def test_batched_validation_pass(self):
        # B parameter rows of one network over the validation rows, in one
        # pass: each row's activations, outputs and RMSE are those the
        # reference computes for that epoch alone.
        rng = np.random.default_rng(8)
        for _ in range(20):
            b, j, m = int(rng.integers(1, 50)), int(rng.integers(1, 6)), int(rng.integers(1, 40))
            rows = rng.normal(0, 2, (b, 3 * j + 1))
            xv, tv_raw = rng.uniform(0, 1, m), rng.uniform(10, 900, m)
            out_lo, out_hi = float(rng.uniform(0, 10)), float(rng.uniform(20, 1000))
            hidden, y = np.empty((b, m, j)), np.empty((b, m, 1))
            with np.errstate(over="ignore"):
                _forward(_Params(rows), xv, hidden, y)
                got = _val_rmse(rows, xv, np.array([out_lo]), np.array([out_hi - out_lo]), tv_raw)
            for r in range(b):
                w1, b1, w2, b2 = rows[r, :j], rows[r, j:2 * j], rows[r, 2 * j:3 * j], float(rows[r, 3 * j])
                ref_hidden, yv = reference._forward(w1, b1, w2, b2, xv)
                assert np.array_equal(hidden[r], ref_hidden)
                assert np.array_equal(y[r, :, 0], yv)
                pred = yv * (out_hi - out_lo) + out_lo
                assert got[r] == float(np.sqrt(np.mean((pred - tv_raw) ** 2)))
