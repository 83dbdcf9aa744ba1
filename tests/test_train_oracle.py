"""The lockstep training loop against the one-network-at-a-time reference.

``train_reference.train`` is the loop that trained each network on its
own. ``a2glos.fit.train`` advances every requested network together and
must return the same models bit for bit (``==`` on the frozen ``Mlp``).
"""

import math

import numpy as np
import pytest

import train_reference as reference
from a2glos.fit import FitDataset, FitRecord, TrainConfig, _evaluate, cost_and_gradient, train
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
        # K networks side by side, with validation rows after the training
        # rows: each row's cost, gradient and outputs are the reference's.
        rng = np.random.default_rng(5)
        for _ in range(20):
            k, j = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            n, n_val = int(rng.integers(3, 80)), int(rng.integers(1, 40))
            theta = rng.normal(0, 2, (k, 3 * j + 1))
            x = rng.uniform(0, 1, n + n_val)
            t = rng.uniform(0, 1, (k, n))
            with np.errstate(over="ignore"):
                cost, grad, y = _evaluate(theta, x, t, eta)
            for i in range(k):
                w1, b1, w2 = theta[i, :j], theta[i, j:2 * j], theta[i, 2 * j:3 * j]
                b2 = float(theta[i, 3 * j])
                ref_cost, ref_grads = reference.cost_and_gradient(w1, b1, w2, b2, x[:n], t[i], eta)
                assert cost[i] == ref_cost
                assert np.array_equal(grad[i], np.concatenate([*ref_grads[:3], [ref_grads[3]]]))
                _, ref_y = reference._forward(w1, b1, w2, b2, x[:n])
                _, ref_yv = reference._forward(w1, b1, w2, b2, x[n:])
                assert np.array_equal(y[i], np.concatenate([ref_y, ref_yv]))
