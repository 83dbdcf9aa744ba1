import math

import numpy as np
import pytest

import approx_reference
from a2glos.analytic import p_los
from a2glos.approx import ApproxParams, mlp_forward, p_los_approx, reference_mlp
from a2glos.environment import Environment, get_scenario
from a2glos.fit import (
    FitDataset,
    FitRecord,
    TrainConfig,
    approx_vs_analytic_error,
    build_dataset,
    cost_and_gradient,
    fit_parametric_curve,
    rmse,
    split_dataset,
    train,
)
from a2glos.geometry import FresnelSpec, LinkGeometry, wavelength_from_frequency

URBAN = Environment(0.3, 500.0, 15.0)
SPEC28 = FresnelSpec(wavelength_from_frequency(28e9))


def make_dataset(records, env=URBAN, spec=SPEC28):
    return FitDataset(records=tuple(records), env=env, spec=spec, h_rx=1.5)


def linear_records(n, slope=2.0, intercept=5.0):
    dhs = np.linspace(30.0, 900.0, n)
    return [FitRecord(dh, slope * dh + intercept, 0.5 * dh + 40.0) for dh in dhs]


class TestCurveFit:
    def test_planted_solution_recovery(self):
        d = np.concatenate(([1.0], np.arange(10.0, 1001.0, 10.0)))
        truth = ApproxParams(50.0, 200.0)
        curve = np.array([p_los_approx(x, truth) for x in d])
        d1, d2, sse = fit_parametric_curve(d, curve)
        assert d1 == pytest.approx(50.0, abs=0.1)
        assert d2 == pytest.approx(200.0, abs=0.1)
        assert sse < 1e-10

    def test_planted_recovery_randomized(self):
        # identifiable pairs only: once D1/D2 grows past ~4 the decay term
        # is numerically dead beyond the breakpoint and no fit (or data)
        # can pin D2 down
        rng = np.random.default_rng(17)
        d = np.concatenate(([1.0], np.arange(10.0, 1001.0, 10.0)))
        for _ in range(20):
            d1_true = float(rng.uniform(5, 400))
            d2_true = float(rng.uniform(max(20.0, d1_true / 4.0), 900))
            truth = ApproxParams(d1_true, d2_true)
            curve = np.array([p_los_approx(x, truth) for x in d])
            d1, d2, _ = fit_parametric_curve(d, curve)
            assert d1 == pytest.approx(truth.d1, abs=0.1)
            assert d2 == pytest.approx(truth.d2, abs=0.1)

    def test_grid_order_independence(self):
        rng = np.random.default_rng(8)
        d = np.arange(5.0, 1001.0, 5.0)
        curve = np.array([p_los(LinkGeometry(70.0, 1.5, x), URBAN, SPEC28) for x in d])
        ref = fit_parametric_curve(d, curve)
        perm = rng.permutation(len(d))
        shuffled = fit_parametric_curve(d[perm], curve[perm])
        assert shuffled == ref

    def test_zero_distance_is_a_flat_point(self):
        # P = 1 at d = 0 for every D1 > 0: the point adds a constant
        d = np.concatenate(([0.0, 1.0], np.arange(10.0, 1001.0, 10.0)))
        truth = ApproxParams(50.0, 200.0)
        curve = np.array([p_los_approx(x, truth) for x in d])
        with np.errstate(divide="raise", invalid="raise"):
            d1, d2, sse = fit_parametric_curve(d, curve)
        assert d1 == pytest.approx(50.0, abs=0.1)
        assert d2 == pytest.approx(200.0, abs=0.1)
        assert sse < 1e-10


class TestCurveFitInputs:
    """Bad inputs raise before any work: no profile is computed and no
    floating-point warning is given."""

    @pytest.fixture(autouse=True)
    def no_profile(self, monkeypatch):
        from a2glos import fit

        def forbidden(*args):
            raise AssertionError("a profile was computed")

        monkeypatch.setattr(fit, "_profile", forbidden)

    @pytest.mark.parametrize("d, curves", [
        ([0.0], [0.5]), ([0.0, 0.0], [0.5, 0.7]), ([], []),
        ([5.0], [0.5]), ([0.0, 5.0], [1.0, 0.5]), ([5.0, 5.0], [0.5, 0.6]),
    ])
    def test_grid_needs_a_positive_distance(self, d, curves):
        # all u = 0 made D1 = 0/0; an empty grid failed inside the profile; one
        # distinct positive distance gave one of infinitely many exact fits
        with np.errstate(all="raise"), pytest.raises(ValueError, match="two distinct ones > 0"):
            fit_parametric_curve(d, curves)

    @pytest.mark.parametrize("curves", [[0.9, 0.8], [[0.9, 0.8], [0.7, 0.6]], [0.9, 0.8, 0.7, 0.6]])
    def test_curve_length_must_match_the_grid(self, curves):
        with np.errstate(all="raise"), pytest.raises(ValueError, match="a grid of 3 distances"):
            fit_parametric_curve([10.0, 20.0, 30.0], curves)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -1.0])
    def test_distances_must_be_finite_and_non_negative(self, bad):
        with np.errstate(all="raise"), pytest.raises(ValueError, match="distances must be finite and >= 0"):
            fit_parametric_curve([bad, 20.0, 30.0], [0.9, 0.8, 0.7])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_curve_values_must_be_finite(self, bad):
        with np.errstate(all="raise"), pytest.raises(ValueError, match="curve values must be finite"):
            fit_parametric_curve([10.0, 20.0, 30.0], [[0.9, 0.8, 0.7], [0.9, bad, 0.7]])


class TestBuildDataset:
    def test_small_build_and_provenance(self):
        dhs = np.arange(28.5, 420.0, 40.0)
        ds = build_dataset(URBAN, SPEC28, h_rx=1.5, delta_h_grid=dhs,
                           d_grid=np.arange(10.0, 1001.0, 10.0))
        assert len(ds) == len(dhs)
        assert ds.env == URBAN and ds.spec == SPEC28 and ds.h_rx == 1.5
        dh_col = ds.delta_h
        assert np.all(np.diff(dh_col) > 0)
        assert np.all(ds.column("d1") > 0) and np.all(ds.column("d2") > 0)

    def test_shuffled_distance_grid_gives_identical_records(self):
        rng = np.random.default_rng(4)
        dhs = [68.5, 168.5]
        d = np.arange(10.0, 1001.0, 10.0)
        a = build_dataset(URBAN, SPEC28, delta_h_grid=dhs, d_grid=d)
        b = build_dataset(URBAN, SPEC28, delta_h_grid=dhs, d_grid=rng.permutation(d))
        assert a.records == b.records

    def test_flat_curve_is_rejected_with_diagnostic(self):
        # a transmitter this high sees every building: the curve never decays
        ds = build_dataset(URBAN, SPEC28, delta_h_grid=[68.5, 1e6],
                           d_grid=np.arange(10.0, 1001.0, 10.0))
        assert len(ds) == 1
        assert len(ds.rejected) == 1
        dh, reason = ds.rejected[0]
        assert dh == 1e6
        assert "identically 1" in reason

    def test_zero_breakpoint_is_rejected_with_diagnostic(self):
        # seen only from 500 m on, the 68.5 m curve is best fitted by a pure
        # exponential: the least-squares D1 is 0, which no record can hold
        ds = build_dataset(URBAN, SPEC28, delta_h_grid=[48.5, 68.5],
                           d_grid=np.arange(500.0, 1001.0, 10.0))
        assert [r.delta_h for r in ds.records] == [48.5]
        assert ds.rejected == ((68.5, "D1 is not identified: the least-squares D1 is 0, "
                                      "a pure exponential decay"),)

    def test_empty_grid_errors(self):
        with pytest.raises(ValueError):
            build_dataset(URBAN, SPEC28, delta_h_grid=[])
        with pytest.raises(ValueError):
            build_dataset(URBAN, SPEC28, delta_h_grid=[10.0, 10.0])
        with pytest.raises(ValueError, match="delta_h must be > 0"):
            build_dataset(URBAN, SPEC28, delta_h_grid=[0.0, 10.0])


class TestSplit:
    def test_seven_three_of_ten(self):
        train_ds, val_ds = split_dataset(make_dataset(linear_records(10)), seed=0)
        assert len(train_ds) == 7 and len(val_ds) == 3

    def test_sizes_general(self):
        for n in (10, 11, 12, 13, 17, 100):
            train_ds, val_ds = split_dataset(make_dataset(linear_records(n)), seed=1)
            assert len(train_ds) == math.ceil(0.7 * n)
            assert len(val_ds) == n - math.ceil(0.7 * n)

    def test_partition_properties(self):
        ds = make_dataset(linear_records(23))
        train_ds, val_ds = split_dataset(ds, seed=5)
        merged = sorted(train_ds.records + val_ds.records, key=lambda r: r.delta_h)
        assert tuple(merged) == ds.records
        assert not set(r.delta_h for r in train_ds.records) & set(
            r.delta_h for r in val_ds.records
        )

    def test_determinism_and_seed_sensitivity(self):
        ds = make_dataset(linear_records(30))
        a1 = split_dataset(ds, seed=9)
        a2 = split_dataset(ds, seed=9)
        b = split_dataset(ds, seed=10)
        assert a1[0].records == a2[0].records
        assert a1[0].records != b[0].records

    def test_too_few_records(self):
        with pytest.raises(ValueError):
            split_dataset(make_dataset(linear_records(9)), seed=0)


class TestGradient:
    def test_backprop_matches_central_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            j = int(rng.integers(1, 6))
            n = int(rng.integers(3, 12))
            w1, b1, w2 = rng.normal(0, 2, j), rng.normal(0, 2, j), rng.normal(0, 2, j)
            b2 = float(rng.normal())
            x, t = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
            eta = float(rng.uniform(0, 0.5))
            _, (gw1, gb1, gw2, gb2) = cost_and_gradient(w1, b1, w2, b2, x, t, eta)
            analytic = np.concatenate([gw1, gb1, gw2, [gb2]])
            numeric = np.zeros_like(analytic)
            packs = [w1.copy(), b1.copy(), w2.copy(), np.array([b2])]
            h = 1e-6
            k = 0
            for p in packs:
                for i in range(len(p)):
                    for sgn in (1.0, -1.0):
                        p[i] += sgn * h
                        c, _ = cost_and_gradient(packs[0], packs[1], packs[2], float(packs[3][0]), x, t, eta)
                        numeric[k] += sgn * c
                        p[i] -= sgn * h
                    numeric[k] /= 2.0 * h
                    k += 1
            rel = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
            )
            assert rel < 1e-6

    def test_weight_penalty_enters_cost_and_gradient(self):
        w1, b1, w2, b2 = np.ones(2), np.zeros(2), np.ones(2), 0.0
        x = np.array([0.5])
        t = np.array([0.0])
        c0, g0 = cost_and_gradient(w1, b1, w2, b2, x, t, 0.0)
        c1, g1 = cost_and_gradient(w1, b1, w2, b2, x, t, 2.0)
        assert c1 == pytest.approx(c0 + 0.5 * 2.0 * 4.0, rel=1e-12)
        assert np.allclose(g1[0], g0[0] + 2.0 * w1)
        assert np.allclose(g1[1], g0[1])  # biases carry no penalty


class TestTraining:
    def test_learns_a_linear_map(self):
        ds = make_dataset(linear_records(40))
        cfg = TrainConfig(epochs=6000, learning_rate=0.3, split_seed=7)
        mlp = train(ds, ("d1",), cfg)[0]
        target_range = ds.column("d1").max() - ds.column("d1").min()
        assert rmse(mlp, ds, "d1") < 0.01 * target_range

    def test_heavy_regularization_flattens_predictions(self):
        ds = make_dataset(linear_records(40))
        cfg = TrainConfig(epochs=2000, learning_rate=0.3, eta=1e6, split_seed=7)
        mlp = train(ds, ("d1",), cfg)[0]
        preds = [mlp_forward(mlp, r.delta_h) for r in ds.records]
        target_range = ds.column("d1").max() - ds.column("d1").min()
        assert max(preds) - min(preds) < 0.02 * target_range

    def test_absurd_learning_rate_survives_via_halving(self):
        ds = make_dataset(linear_records(20))
        cfg = TrainConfig(epochs=300, learning_rate=500.0, split_seed=3)
        mlp = train(ds, ("d1",), cfg)[0]
        assert all(math.isfinite(w) for w in mlp.input_weights)

    def test_determinism(self):
        ds = make_dataset(linear_records(25))
        cfg = TrainConfig(epochs=500, split_seed=11)
        assert train(ds, ("d1",), cfg)[0] == train(ds, ("d1",), cfg)[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(hidden_neurons=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(eta=-0.1)

    @pytest.mark.parametrize("bad", [dict(learning_rate=math.inf), dict(learning_rate=math.nan),
                                     dict(eta=math.inf), dict(eta=math.nan)])
    def test_non_finite_hyperparameters_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**bad)


class TestRmse:
    def test_zero_for_a_perfect_constant_predictor(self):
        mlp = Mlp_const(42.0)
        ds = make_dataset([FitRecord(d, 42.0, 1.0) for d in (10.0, 20.0, 30.0)])
        assert rmse(mlp, ds, "d1") == 0.0

    def test_hand_arithmetic_case(self):
        # predictions differing from targets by (0, 0, 2) give sqrt(4/3)
        mlp = Mlp_const(3.0)
        ds = make_dataset([FitRecord(10.0, 3.0, 1.0), FitRecord(20.0, 3.0, 1.0), FitRecord(30.0, 5.0, 1.0)])
        assert rmse(mlp, ds, "d1") == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-12)

    def test_empty_dataset_errors(self):
        with pytest.raises(ValueError):
            rmse(Mlp_const(1.0), make_dataset([]), "d1")


def Mlp_const(value: float):
    from a2glos.approx import Mlp

    return Mlp((0.0,), (0.0,), (0.0,), 0.0, (0.0, 1.0), (value, value + 1.0))


class TestErrorMesh:
    """approx_vs_analytic_error against its per-point reference, bit for bit."""

    @pytest.mark.parametrize("scenario", ["suburban", "urban", "dense-urban", "high-rise"])
    def test_reference_networks_at_28ghz(self, scenario):
        nets = (reference_mlp(scenario, "d1"), reference_mlp(scenario, "d2"))
        env = get_scenario(scenario).env
        got = approx_vs_analytic_error(*nets, env, SPEC28)
        assert got == approx_reference.approx_vs_analytic_error(*nets, env, SPEC28)

    def test_retrained_networks_on_other_grids(self, urban_models):
        mlp_d1, mlp_d2, _ = urban_models
        grids = dict(h_rx=2.0, delta_h_grid=[18.0, 118.0, 500.0, 1400.0], d_grid=[0.0, 3.0, 700.0, 2500.0])
        got = approx_vs_analytic_error(mlp_d1, mlp_d2, URBAN, SPEC28, **grids)
        assert got == approx_reference.approx_vs_analytic_error(mlp_d1, mlp_d2, URBAN, SPEC28, **grids)


class TestRetrainedUrbanModels:
    """Behaviour of the default urban network pair (session fixture)."""

    def test_low_altitude_curve_quality(self, urban_models):
        mlp_d1, mlp_d2, _ = urban_models
        d = np.concatenate(([1.0], np.arange(10.0, 1001.0, 10.0)))
        delta_h = 28.5
        params = ApproxParams(
            max(mlp_forward(mlp_d1, delta_h), 1e-3),
            max(mlp_forward(mlp_d2, delta_h), 1e-3),
        )
        analytic = np.array(
            [p_los(LinkGeometry(1.5 + delta_h, 1.5, x), URBAN, SPEC28) for x in d]
        )
        model = np.array([p_los_approx(x, params) for x in d])
        assert float(np.mean((model - analytic) ** 2)) <= 0.03

    def test_breakpoint_parameter_grows_with_height(self, urban_models):
        mlp_d1, _, _ = urban_models
        dh_grid = np.arange(30.0, 1001.0, 10.0)
        d1s = np.array([mlp_forward(mlp_d1, dh) for dh in dh_grid])
        assert np.all(np.diff(d1s) >= 0.0)

    def test_breakpoint_distance_increases_with_altitude(self, urban_models):
        # the distance where the curve leaves 1 grows with the TX height
        mlp_d1, mlp_d2, _ = urban_models
        breakpoints = []
        for h_tx in (30.0, 120.0, 500.0):
            dh = h_tx - 2.0
            params = ApproxParams(
                max(mlp_forward(mlp_d1, dh), 1e-3),
                max(mlp_forward(mlp_d2, dh), 1e-3),
            )
            d = np.arange(1.0, 1001.0, 1.0)
            curve = np.array([p_los_approx(x, params) for x in d])
            above = d[curve >= 0.999]
            breakpoints.append(float(above.max()) if above.size else 0.0)
        assert breakpoints[0] < breakpoints[1] < breakpoints[2]


class TestPerCurveFitQuality:
    def test_mid_altitude_6ghz_fit(self):
        # residual of the best parametric fit to one analytic curve
        spec6 = FresnelSpec(wavelength_from_frequency(6e9))
        d = np.concatenate(([1.0], np.arange(10.0, 1001.0, 10.0)))
        curve = np.array([p_los(LinkGeometry(70.0, 1.5, x), URBAN, spec6) for x in d])
        _, _, sse = fit_parametric_curve(d, curve)
        assert sse / len(d) <= 0.03


class TestDatasetFile:
    def test_round_trip(self, tmp_path):
        from a2glos.fit import dataset_lines, load_dataset

        ds = make_dataset(linear_records(12))
        notes = ["# scenario=urban f_ghz=28", "# rejected delta_h=9.5: why"]  # not config
        lines = dataset_lines(ds, notes)
        assert lines[0].startswith("# alpha=") and "lambda=" in lines[0]
        assert lines[1:4] == notes + ["delta_h,d1,d2"]
        path = tmp_path / "dataset.csv"
        path.write_text("\n".join(lines) + "\n")
        back = load_dataset(path)
        assert back.records == ds.records
        assert back.env == ds.env
        assert back.spec == ds.spec
        assert back.h_rx == ds.h_rx

    def test_missing_config_is_an_error(self, tmp_path):
        from a2glos.fit import load_dataset

        path = tmp_path / "bare.csv"
        path.write_text("delta_h,d1,d2\n10.0,5.0,20.0\n")
        with pytest.raises(ValueError, match="alpha"):
            load_dataset(path)

    @pytest.mark.parametrize("d1, d2", [("5.0", "inf"), ("inf", "20.0"), ("nan", "20.0")])
    def test_non_finite_parameter_is_an_error(self, tmp_path, d1, d2):
        from a2glos.fit import load_dataset

        path = tmp_path / "bad.csv"
        path.write_text("# alpha=0.3 beta=500.0 gamma=15.0 lambda=0.0107\n"
                        f"delta_h,d1,d2\n10.0,5.0,20.0\n20.0,{d1},{d2}\n")
        with pytest.raises(ValueError, match=r"finite and positive.*delta_h=20\.0"):
            load_dataset(path)

    @pytest.mark.parametrize("order", ["1.5", "inf", "nan"])
    def test_order_must_be_a_whole_number(self, tmp_path, order):
        from a2glos.fit import load_dataset

        path = tmp_path / "bad.csv"
        path.write_text(f"# alpha=0.3 beta=500.0 gamma=15.0 lambda=0.0107 order={order}\n"
                        "delta_h,d1,d2\n10.0,5.0,20.0\n")
        with pytest.raises(ValueError, match=f"whole number, got {order}"):
            load_dataset(path)
        path.write_text(path.read_text().replace(f"order={order}", "order=2.0"))
        assert load_dataset(path).spec.order == 2


class TestWorkerPolicy:
    def test_env_variable_caps_workers(self, monkeypatch):
        from a2glos.workers import worker_count

        monkeypatch.setenv("A2G_LOS_THREADS", "0")
        assert worker_count() >= 1
        monkeypatch.setenv("A2G_LOS_THREADS", "1")
        assert worker_count() == 1
        monkeypatch.setenv("A2G_LOS_THREADS", "-2")
        with pytest.raises(ValueError):
            worker_count()
        monkeypatch.setenv("A2G_LOS_THREADS", "many")
        with pytest.raises(ValueError):
            worker_count()
