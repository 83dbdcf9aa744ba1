import os
import stat

import pytest

from a2glos.analytic import p_los, p_los_baseline
from a2glos.approx import ApproxParams, p_los_approx, reference_mlp, save_mlp
from a2glos.cli import _parse_grid, build_parser, main
from a2glos.environment import Environment
from a2glos.fit import TrainConfig, build_dataset, load_dataset
from a2glos.geometry import FresnelSpec, LinkGeometry, wavelength_from_frequency
from a2glos.rt_sim import _subseed, realization_scene, scene_csv_lines

URBAN = Environment(0.3, 500.0, 15.0)


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def write_mlp(mlp, path):
    """Save a network to a model file, as the fit command writes one."""
    with open(path, "w") as fh:
        save_mlp(mlp, fh)


def data_rows(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_fit_defaults_are_the_train_config_defaults():
    args = build_parser().parse_args(
        ["fit", "--scenario", "urban", "--f-ghz", "28", "--out-prefix", "m"])
    cfg = TrainConfig(hidden_neurons=args.hidden, learning_rate=args.lr, epochs=args.epochs,
                      eta=args.eta, split_seed=args.seed)
    assert cfg == TrainConfig()


class TestGridSyntax:
    def test_inclusive_range(self):
        grid = _parse_grid("0:1000:1")
        assert len(grid) == 1001
        assert grid[0] == 0.0 and grid[-1] == 1000.0

    def test_comma_list_and_scalar(self):
        assert _parse_grid("1,2.5,9") == [1.0, 2.5, 9.0]
        assert _parse_grid("42") == [42.0]

    def test_bad_grids(self):
        for bad in ("1:2", "5:1:1", "1:10:0", "0:inf:1", "-inf:0:1", "0:10:inf", "nan:10:1",
                    "0:nan:1", "0:10:nan", ",", ",,"):
            with pytest.raises(ValueError):
                _parse_grid(bad)

    @pytest.mark.parametrize("option", ["--d", "--elevation"])
    def test_infinite_bound_is_a_usage_error(self, tmp_path, capsys, option):
        out = tmp_path / "never.csv"
        code = main(["analytic", "--scenario", "urban", "--f-ghz", "28", "--htx", "70",
                     option, "10:inf:1", "--out", str(out)])
        assert code == 2
        assert "bad grid bounds '10:inf:1'" in capsys.readouterr().err
        assert not out.exists()


class TestAnalyticCommand:
    def test_sweep_schema_and_values(self, tmp_path):
        code, out = run_cli(
            ["analytic", "--scenario", "urban", "--htx", "70", "--hrx", "1.5",
             "--f-ghz", "6", "--d", "100:200:50"],
            tmp_path,
        )
        assert code == 0
        text = out.read_text()
        # provenance header: version line plus full parameter echo
        head = text.splitlines()[:2]
        assert head[0].startswith("# a2glos v")
        assert "scenario=urban" in head[1] and "f_ghz=6" in head[1]
        rows = data_rows(text)
        assert rows[0] == "d,p_los"
        assert len(rows) == 1 + 3
        env = Environment(0.3, 500.0, 15.0)
        spec = FresnelSpec(299792458.0 / 6e9)
        for line in rows[1:]:
            d, p = (float(v) for v in line.split(","))
            assert p == p_los(LinkGeometry(70.0, 1.5, d), env, spec)

    def test_mcd_summary_line(self, tmp_path):
        code, out = run_cli(
            ["analytic", "--scenario", "high-rise", "--htx", "300", "--hrx", "1.5",
             "--f-ghz", "6", "--d", "50:100:50", "--mcd", "0.6"],
            tmp_path,
        )
        assert code == 0
        summary = [l for l in out.read_text().splitlines() if l.startswith("# mcd")]
        assert len(summary) == 1
        value = float(summary[0].split("distance_m=")[1])
        assert value == pytest.approx(163.3, abs=0.2)

    def test_infinite_frequency_with_zero_width_is_the_baseline(self, tmp_path):
        code, out = run_cli(
            ["analytic", "--alpha", "0.3", "--beta", "500", "--gamma", "15",
             "--htx", "70", "--hrx", "1.5", "--f-inf", "--width", "0",
             "--d", "50:1000:50"],
            tmp_path,
        )
        assert code == 0
        env = Environment(0.3, 500.0, 15.0)
        for line in data_rows(out.read_text())[1:]:
            d, p = (float(v) for v in line.split(","))
            assert abs(p - p_los_baseline(LinkGeometry(70.0, 1.5, d), env)) <= 1e-12

    def test_elevation_mode(self, tmp_path):
        code, out = run_cli(
            ["analytic", "--scenario", "urban", "--htx", "500", "--hrx", "2",
             "--f-ghz", "28", "--elevation", "30:80:10"],
            tmp_path,
        )
        assert code == 0
        rows = data_rows(out.read_text())
        assert rows[0] == "theta_deg,p_los"
        assert len(rows) == 1 + 6

    def test_full_kilometre_grid_has_1001_rows(self, tmp_path):
        code, out = run_cli(
            ["analytic", "--scenario", "urban", "--htx", "70", "--hrx", "1.5",
             "--f-ghz", "6", "--d", "0:1000:1"],
            tmp_path,
        )
        assert code == 0
        rows = data_rows(out.read_text())
        assert len(rows) == 1 + 1001
        assert rows[1] == "0.0,1.0"  # zero-distance limit

    def test_usage_errors(self, capsys):
        assert main(["analytic", "--scenario", "atlantis", "--htx", "70", "--f-ghz", "6"]) == 2
        assert main(["analytic", "--scenario", "urban", "--htx", "70"]) == 2  # no frequency
        assert main(["analytic", "--alpha", "0.3", "--htx", "70", "--f-ghz", "6"]) == 2
        assert main(["analytic", "--scenario", "urban", "--htx", "70", "--f-ghz", "6",
                     "--d", "10:1:5"]) == 2

    def test_elevation_sweep_at_equal_heights_is_a_usage_error(self, tmp_path):
        out = tmp_path / "never.csv"
        code = main(["analytic", "--scenario", "urban", "--f-ghz", "28", "--htx", "2",
                     "--hrx", "2", "--elevation", "10:30:10", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--htx", "1", "--hrx", "2", "--d", "0"],
            ["--htx", "30", "--d", "5", "--width", "-3"],
            ["--htx", "30", "--hrx", "nan", "--d", "5", "--mcd", "0.5"],
            ["--htx", "inf", "--d", "5"],
            ["--htx", "30", "--d", "inf"],
            ["--htx", "100", "--d", ","],
            ["--htx", "100", "--elevation", ","],
            ["--htx", "30", "--d", "5", "--f-ghz", "inf"],
        ],
        ids=["tx-below-rx-at-zero", "negative-width", "nan-rx-with-mcd", "infinite-tx",
             "infinite-distance", "empty-distance-grid", "empty-elevation-grid",
             "infinite-frequency"],
    )
    def test_degenerate_inputs_are_usage_errors(self, tmp_path, extra):
        # none of these distances crosses a building, so no product is formed
        out = tmp_path / "never.csv"
        code = main(["analytic", "--scenario", "urban", "--f-ghz", "28", *extra,
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_no_partial_file_on_failure(self, tmp_path):
        out = tmp_path / "never.csv"
        code = main(["analytic", "--scenario", "urban", "--htx", "70", "--f-ghz", "6",
                     "--d", "bogus", "--out", str(out)])
        assert code == 2
        assert not out.exists()


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        args = ["simulate", "--scenario", "urban", "--htx", "120", "--hrx", "2",
                "--f-ghz", "28", "--d", "100,300", "--realizations", "2",
                "--links-per-ring", "24", "--seed", "5"]
        _, a = run_cli(args, tmp_path, "a.csv")
        _, b = run_cli(args, tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path, monkeypatch):
        args = ["simulate", "--scenario", "urban", "--htx", "120", "--hrx", "2",
                "--f-ghz", "28", "--d", "100,300", "--realizations", "3",
                "--links-per-ring", "24", "--seed", "5"]
        monkeypatch.setenv("A2G_LOS_THREADS", "1")
        _, a = run_cli(args, tmp_path, "t1.csv")
        monkeypatch.setenv("A2G_LOS_THREADS", "8")
        _, b = run_cli(args, tmp_path, "t8.csv")
        assert a.read_bytes() == b.read_bytes()


class TestSimulateCommand:
    def test_schema_and_scene_dump(self, tmp_path):
        dump = tmp_path / "scene.csv"
        code, out = run_cli(
            ["simulate", "--scenario", "urban", "--htx", "120", "--hrx", "2",
             "--f-ghz", "28", "--d", "100:200:100", "--realizations", "1",
             "--links-per-ring", "12", "--seed", "1", "--dump-scene", str(dump)],
            tmp_path,
        )
        assert code == 0
        rows = data_rows(out.read_text())
        assert rows[0] == "d,p_sim,ci_halfwidth"
        assert len(rows) == 1 + 2
        scene_lines = dump.read_text().splitlines()
        n_rows = len([l for l in scene_lines if l and not l.startswith("#")]) - 1
        header = [l for l in scene_lines if l.startswith("# extent=")][0]
        assert header.endswith(f" seed={_subseed(1, 0)}")  # realization 0's scene
        assert n_rows > 0
        expected = "\n".join(scene_csv_lines(realization_scene(URBAN, 500.0, 1, 0))) + "\n"
        assert dump.read_text() == expected
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_output_leaves_no_scene_dump(self, tmp_path):
        dump = tmp_path / "scene.csv"
        code = main(["simulate", "--scenario", "urban", "--htx", "120", "--f-ghz", "28",
                     "--d", "100", "--realizations", "1", "--links-per-ring", "8",
                     "--dump-scene", str(dump), "--out", str(tmp_path / "nodir" / "x.csv")])
        assert code == 1
        assert not dump.exists()

    def test_failed_scene_dump_leaves_no_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["simulate", "--scenario", "urban", "--htx", "120", "--f-ghz", "28",
                     "--d", "100", "--realizations", "1", "--links-per-ring", "8",
                     "--dump-scene", str(tmp_path / "nodir" / "x.csv"), "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("command", ["simulate", "compare", "analytic"])
    @pytest.mark.parametrize("angles", ["0:80:10", "10:100:10"])
    def test_elevation_outside_zero_to_ninety_is_a_usage_error(self, tmp_path, capsys, command, angles):
        code, out = run_cli([command, "--scenario", "urban", "--htx", "100", "--f-ghz", "28",
                             "--elevation", angles], tmp_path)
        assert code == 2
        assert "elevation angle must be in (0, pi/2]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_receiver_below_ground_is_a_usage_error(self, tmp_path, capsys, command):
        code, out = run_cli([command, "--scenario", "urban", "--htx", "100", "--hrx", "-30",
                             "--f-ghz", "28", "--d", "50:100:50", "--realizations", "1",
                             "--links-per-ring", "8"], tmp_path)
        assert code == 2
        assert "h_rx must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("layout", ["grid", "uniform"])
    @pytest.mark.parametrize("command", [
        ["scene"],
        ["simulate", "--htx", "100", "--f-ghz", "28", "--d", "100", "--realizations", "1",
         "--links-per-ring", "8"],
    ], ids=["scene", "simulate"])
    def test_infinite_extent_is_a_usage_error(self, tmp_path, capsys, command, layout):
        code, out = run_cli([*command, "--scenario", "urban", "--extent", "inf",
                             "--layout", layout], tmp_path)
        assert code == 2
        assert "extent must be finite and > 0, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_elevation_mode(self, tmp_path):
        code, out = run_cli(
            ["simulate", "--scenario", "urban", "--htx", "120", "--hrx", "2",
             "--f-ghz", "28", "--elevation", "40:80:20", "--realizations", "1",
             "--links-per-ring", "12", "--seed", "2"],
            tmp_path,
        )
        assert code == 0
        rows = data_rows(out.read_text())
        assert rows[0] == "theta_deg,p_sim,ci_halfwidth"
        assert len(rows) == 1 + 3


class TestCompareCommand:
    def test_standard_model_columns(self, tmp_path):
        code, out = run_cli(
            ["compare", "--scenario", "urban", "--htx", "120", "--hrx", "2",
             "--f-ghz", "28", "--d", "100,200,400", "--realizations", "1",
             "--links-per-ring", "12", "--seed", "3",
             "--models", "analytic,approx-3gpp,approx-5gcm"],
            tmp_path,
        )
        assert code == 0
        text = out.read_text()
        rows = data_rows(text)
        assert rows[0] == "d,p_sim,ci_halfwidth,p_analytic,p_approx_3gpp,p_approx_5gcm"
        env = Environment(0.3, 500.0, 15.0)
        spec = FresnelSpec(299792458.0 / 28e9)
        for line in rows[1:]:
            vals = [float(v) for v in line.split(",")]
            d = vals[0]
            assert vals[3] == p_los(LinkGeometry(120.0, 2.0, d), env, spec)
            assert vals[4] == p_los_approx(d, ApproxParams(18.0, 63.0))
            assert vals[5] == p_los_approx(d, ApproxParams(20.0, 66.0))
        summaries = [l for l in text.splitlines() if l.startswith("# summary")]
        assert len(summaries) == 3
        assert all("mad_vs_sim=" in s and "breakpoint_m=" in s for s in summaries)

    def test_retrained_from_model_files(self, tmp_path):
        from a2glos.approx import Mlp

        # hand-made constant networks: D1 = 30, D2 = 90
        d1_net = Mlp((0.0,), (0.0,), (0.0,), 0.0, (0.0, 1000.0), (30.0, 31.0))
        d2_net = Mlp((0.0,), (0.0,), (0.0,), 0.0, (0.0, 1000.0), (90.0, 91.0))
        p1, p2 = tmp_path / "m.d1.txt", tmp_path / "m.d2.txt"
        write_mlp(d1_net, p1)
        write_mlp(d2_net, p2)
        code, out = run_cli(
            ["compare", "--scenario", "urban", "--htx", "120", "--hrx", "2",
             "--f-ghz", "28", "--d", "100,200", "--realizations", "1",
             "--links-per-ring", "12", "--seed", "3",
             "--models", "approx-retrained",
             "--d1-model", str(p1), "--d2-model", str(p2)],
            tmp_path,
        )
        assert code == 0
        rows = data_rows(out.read_text())
        for line in rows[1:]:
            vals = [float(v) for v in line.split(",")]
            assert vals[3] == p_los_approx(vals[0], ApproxParams(30.0, 90.0))

    def test_unknown_model_identifier(self):
        assert main(["compare", "--scenario", "urban", "--htx", "120",
                     "--f-ghz", "28", "--models", "crystal-ball"]) == 2

    def test_empty_model_list_is_a_usage_error(self, tmp_path):
        code, out = run_cli(["compare", "--scenario", "urban", "--htx", "120", "--f-ghz", "28",
                             "--d", "100", "--realizations", "1", "--models", ","], tmp_path)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("models, named", [
        ("approx-3gpp,approx-3gpp,analytic", "approx-3gpp"),
        ("analytic,approx-retrained,analytic,approx-retrained", "analytic, approx-retrained"),
    ])
    def test_a_model_named_twice_is_a_usage_error(self, tmp_path, capsys, monkeypatch, models, named):
        import a2glos.cli as cli_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("ran before the model list was checked")

        monkeypatch.setattr(cli_mod, "estimate_p_los", forbidden)
        monkeypatch.setattr(cli_mod, "train_pair", forbidden)
        code, out = run_cli(["compare", "--scenario", "high-rise", "--htx", "60", "--hrx", "2",
                             "--f-ghz", "28", "--d", "50,100", "--realizations", "1",
                             "--links-per-ring", "8", "--models", models, "--layout", "uniform"],
                            tmp_path)
        assert code == 2
        assert f"--models names {named} more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("given", ["--d1-model", "--d2-model"])
    def test_a_lone_model_file_is_a_usage_error(self, tmp_path, capsys, given):
        net = tmp_path / "m.txt"
        write_mlp(reference_mlp("urban", "d1"), net)
        code, out = run_cli(["compare", "--scenario", "urban", "--htx", "120", "--f-ghz", "28",
                             "--d", "100", "--realizations", "1", "--models", "approx-retrained",
                             given, str(net)], tmp_path)
        assert code == 2
        assert "--d1-model and --d2-model" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, replace", [
        ("inorm 0", True), ("onorm 0 1 2", True), ("ob 1 2", True), ("iw 1 2 3 4", False),
    ])
    def test_bad_model_file_fails_before_simulating(self, tmp_path, capsys, monkeypatch, line, replace):
        import a2glos.cli as cli_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("simulated before the model files were read")

        monkeypatch.setattr(cli_mod, "estimate_p_los", forbidden)
        p1, p2 = tmp_path / "m.d1.txt", tmp_path / "m.d2.txt"
        write_mlp(reference_mlp("urban", "d1"), p1)
        write_mlp(reference_mlp("urban", "d2"), p2)
        tag = line.split()[0]
        lines = [l for l in p2.read_text().splitlines() if not (replace and l.split()[0] == tag)]
        p2.write_text("\n".join(lines + [line]) + "\n")
        code, out = run_cli(["compare", "--scenario", "urban", "--htx", "120", "--f-ghz", "28",
                             "--d", "100", "--realizations", "1", "--models", "approx-retrained",
                             "--d1-model", str(p1), "--d2-model", str(p2)], tmp_path)
        assert code == 2
        assert f"tensor tag '{tag}'" in capsys.readouterr().err
        assert not out.exists()

    def test_retrained_model_at_equal_heights_is_a_usage_error(self, tmp_path, capsys):
        p1, p2 = tmp_path / "m.d1.txt", tmp_path / "m.d2.txt"
        write_mlp(reference_mlp("urban", "d1"), p1)
        write_mlp(reference_mlp("urban", "d2"), p2)
        code, out = run_cli(["compare", "--scenario", "urban", "--htx", "2", "--hrx", "2",
                             "--f-ghz", "28", "--d", "100", "--realizations", "1",
                             "--links-per-ring", "8", "--models", "approx-retrained",
                             "--d1-model", str(p1), "--d2-model", str(p2)], tmp_path)
        assert code == 2
        assert "delta_h must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_retrained_model_at_equal_heights_fails_before_simulating(
        self, tmp_path, capsys, monkeypatch
    ):
        import a2glos.cli as cli_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("ran before delta_h was checked")

        monkeypatch.setattr(cli_mod, "estimate_p_los", forbidden)
        monkeypatch.setattr(cli_mod, "train_pair", forbidden)
        code, out = run_cli(["compare", "--scenario", "urban", "--htx", "2", "--hrx", "2",
                             "--f-ghz", "28", "--d", "100", "--realizations", "1",
                             "--links-per-ring", "8", "--models", "analytic,approx-retrained"],
                            tmp_path)
        assert code == 2
        assert "delta_h must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_then_compare_workflow(self, tmp_path):
        # model files produced by `fit` feed straight into `compare`
        prefix = tmp_path / "net"
        code = main(["fit", "--scenario", "urban", "--f-ghz", "28",
                     "--delta-h", "68.5,168.5,268.5,368.5,468.5,568.5,668.5,768.5,868.5,968.5",
                     "--d", "25:1000:25", "--epochs", "600", "--seed", "3",
                     "--out-prefix", str(prefix), "--out", str(tmp_path / "report.csv")])
        assert code == 0
        code, out = run_cli(
            ["compare", "--scenario", "urban", "--htx", "120", "--hrx", "2",
             "--f-ghz", "28", "--d", "50,100,400", "--realizations", "1",
             "--links-per-ring", "12", "--seed", "3",
             "--models", "analytic,approx-retrained",
             "--d1-model", str(tmp_path / "net.d1.txt"),
             "--d2-model", str(tmp_path / "net.d2.txt")],
            tmp_path,
        )
        assert code == 0
        rows = data_rows(out.read_text())
        assert rows[0] == "d,p_sim,ci_halfwidth,p_analytic,p_approx_retrained"
        for line in rows[1:]:
            vals = [float(v) for v in line.split(",")]
            assert 0.0 <= vals[4] <= 1.0


class TestFitCommand:
    def test_writes_models_and_report(self, tmp_path):
        prefix = tmp_path / "urbannet"
        args = ["fit", "--scenario", "urban", "--f-ghz", "28",
                "--delta-h", "68.5,168.5,268.5,368.5,468.5,568.5,668.5,768.5,868.5,968.5",
                "--d", "20:1000:20", "--epochs", "800", "--seed", "7",
                "--out-prefix", str(prefix)]
        code, out = run_cli(args, tmp_path, "report.csv")
        assert code == 0
        d1_file = tmp_path / "urbannet.d1.txt"
        d2_file = tmp_path / "urbannet.d2.txt"
        assert d1_file.exists() and d2_file.exists()
        text = out.read_text()
        rows = data_rows(text)
        assert rows[0] == "delta_h,d1,d2"
        assert len(rows) == 1 + 10
        assert any("train_rmse_m=" in l for l in text.splitlines())
        assert any("validation_rmse_m=" in l for l in text.splitlines())
        assert any("approx_vs_analytic mse=" in l for l in text.splitlines())
        # the report reads back as the dataset the models were trained on
        dataset = build_dataset(URBAN, FresnelSpec(wavelength_from_frequency(28e9)),
                                delta_h_grid=_parse_grid(args[args.index("--delta-h") + 1]),
                                d_grid=_parse_grid(args[args.index("--d") + 1]))
        back = load_dataset(out)
        assert (back.records, back.env, back.spec, back.h_rx) == (
            dataset.records, dataset.env, dataset.spec, dataset.h_rx)
        # determinism of the model files
        first = d1_file.read_bytes()
        code2, _ = run_cli(args, tmp_path, "report2.csv")
        assert code2 == 0
        assert d1_file.read_bytes() == first

    def test_failed_report_leaves_no_model_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m").mkdir()
        code = main(["fit", "--scenario", "urban", "--f-ghz", "28",
                     "--delta-h", "28.5:128.5:10", "--epochs", "10",
                     "--out-prefix", "m/u", "--out", "nodir/report.csv"])
        assert code == 1
        assert list((tmp_path / "m").iterdir()) == []

    def test_failed_model_file_leaves_no_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["fit", "--scenario", "urban", "--f-ghz", "28",
                     "--delta-h", "28.5:128.5:10", "--epochs", "20",
                     "--out", "r.csv", "--out-prefix", "nodir/u"])
        assert code == 1
        assert not (tmp_path / "r.csv").exists()
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("extra", [["--eta", "nan"], ["--eta", "inf"], ["--lr", "inf"]])
    def test_non_finite_hyperparameters_are_usage_errors(self, tmp_path, extra):
        out = tmp_path / "never.csv"
        code = main(["fit", "--scenario", "urban", "--f-ghz", "28",
                     "--delta-h", "28.5:128.5:10", "--epochs", "20",
                     "--out-prefix", str(tmp_path / "u"), "--out", str(out)] + extra)
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option", ["--d", "--delta-h"])
    @pytest.mark.parametrize("grid", ["", ","])
    def test_empty_grid_is_a_usage_error(self, tmp_path, capsys, option, grid):
        code = main(["fit", "--scenario", "urban", "--f-ghz", "28", option, grid,
                     "--out-prefix", str(tmp_path / "net"), "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "has no value" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_non_positive_height_difference_is_a_usage_error(self, tmp_path, capsys):
        code, out = run_cli(["fit", "--scenario", "urban", "--f-ghz", "28", "--delta-h", "0:90:10",
                             "--epochs", "10", "--out-prefix", str(tmp_path / "net")], tmp_path)
        assert code == 2
        assert "delta_h must be > 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_degenerate_dataset_fails_with_the_offending_height(self, tmp_path, capsys):
        # a transmitter this high never loses any link: nothing to fit
        code = main(["fit", "--scenario", "urban", "--f-ghz", "28",
                     "--delta-h", "1e6", "--d", "100:1000:100",
                     "--out-prefix", str(tmp_path / "net")])
        assert code == 1
        err = capsys.readouterr().err
        assert "1e" in err or "1000000" in err

    def test_one_positive_fit_distance_is_a_usage_error(self, tmp_path, capsys):
        code = main(["fit", "--scenario", "urban", "--f-ghz", "28", "--d", "0,500",
                     "--out-prefix", str(tmp_path / "net"), "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "two distinct ones > 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_retrained_model_without_records_names_the_rejection(self, tmp_path, capsys):
        # every default height difference is rejected in this area: compare
        # fails as fit does, not on the empty training split
        code = main(["compare", "--alpha", "0.02", "--beta", "4", "--gamma", "1", "--htx", "100",
                     "--f-ghz", "28", "--d", "100:400:100", "--realizations", "1",
                     "--links-per-ring", "4", "--models", "approx-retrained",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "dataset generation failed: delta_h=" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unwritable_output_is_a_runtime_error(self, tmp_path, capsys):
        code = main(["analytic", "--scenario", "urban", "--htx", "70",
                     "--f-ghz", "6", "--d", "1,2",
                     "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv")])
        assert code == 1


class TestOutputFileMode:
    def test_outputs_get_the_umask_permissions(self, tmp_path):
        # under umask 027 a plain open() gives 0o640, where a bare
        # temporary file would keep 0o600
        previous = os.umask(0o027)
        try:
            fit_code = main(["fit", "--scenario", "urban", "--f-ghz", "28",
                             "--delta-h", "28.5:128.5:10", "--epochs", "20",
                             "--out-prefix", str(tmp_path / "u"), "--out", str(tmp_path / "fit.csv")])
            sim_code = main(["simulate", "--scenario", "urban", "--htx", "120", "--f-ghz", "28",
                             "--d", "100", "--realizations", "1", "--links-per-ring", "8",
                             "--dump-scene", str(tmp_path / "scene.csv"),
                             "--out", str(tmp_path / "sim.csv")])
        finally:
            os.umask(previous)
        assert fit_code == 0 and sim_code == 0
        for name in ("fit.csv", "u.d1.txt", "u.d2.txt", "sim.csv", "scene.csv"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o640, name
