"""The (D1, D2) fit of every default curve against an independent solver.

``fit_oracle`` finds the least-squares optimum its own way: one interval
at a time, with a denser D2 scan. For each preset at 28 GHz the dataset's
fits must be no worse than the oracle's optimum, and no worse than the
best point with an integer D2 in 1..2000, which bounds the old integer
grid D1 = 1..600 x D2 = 1..2000 from below.
"""

import numpy as np
import pytest

import fit_oracle
from a2glos.analytic import p_los_curve
from a2glos.cli import main
from a2glos.environment import get_scenario
from a2glos.fit import (
    TrainConfig,
    build_dataset,
    default_d_grid,
    default_delta_h_grid,
    fit_parametric_curve,
    train,
)
from a2glos.geometry import FresnelSpec, wavelength_from_frequency

SPEC28 = FresnelSpec(wavelength_from_frequency(28e9))
PRESETS = ("urban", "suburban", "dense-urban", "high-rise")
# suburban at 28 GHz: from here up the fitted D1 leaves at most one grid
# distance beyond it
SUBURBAN_UNIDENTIFIED = [668.5 + 10.0 * k for k in range(34)]
# suburban at 28 GHz: below those, the SSE still falls at the 1e6 m end of
# the D2 scan
SUBURBAN_D2_AT_SCAN_END = [588.5 + 10.0 * k for k in range(8)]


@pytest.fixture(scope="module")
def fits():
    """Per preset: the curves, the dataset and the oracle's fit of every curve."""
    d, dhs = default_d_grid(), default_delta_h_grid()
    out = {}
    for name in PRESETS:
        env = get_scenario(name).env
        curves = p_los_curve(1.5 + dhs[:, None], 1.5, d, env, SPEC28)
        out[name] = (curves, build_dataset(env, SPEC28), fit_oracle.solve(d, curves))
    return out


@pytest.mark.parametrize("preset", PRESETS)
def test_no_worse_than_the_exact_optimum(fits, preset):
    _, ds, oracle = fits[preset]
    index = {dh: i for i, dh in enumerate(default_delta_h_grid().tolist())}
    assert len(ds.fit_sse) == len(ds) > 0
    for record, sse in zip(ds.records, ds.fit_sse):
        i = index[record.delta_h]
        assert sse <= oracle["sse"][i] * (1.0 + 1e-9) + 1e-15, record
        assert sse <= oracle["line_sse"][i] * (1.0 + 1e-9) + 1e-15, record


@pytest.mark.parametrize("preset, delta_h, d1, d2", [
    ("urban", 888.5, 665.39, 1516.22),
    ("suburban", 238.5, 642.64, None),
])
def test_pinned_optima(fits, preset, delta_h, d1, d2):
    # both stopped short of the optimum under the old grid-and-pattern search
    _, ds, oracle = fits[preset]
    i = default_delta_h_grid().tolist().index(delta_h)
    record = next(r for r in ds.records if r.delta_h == delta_h)
    for got_d1, got_d2 in ((record.d1, record.d2), (oracle["d1"][i], oracle["d2"][i])):
        assert got_d1 == pytest.approx(d1, abs=0.01)
        if d2 is not None:
            assert got_d2 == pytest.approx(d2, abs=0.01)


@pytest.mark.parametrize("preset, delta_h", [("urban", 478.5), ("suburban", 458.5)])
def test_rugged_profiles_at_2_4_ghz(preset, delta_h):
    # a refined scan of 300 log-spaced D2 values misses both global optima
    d = default_d_grid()
    spec = FresnelSpec(wavelength_from_frequency(2.4e9))
    curve = p_los_curve(1.5 + delta_h, 1.5, d, get_scenario(preset).env, spec)
    _, _, sse = fit_parametric_curve(d, curve)
    assert sse <= fit_oracle.solve(d, curve[None])["sse"][0] * (1.0 + 1e-9) + 1e-15


def test_unidentified_curves_are_rejected(fits, tmp_path):
    curves, ds, _ = fits["suburban"]
    d = default_d_grid()
    d1, d2, _ = fit_parametric_curve(d, curves)
    beyond = np.sum(d > d1[:, None], axis=1)
    at_end = (beyond >= 2) & (d2 > 0.99e6)
    assert default_delta_h_grid()[beyond < 2].tolist() == SUBURBAN_UNIDENTIFIED
    assert default_delta_h_grid()[at_end].tolist() == SUBURBAN_D2_AT_SCAN_END
    assert np.all(np.abs(d2[at_end] - 1e6) < 1e-5)
    unidentified = SUBURBAN_D2_AT_SCAN_END + SUBURBAN_UNIDENTIFIED
    assert [dh for dh, _ in ds.rejected] == unidentified
    assert all(reason.startswith("D2 is not identified") for _, reason in ds.rejected)
    assert all("end of the scan" in reason for _, reason in ds.rejected[:8])
    assert [r.delta_h for r in ds.records] == default_delta_h_grid()[(beyond >= 2) & ~at_end].tolist()
    assert max(r.d2 for r in ds.records) < 0.9e6

    out = tmp_path / "report.csv"
    assert main(["fit", "--scenario", "suburban", "--f-ghz", "28", "--epochs", "20",
                 "--out-prefix", str(tmp_path / "sub"), "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if l.startswith("# rejected")]
    assert [float(l.split("delta_h=")[1].split(":")[0]) for l in lines] == unidentified
    assert all(": D2 is not identified: " in l for l in lines)


@pytest.mark.parametrize("preset", PRESETS)
def test_every_preset_still_trains(fits, preset):
    # the dataset approx-retrained trains on (fit.train_pair), fewer epochs
    _, ds, _ = fits[preset]
    models = train(ds, ("d1", "d2"), TrainConfig(epochs=50))
    assert len(models) == 2


def test_one_curve_equals_its_row_of_a_stack(fits):
    curves = fits["urban"][0][::9]
    d = default_d_grid()
    stacked = fit_parametric_curve(d, curves)
    for row, curve in enumerate(curves):
        single = fit_parametric_curve(d, curve)
        assert all(isinstance(v, float) for v in single)
        assert single == tuple(float(a[row]) for a in stacked)
