import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import approx_reference as reference
from a2glos.approx import (
    ApproxParams,
    Mlp,
    STANDARD_PARAM_SETS,
    load_mlp,
    mlp_forward,
    network_params,
    p_los_approx,
    reference_mlp,
    save_mlp,
)

SCENARIOS = ("suburban", "urban", "dense-urban", "high-rise")


def forward_oracle(mlp: Mlp, delta_h: float) -> float:
    """Scalar re-implementation of the forward pass, no vector ops."""
    x = (delta_h - mlp.input_norm[0]) / (mlp.input_norm[1] - mlp.input_norm[0])
    acc = mlp.output_bias
    for w_in, b_in, w_out in zip(mlp.input_weights, mlp.input_biases, mlp.output_weights):
        acc += w_out / (1.0 + math.exp(-(w_in * x + b_in)))
    return acc * (mlp.output_norm[1] - mlp.output_norm[0]) + mlp.output_norm[0]


class TestParametricModel:
    def test_unity_up_to_breakpoint(self):
        params = ApproxParams(18.0, 63.0)
        for d in (0.0, 1.0, 9.0, 17.999, 18.0):
            assert p_los_approx(d, params) == 1.0

    def test_reference_point(self):
        assert p_los_approx(100.0, ApproxParams(18.0, 63.0)) == pytest.approx(
            0.34767083684423117, rel=1e-12
        )

    def test_vanishes_far_out(self):
        params = ApproxParams(18.0, 63.0)
        assert p_los_approx(1e7, params) < 1e-5
        assert p_los_approx(1e9, params) < 1e-7

    def test_continuous_at_breakpoint_and_decreasing_beyond(self):
        params = ApproxParams(50.0, 120.0)
        just_before = p_los_approx(50.0 - 1e-9, params)
        just_after = p_los_approx(50.0 + 1e-9, params)
        assert just_before == pytest.approx(1.0, abs=1e-12)
        assert just_after == pytest.approx(1.0, abs=1e-9)
        grid = np.linspace(51.0, 5000.0, 500)
        vals = [p_los_approx(d, params) for d in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v <= 1.0 for v in vals)

    def test_standard_parameter_sets(self):
        assert STANDARD_PARAM_SETS["3gpp"] == ApproxParams(18.0, 63.0)
        assert STANDARD_PARAM_SETS["5gcm"] == ApproxParams(20.0, 66.0)

    def test_invariants(self):
        with pytest.raises(ValueError):
            ApproxParams(0.0, 63.0)
        with pytest.raises(ValueError):
            ApproxParams(18.0, -1.0)
        with pytest.raises(ValueError):
            p_los_approx(-1.0, ApproxParams(18.0, 63.0))


class TestCurveKernel:
    """The array p_los_approx against the scalar reference, value by value."""

    PARAMS = [
        ApproxParams(18.0, 63.0),
        ApproxParams(20.0, 66.0),
        ApproxParams(50.0, 120.0),
        ApproxParams(1e-3, 1e-3),
        ApproxParams(937.25, 8.6e5),
    ]

    def distances(self, params, rng):
        d1 = params.d1
        edges = [0.0, d1, d1 - 1e-9, d1 + 1e-9, np.nextafter(d1, 0.0), np.nextafter(d1, 2 * d1), 1e9]
        return np.concatenate([edges, rng.uniform(0.0, 3.0 * d1, 200), rng.uniform(0.0, 5e3, 200)])

    @pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"{p.d1}-{p.d2}")
    def test_array_equals_scalar_calls(self, params):
        d = self.distances(params, np.random.default_rng(5))
        got = p_los_approx(d, params)
        assert isinstance(got, np.ndarray) and got.shape == d.shape
        want = [reference.p_los_approx(float(x), params) for x in d]
        assert got.tolist() == want
        assert got.tolist() == [p_los_approx(float(x), params) for x in d]
        assert np.all(got[d <= params.d1] == 1.0)
        assert np.all((got[d > params.d1] > 0.0) & (got[d > params.d1] <= 1.0))

    def test_scalar_input_gives_a_float(self):
        params = ApproxParams(18.0, 63.0)
        for d in (0.0, 18.0, 100.0, 1e9):
            got = p_los_approx(d, params)
            assert type(got) is float and got == reference.p_los_approx(d, params)

    def test_parameter_arrays_broadcast_one_curve_per_row(self):
        rng = np.random.default_rng(8)
        d1, d2 = rng.uniform(1.0, 400.0, (6, 1)), rng.uniform(5.0, 2e3, (6, 1))
        d = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1000.0, 50)])
        got = p_los_approx(d, ApproxParams(d1, d2))
        assert got.shape == (6, d.size)
        for row, a, b in zip(got, d1[:, 0], d2[:, 0]):
            assert row.tolist() == [reference.p_los_approx(float(x), ApproxParams(a, b)) for x in d]

    def test_negative_distance_in_an_array_is_rejected(self):
        with pytest.raises(ValueError, match="-2.0"):
            p_los_approx(np.array([1.0, -2.0, 3.0]), ApproxParams(18.0, 63.0))

    def test_non_positive_parameter_arrays_are_rejected(self):
        with pytest.raises(ValueError, match="d1"):
            ApproxParams(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="d2"):
            ApproxParams(np.array([1.0, 2.0]), np.array([1.0, np.nan]))


class TestForwardKernel:
    """The array mlp_forward against one call per height difference."""

    DHS = np.concatenate([[0.0, 1e-9, 28.5, 998.5, 1e4, 1e6, -50.0], np.arange(28.5, 1000.0, 10.0)])

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("parameter", ["d1", "d2"])
    def test_reference_networks(self, scenario, parameter):
        mlp = reference_mlp(scenario, parameter)
        got = mlp_forward(mlp, self.DHS)
        assert isinstance(got, np.ndarray) and got.shape == self.DHS.shape
        assert got.tolist() == [reference.mlp_forward(mlp, float(dh)) for dh in self.DHS]
        assert got.tolist() == [mlp_forward(mlp, float(dh)) for dh in self.DHS]

    def test_random_networks_and_shapes(self):
        rng = np.random.default_rng(17)
        for j in (1, 4, 9):
            mlp = Mlp(tuple(rng.normal(0, 8, j)), tuple(rng.normal(0, 3, j)),
                      tuple(rng.normal(0, 3, j)), float(rng.normal()), (28.5, 998.5), (3.0, 1700.0))
            dhs = rng.uniform(0.0, 1200.0, (5, 7))
            got = mlp_forward(mlp, dhs)
            assert got.shape == (5, 7)
            assert got.ravel().tolist() == [reference.mlp_forward(mlp, float(dh)) for dh in dhs.ravel()]

    def test_scalar_input_gives_a_float(self):
        mlp = reference_mlp("urban", "d2")
        got = mlp_forward(mlp, 250.0)
        assert type(got) is float and got == reference.mlp_forward(mlp, 250.0)


FINITE = st.floats(-1e3, 1e3)
HEIGHTS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, max_side=5),
                     elements=st.floats(-2e3, 1e6))


@st.composite
def networks(draw):
    """A random network: 1 to 12 hidden neurons, weights of either sign and
    any normalization ranges."""
    j = draw(st.integers(1, 12))
    tensor = st.lists(FINITE, min_size=j, max_size=j).map(tuple)
    norms = [(lo, lo + draw(st.floats(1e-3, 1e4))) for lo in (draw(FINITE), draw(FINITE))]
    return Mlp(draw(tensor), draw(tensor), draw(tensor), draw(FINITE), *norms)


@st.composite
def curves(draw):
    """Distances of a random shape, with (D1, D2) as scalars or one pair per
    row; the breakpoint itself and its float neighbours are among them."""
    d1 = draw(st.floats(1e-3, 1e4))
    d2 = draw(st.floats(1e-3, 1e6))
    edges = [0.0, d1, np.nextafter(d1, 0.0), np.nextafter(d1, math.inf)]
    d = draw(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=6),
                        elements=st.sampled_from(edges) | st.floats(0.0, 1e7)))
    if d.ndim == 2 and draw(st.booleans()):
        rows = (d.shape[0], 1)
        d1, d2 = (draw(hnp.arrays(np.float64, rows, elements=st.floats(1e-3, top)))
                  for top in (1e4, 1e6))
    return d, ApproxParams(d1, d2)


class TestKernelProperties:
    """Both array kernels against the scalar reference, on random inputs."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(mlp=networks(), dhs=HEIGHTS)
    def test_mlp_forward_equals_the_reference(self, mlp, dhs):
        got = mlp_forward(mlp, dhs)
        assert (type(got) is float) == (dhs.ndim == 0)
        assert np.shape(got) == dhs.shape
        assert np.ravel(got).tolist() == [reference.mlp_forward(mlp, float(x)) for x in dhs.ravel()]

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(case=curves())
    def test_p_los_approx_equals_the_reference(self, case):
        d, params = case
        got = p_los_approx(d, params)
        assert (type(got) is float) == (d.ndim == 0)
        d, d1, d2 = np.broadcast_arrays(d, params.d1, params.d2)
        assert np.shape(got) == d.shape
        want = [reference.p_los_approx(float(x), ApproxParams(float(a), float(b)))
                for x, a, b in zip(d.ravel(), d1.ravel(), d2.ravel())]
        assert np.ravel(got).tolist() == want


class TestNetworkParams:
    def test_floor_and_values_match_the_scalar_rule(self):
        # a network whose output falls below zero past mid-range: the floor bites
        falling = Mlp((20.0,), (-10.0,), (-1.0,), 0.5, (0.0, 1000.0), (0.0, 100.0))
        rising = reference_mlp("urban", "d2")
        dhs = np.linspace(10.0, 990.0, 50)
        got = network_params((falling, rising), dhs)
        want_d1 = [max(reference.mlp_forward(falling, dh), 1e-3) for dh in dhs]
        want_d2 = [max(reference.mlp_forward(rising, dh), 1e-3) for dh in dhs]
        assert got.d1.tolist() == want_d1 and got.d2.tolist() == want_d2
        assert 1e-3 in want_d1 and min(want_d1) == 1e-3
        one = network_params((falling, rising), float(dhs[45]))
        assert (one.d1, one.d2) == (want_d1[45], want_d2[45]) == (1e-3, want_d2[45])

    def test_non_positive_height_difference_is_rejected(self):
        pair = (reference_mlp("urban", "d1"), reference_mlp("urban", "d2"))
        for bad in (0.0, -1.0, np.array([10.0, 0.0]), np.nan):
            with pytest.raises(ValueError, match="delta_h must be > 0"):
                network_params(pair, bad)


class TestForwardPass:
    def test_all_zero_weights_give_denormalized_bias(self):
        mlp = Mlp((0.0,) * 4, (0.0,) * 4, (0.0,) * 4, 0.25, (0.0, 1000.0), (10.0, 30.0))
        for dh in (0.0, 123.0, 999.0):
            assert mlp_forward(mlp, dh) == pytest.approx(10.0 + 0.25 * 20.0, rel=1e-12)

    def test_saturated_neuron_steps(self):
        mlp = Mlp((1e4,), (-5e3,), (1.0,), 0.0, (0.0, 1000.0), (0.0, 1.0))
        assert mlp_forward(mlp, 100.0) == pytest.approx(0.0, abs=1e-12)  # far below step
        assert mlp_forward(mlp, 900.0) == pytest.approx(1.0, abs=1e-12)  # far above step

    def test_scalar_oracle_on_random_network(self):
        rng = np.random.default_rng(99)
        mlp = Mlp(
            tuple(rng.normal(0, 3, 4)),
            tuple(rng.normal(0, 3, 4)),
            tuple(rng.normal(0, 3, 4)),
            float(rng.normal()),
            (0.0, 500.0),
            (5.0, 800.0),
        )
        for dh in (0.0, 100.0, 250.0, 499.0):
            assert mlp_forward(mlp, dh) == pytest.approx(forward_oracle(mlp, dh), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            Mlp((), (), (), 0.0, (0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            Mlp((1.0,), (1.0, 2.0), (1.0,), 0.0, (0.0, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            Mlp((1.0,), (1.0,), (1.0,), 0.0, (1.0, 1.0), (0.0, 1.0))


class TestSerialization:
    def test_round_trip_is_lossless(self):
        rng = np.random.default_rng(3)
        mlp = Mlp(
            tuple(rng.normal(0, 10, 4)),
            tuple(rng.normal(0, 1e-7, 4)),
            tuple(rng.normal(0, 1e5, 4)),
            -1.2345678901234567e-12,
            (28.5, 998.5),
            (3.0, 1702.25),
        )
        buf = io.StringIO()
        save_mlp(mlp, buf)
        restored = load_mlp(io.StringIO(buf.getvalue()))
        assert restored == mlp  # dataclass equality: every float identical

    def test_file_round_trip(self, tmp_path):
        mlp = reference_mlp("urban", "d1")
        path = tmp_path / "net.txt"
        with path.open("w") as fh:
            save_mlp(mlp, fh)
        assert load_mlp(path) == mlp

    def test_missing_tensor_is_an_error(self):
        with pytest.raises(ValueError, match="ob"):
            load_mlp(io.StringIO("iw 1\nib 0\now 1\ninorm 0 1\nonorm 0 1\n"))

    @staticmethod
    def saved_lines():
        buf = io.StringIO()
        save_mlp(reference_mlp("urban", "d1"), buf)
        return buf.getvalue().splitlines()

    @pytest.mark.parametrize("line, message", [
        ("ob", "'ob' takes 1 value(s), got 0"),
        ("ob 1 2", "'ob' takes 1 value(s), got 2"),
        ("inorm 0", "'inorm' takes 2 value(s), got 1"),
        ("onorm 0 1 2", "'onorm' takes 2 value(s), got 3"),
    ])
    def test_wrong_value_count_is_an_error(self, line, message):
        tag = line.split()[0]
        lines = [l for l in self.saved_lines() if l.split()[0] != tag] + [line]
        with pytest.raises(ValueError, match=re.escape(message)):
            load_mlp(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize("tag", ["iw", "ib", "ow", "ob", "inorm", "onorm"])
    def test_repeated_tag_is_an_error(self, tag):
        lines = self.saved_lines()
        lines += [l for l in lines if l.split()[0] == tag]
        with pytest.raises(ValueError, match=f"'{tag}' is repeated"):
            load_mlp(io.StringIO("\n".join(lines) + "\n"))


class TestReferenceWeights:
    def test_spot_values_match_the_published_table(self):
        assert reference_mlp("suburban", "d1").input_weights[0] == 16.2579
        assert reference_mlp("urban", "d1").output_bias == -1.4798
        assert reference_mlp("dense-urban", "d2").input_biases[3] == 2.9326
        assert reference_mlp("high-rise", "d2").output_bias == -2.6654
        assert reference_mlp("urban", "d2").input_weights == (-13.0707, 8.4525, -1.3332, 7.2757)

    def test_all_scenarios_load(self):
        for name in ("suburban", "urban", "dense-urban", "high-rise"):
            for param in ("d1", "d2"):
                mlp = reference_mlp(name, param)
                assert len(mlp.input_weights) == 4

    def test_unknown_lookups(self):
        with pytest.raises(KeyError):
            reference_mlp("metropolis", "d1")
        with pytest.raises(ValueError):
            reference_mlp("urban", "d3")
