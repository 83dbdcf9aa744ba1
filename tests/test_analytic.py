import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import analytic_reference as reference
from a2glos import analytic
from a2glos.analytic import (
    max_comm_distance,
    p_los,
    p_los_baseline,
    p_los_curve,
    p_los_vs_elevation,
)
from a2glos.environment import (
    Environment,
    building_count,
    building_position,
    get_scenario,
    height_cdf,
    load_scenarios,
)
from a2glos.geometry import FresnelSpec, LinkGeometry, allowed_height, wavelength_from_frequency

URBAN = Environment(0.3, 500.0, 15.0)
HIGH_RISE = Environment(0.5, 300.0, 50.0)
LAMBDA_6GHZ = wavelength_from_frequency(6e9)
LAMBDA_28GHZ = wavelength_from_frequency(28e9)
PRESETS = [preset.env for preset in load_scenarios().values()]
CARRIERS = [wavelength_from_frequency(2.4e9), LAMBDA_28GHZ, 0.0]  # 0: --f-inf


def baseline_oracle(h_tx, h_rx, d, env):
    """Independent scalar-loop evaluation of the width-blind product."""
    n = math.floor(d * math.sqrt(env.alpha * env.beta) / 1000.0)
    prod = 1.0
    for i in range(1, n + 1):
        h = h_tx - ((i - 0.5) / n) * (h_tx - h_rx)
        prod *= 1.0 - math.exp(-h * h / (2.0 * env.gamma**2))
    return prod


class TestBaseline:
    def test_empty_product_below_first_building(self):
        assert p_los_baseline(LinkGeometry(70.0, 1.5, 50.0), URBAN) == 1.0

    def test_ground_level_link_is_blocked(self):
        # the h_tx = h_rx = 0 case of the formula is outside the link
        # domain (h_tx > 0); the limit from above is already ~0
        p = p_los_baseline(LinkGeometry(1e-6, 1e-6, 1000.0), URBAN)
        assert p < 1e-12

    def test_scalar_loop_oracle(self):
        link = LinkGeometry(70.0, 1.5, 500.0)
        expect = baseline_oracle(70.0, 1.5, 500.0, URBAN)
        assert expect == pytest.approx(0.049498150382895637, rel=1e-12)  # frozen
        assert p_los_baseline(link, URBAN) == pytest.approx(expect, rel=1e-12)

    def test_oracle_randomized(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            h_rx = rng.uniform(0.0, 5.0)
            h_tx = h_rx + rng.uniform(0.1, 800.0)
            d = rng.uniform(10.0, 3000.0)
            env = Environment(rng.uniform(0.05, 0.7), rng.uniform(100, 900), rng.uniform(5, 60))
            assert p_los_baseline(LinkGeometry(h_tx, h_rx, d), env) == pytest.approx(
                baseline_oracle(h_tx, h_rx, d, env), rel=1e-12
            )


class TestPLos:
    def test_reduces_to_baseline_without_width_and_clearance(self):
        rng = np.random.default_rng(123)
        spec0 = FresnelSpec(0.0)
        for _ in range(200):
            h_rx = rng.uniform(0.0, 10.0)
            h_tx = h_rx + rng.uniform(0.1, 1000.0)
            d = rng.uniform(1.0, 3000.0)
            env = Environment(rng.uniform(0.05, 0.9), rng.uniform(50, 900), rng.uniform(3, 60))
            link = LinkGeometry(h_tx, h_rx, d)
            assert abs(p_los(link, env, spec0, width=0.0) - p_los_baseline(link, env)) <= 1e-12

    def test_sky_high_transmitter_sees_everything(self):
        link = LinkGeometry(1e6, 1.5, 1000.0)
        assert p_los(link, URBAN, FresnelSpec(LAMBDA_6GHZ)) == pytest.approx(1.0, abs=1e-12)

    def test_probability_bounds_and_no_building_case(self):
        spec = FresnelSpec(LAMBDA_6GHZ)
        rng = np.random.default_rng(5)
        for _ in range(200):
            h_rx = rng.uniform(0.0, 5.0)
            h_tx = h_rx + rng.uniform(0.1, 500.0)
            d = rng.uniform(1.0, 2000.0)
            link = LinkGeometry(h_tx, h_rx, d)
            p = p_los(link, URBAN, spec)
            assert 0.0 <= p <= 1.0
            if building_count(URBAN, d) == 0:
                assert p == 1.0
        # with buildings present and heights of the same order as the path,
        # blockage probability is strictly positive
        assert p_los(LinkGeometry(70.0, 1.5, 500.0), URBAN, spec) < 1.0

    def test_matches_termwise_composition_of_parts(self):
        # independent route: building positions + allowed height + height CDF
        spec = FresnelSpec(LAMBDA_28GHZ)
        rng = np.random.default_rng(31)
        for _ in range(100):
            h_rx = rng.uniform(0.0, 5.0)
            h_tx = h_rx + rng.uniform(1.0, 900.0)
            d = rng.uniform(90.0, 2500.0)
            link = LinkGeometry(h_tx, h_rx, d)
            n = building_count(URBAN, d)
            prod = 1.0
            for i in range(1, n + 1):
                d_i = building_position(URBAN, d, i)
                if d_i <= d:
                    limit = allowed_height(link, spec, d_i)
                else:  # beyond the receiver: no transverse reach remains
                    limit = h_tx - d_i * (h_tx - h_rx) / d
                prod *= height_cdf(URBAN.gamma, max(limit, 0.0))
            mine = p_los(link, URBAN, spec)
            assert abs(mine - prod) <= 1e-9 * max(1.0, prod)

    def test_negative_clearance_blocks_certainly(self):
        # receiver far below a path that dips under ground near the end
        link = LinkGeometry(5.0, 0.0, 3000.0)
        p = p_los(link, Environment(0.5, 300.0, 50.0), FresnelSpec(0.3))
        assert p == 0.0

    @pytest.mark.parametrize("d", [500.0, 10.0])  # 10 m crosses no urban building
    @pytest.mark.parametrize("width", [-1.0, math.nan, math.inf])
    def test_width_override_validation(self, d, width):
        with pytest.raises(ValueError, match="width"):
            p_los(LinkGeometry(70.0, 1.5, d), URBAN, FresnelSpec(LAMBDA_28GHZ), width=width)


class TestMonotonicity:
    def test_plateau_means_nonincreasing_in_distance(self):
        spec = FresnelSpec(LAMBDA_6GHZ)
        ds = np.arange(1.0, 1500.0, 1.0)
        ps, ns = [], []
        for d in ds:
            ps.append(p_los(LinkGeometry(70.0, 1.5, d), URBAN, spec))
            ns.append(building_count(URBAN, d))
        means = []
        for n in sorted(set(ns)):
            sel = [p for p, k in zip(ps, ns) if k == n]
            means.append(np.mean(sel))
        assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))

    def test_pointwise_nondecreasing_in_tx_height(self):
        spec = FresnelSpec(LAMBDA_6GHZ)
        for d in np.arange(50.0, 1501.0, 50.0):
            prev = -1.0
            for h_tx in (20.0, 70.0, 200.0, 600.0):
                p = p_los(LinkGeometry(h_tx, 1.5, d), URBAN, spec)
                assert p >= prev - 1e-12
                prev = p

    def test_pointwise_nondecreasing_in_frequency(self):
        specs = [FresnelSpec(wavelength_from_frequency(f)) for f in (1.2e9, 6e9, 28e9)]
        specs.append(FresnelSpec(0.0))
        for d in np.arange(10.0, 1001.0, 10.0):
            link = LinkGeometry(70.0, 1.5, d)
            values = [p_los(link, URBAN, s) for s in specs]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_pointwise_nonincreasing_in_width(self):
        spec = FresnelSpec(LAMBDA_6GHZ)
        for d in np.arange(10.0, 1001.0, 10.0):
            link = LinkGeometry(70.0, 1.5, d)
            values = [p_los(link, URBAN, spec, width=w) for w in (0.0, 20.0, 40.0)]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestMaxCommDistance:
    def test_crossing_sits_on_the_count_step(self):
        # for this configuration the probability first dips below the
        # threshold where the expected building count steps 1 -> 2
        spec = FresnelSpec(LAMBDA_6GHZ)
        mcd = max_comm_distance(300.0, 1.5, HIGH_RISE, spec, 0.6)
        step = 2000.0 / math.sqrt(HIGH_RISE.alpha * HIGH_RISE.beta)
        assert mcd == pytest.approx(step, abs=0.11)
        assert p_los(LinkGeometry(300.0, 1.5, mcd), HIGH_RISE, spec) >= 0.6
        assert p_los(LinkGeometry(300.0, 1.5, mcd + 0.2), HIGH_RISE, spec) < 0.6

    def test_no_crossing_returns_none(self):
        spec = FresnelSpec(LAMBDA_6GHZ)
        assert max_comm_distance(1e6, 1.5, URBAN, spec, 0.01, max_distance=5000.0) is None

    def test_threshold_validation(self):
        spec = FresnelSpec(LAMBDA_6GHZ)
        for bad in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                max_comm_distance(300.0, 1.5, HIGH_RISE, spec, bad)


class TestElevationSweep:
    def test_zenith_is_certain(self):
        ps = p_los_vs_elevation(URBAN, FresnelSpec(LAMBDA_28GHZ), 500.0, 2.0, [math.pi / 2.0])
        assert ps == [1.0]

    def test_zero_angle_rejected(self):
        with pytest.raises(ValueError):
            p_los_vs_elevation(URBAN, FresnelSpec(LAMBDA_28GHZ), 500.0, 2.0, [0.0])

    def test_terminals_at_one_height_rejected(self):
        # no TX-RX height difference: every angle would map to distance 0
        for h_rx in (2.0, 3.0):
            with pytest.raises(ValueError, match="h_tx > h_rx"):
                p_los_vs_elevation(URBAN, FresnelSpec(LAMBDA_28GHZ), 2.0, h_rx, [math.radians(10.0)])

    def test_published_crossing_angles(self):
        # thresholds at P = 0.6 for a 500 m transmitter, within 2.5 degrees
        spec = FresnelSpec(LAMBDA_28GHZ)
        targets = {"urban": 32.5, "dense-urban": 50.6, "high-rise": 72.6}
        for name, expect_deg in targets.items():
            env = get_scenario(name).env
            thetas = np.radians(np.arange(15.0, 89.51, 0.05))
            ps = p_los_vs_elevation(env, spec, 500.0, 2.0, thetas)
            idx = next(i for i in range(len(ps)) if all(p >= 0.6 for p in ps[i:]))
            crossing = math.degrees(thetas[idx])
            assert crossing == pytest.approx(expect_deg, abs=2.5)

    def test_matches_distance_mapping(self):
        spec = FresnelSpec(LAMBDA_28GHZ)
        theta = math.radians(40.0)
        (p_theta,) = p_los_vs_elevation(URBAN, spec, 500.0, 2.0, [theta])
        d = 498.0 / math.tan(theta)
        assert p_theta == p_los(LinkGeometry(500.0, 2.0, d), URBAN, spec)


def scalar_curve(h_tx, h_rx, distances, env, spec, width=None):
    """The reference per-link product at each distance; 1 at d = 0."""
    return np.array([
        reference.p_los(LinkGeometry(h_tx, h_rx, d), env, spec, width=width) if d > 0.0 else 1.0
        for d in distances
    ])


def scalar_mcd(h_tx, h_rx, env, spec, threshold, max_distance=20_000.0):
    """1 m scan with the reference per-link product, then bisection down to 0.1 m."""
    def p_at(d):
        return reference.p_los(LinkGeometry(h_tx, h_rx, d), env, spec)

    d = 1.0
    while d <= max_distance:
        if p_at(d) < threshold:
            lo, hi = d - 1.0, d
            while hi - lo > 0.1:
                mid = 0.5 * (lo + hi)
                if p_at(mid) >= threshold:
                    lo = mid
                else:
                    hi = mid
            return lo
        d += 1.0
    return None


class TestCurveKernel:
    # d = 0, sub-metre and below-first-building rows, every metre of the
    # first kilometre (building counts 1..12 side by side), then out to 20 km
    DISTANCES = np.concatenate(
        ([0.0, 0.5, 3.0], np.arange(1.0, 1001.0), np.linspace(1000.0, 20_000.0, 97))
    )

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("lam", CARRIERS)
    @pytest.mark.parametrize("env", PRESETS)
    def test_matches_scalar_oracle(self, env, lam, order):
        spec = FresnelSpec(lam, order=order)
        for h_tx in (30.0, 300.0):
            for width in (None, 35.0, 0.0):
                got = p_los_curve(h_tx, 1.5, self.DISTANCES, env, spec, width)
                expect = scalar_curve(h_tx, 1.5, self.DISTANCES, env, spec, width)
                assert got.shape == self.DISTANCES.shape
                assert np.max(np.abs(got - expect)) <= 1e-15

    def test_rows_without_buildings_are_exactly_one(self):
        spec = FresnelSpec(LAMBDA_28GHZ)
        first = 1000.0 / math.sqrt(URBAN.alpha * URBAN.beta)  # count steps 0 -> 1
        d = np.array([0.0, 0.5, first - 1e-6, first + 1e-6, 500.0])
        got = p_los_curve(5.0, 1.5, d, URBAN, spec)
        assert got[:3].tolist() == [1.0, 1.0, 1.0]
        assert got[3] < 1.0 and got[4] < got[3]
        assert p_los_curve(5.0, 1.5, [0.0, 0.5], URBAN, spec).tolist() == [1.0, 1.0]

    def test_heights_broadcast_against_distances(self):
        spec = FresnelSpec(LAMBDA_28GHZ)
        dhs = np.array([28.5, 98.5, 498.5])
        d = np.array([1.0, 10.0, 90.0, 400.0, 1000.0])
        mesh = p_los_curve(1.5 + dhs[:, None], 1.5, d, URBAN, spec)
        assert mesh.shape == (3, 5)
        for row, dh in zip(mesh, dhs):
            assert np.array_equal(row, scalar_curve(1.5 + dh, 1.5, d, URBAN, spec))

    def test_blocking_does_not_change_values(self, monkeypatch):
        spec = FresnelSpec(LAMBDA_28GHZ)
        d = np.arange(0.0, 3000.0, 7.0)
        whole = p_los_curve(100.0, 1.5, d, HIGH_RISE, spec)
        monkeypatch.setattr(analytic, "_CURVE_BLOCK", 50)  # a few rows a block
        assert np.array_equal(p_los_curve(100.0, 1.5, d, HIGH_RISE, spec), whole)

    @pytest.mark.parametrize(
        "h_tx, h_rx, d, width",
        [
            (1.0, 2.0, 0.0, None),  # TX below RX
            (30.0, -1.0, 5.0, None),
            (30.0, math.nan, 5.0, None),
            (math.nan, 1.5, 5.0, None),
            (math.inf, 1.5, 5.0, None),
            (0.0, 0.0, 5.0, None),
            (30.0, 1.5, -1.0, None),
            (30.0, 1.5, math.inf, None),
            (30.0, 1.5, math.nan, None),
            (30.0, 1.5, 5.0, -3.0),
            (30.0, 1.5, 5.0, math.nan),
        ],
    )
    def test_degenerate_inputs_rejected_without_buildings_too(self, h_tx, h_rx, d, width):
        # 5 m crosses no urban building, so only the validation can object
        with pytest.raises(ValueError):
            p_los_curve(h_tx, h_rx, [d], URBAN, FresnelSpec(LAMBDA_28GHZ), width)


@st.composite
def curve_cases(draw):
    """A random area, carrier, zone order, link heights (h_rx = 0 and
    h_tx = h_rx included), width override and a few distances > 0."""
    env = Environment(
        draw(st.floats(0.01, 1.0)), draw(st.floats(1.0, 1000.0)), draw(st.floats(0.5, 100.0))
    )
    lam = draw(st.sampled_from([0.0, wavelength_from_frequency(2.4e9), LAMBDA_28GHZ,
                                wavelength_from_frequency(3e12)]))
    spec = FresnelSpec(lam, order=draw(st.integers(1, 3)))
    h_rx = draw(st.just(0.0) | st.floats(0.0, 50.0))
    h_tx = h_rx + draw(st.just(0.0) | st.floats(0.0, 1000.0)) or 1.0  # a TX at 0 m is no link
    width = draw(st.none() | st.just(0.0) | st.floats(0.0, 100.0))
    d = draw(st.lists(st.floats(0.0, 20_000.0, exclude_min=True), min_size=1, max_size=16))
    return h_tx, h_rx, d, env, spec, width


class TestCurveProperty:
    @settings(derandomize=True, database=None, max_examples=250, deadline=None)
    @given(case=curve_cases())
    def test_equals_the_scalar_p_los(self, case):
        h_tx, h_rx, d, env, spec, width = case
        expect = [reference.p_los(LinkGeometry(h_tx, h_rx, x), env, spec, width) for x in d]
        assert p_los_curve(h_tx, h_rx, d, env, spec, width).tolist() == expect
        assert [p_los(LinkGeometry(h_tx, h_rx, x), env, spec, width) for x in d] == expect


class TestMaxCommDistanceOracle:
    @pytest.mark.parametrize("lam", CARRIERS)
    @pytest.mark.parametrize("env", PRESETS)
    def test_matches_scalar_scan(self, env, lam):
        spec = FresnelSpec(lam)
        for h_tx in (30.0, 100.0, 300.0, 1000.0):
            assert max_comm_distance(h_tx, 1.5, env, spec, 0.6) == scalar_mcd(
                h_tx, 1.5, env, spec, 0.6
            )

    @pytest.mark.parametrize("chunk", [1, 3, 128])
    def test_search_ceiling_and_chunk_edges(self, monkeypatch, chunk):
        # the first metre below threshold is 164 m; the ceiling decides
        # whether the scan reaches it, whatever the chunking
        monkeypatch.setattr(analytic, "_MCD_CHUNK", chunk)
        spec = FresnelSpec(LAMBDA_6GHZ)
        for ceiling in (163.9, 164.0, 164.5, 1000.0):
            got = max_comm_distance(300.0, 1.5, HIGH_RISE, spec, 0.6, max_distance=ceiling)
            assert got == scalar_mcd(300.0, 1.5, HIGH_RISE, spec, 0.6, max_distance=ceiling)
        assert max_comm_distance(300.0, 1.5, HIGH_RISE, spec, 0.6, max_distance=163.9) is None

    def test_degenerate_heights_rejected(self):
        spec = FresnelSpec(LAMBDA_28GHZ)
        for h_tx, h_rx in ((30.0, math.nan), (math.inf, 1.5), (1.0, 2.0)):
            with pytest.raises(ValueError):
                max_comm_distance(h_tx, h_rx, URBAN, spec, 0.5)


class TestElevationKernel:
    @pytest.mark.parametrize("env", PRESETS)
    def test_matches_scalar_path(self, env):
        spec = FresnelSpec(LAMBDA_28GHZ)
        thetas = np.radians(np.concatenate((np.arange(2.0, 90.0, 0.5), [90.0])))
        got = p_los_vs_elevation(env, spec, 300.0, 1.5, thetas)
        d = [298.5 / math.tan(t) for t in thetas]
        assert got == scalar_curve(300.0, 1.5, d, env, spec).tolist()
