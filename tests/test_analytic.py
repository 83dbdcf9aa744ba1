import math

import numpy as np
import pytest

from a2glos.analytic import max_comm_distance, p_los, p_los_baseline, p_los_vs_elevation
from a2glos.environment import (
    Environment,
    building_count,
    building_position,
    get_scenario,
    height_cdf,
)
from a2glos.geometry import FresnelSpec, LinkGeometry, allowed_height, wavelength_from_frequency

URBAN = Environment(0.3, 500.0, 15.0)
HIGH_RISE = Environment(0.5, 300.0, 50.0)
LAMBDA_6GHZ = wavelength_from_frequency(6e9)
LAMBDA_28GHZ = wavelength_from_frequency(28e9)


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

    def test_width_override_validation(self):
        link = LinkGeometry(70.0, 1.5, 500.0)
        with pytest.raises(ValueError):
            p_los(link, URBAN, FresnelSpec(0.05), width=-1.0)


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
