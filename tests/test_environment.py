import math

import numpy as np
import pytest

from a2glos.environment import (
    Environment,
    building_count,
    building_position,
    get_scenario,
    height_cdf,
    load_scenarios,
    mean_width,
)

URBAN = Environment(0.3, 500.0, 15.0)


class TestEnvironmentType:
    @pytest.mark.parametrize("alpha,beta,gamma", [(0.0, 500, 15), (1.1, 500, 15), (0.3, 0, 15), (0.3, 500, 0)])
    def test_rejects_bad_triples(self, alpha, beta, gamma):
        with pytest.raises(ValueError):
            Environment(alpha, beta, gamma)

    def test_full_coverage_allowed(self):
        Environment(1.0, 100.0, 10.0)


class TestHeightLaw:
    def test_cdf_median_and_limits(self):
        gamma = 15.0
        assert height_cdf(gamma, gamma * math.sqrt(2.0 * math.log(2.0))) == pytest.approx(0.5, rel=1e-12)
        assert height_cdf(gamma, 1e6) == pytest.approx(1.0, abs=1e-15)
        assert height_cdf(gamma, -3.0) == 0.0

    def test_cdf_reference_value(self):
        assert height_cdf(15.0, 30.0) == pytest.approx(0.8646647167633873, rel=1e-12)

    def test_cdf_nondecreasing_onto_unit_interval(self):
        gamma = 8.0
        grid = np.linspace(0.0, 200.0, 2000)
        values = [height_cdf(gamma, h) for h in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == 0.0
        assert all(0.0 <= v <= 1.0 for v in values)
        # strictly below 1 wherever the tail is representable in floats
        assert all(height_cdf(gamma, h) < 1.0 for h in np.linspace(0.0, 5 * gamma, 200))


class TestCountsAndWidths:
    def test_urban_kilometre(self):
        assert building_count(URBAN, 1000.0) == 12

    def test_zero_and_short_paths(self):
        assert building_count(URBAN, 0.0) == 0
        assert building_count(URBAN, 50.0) == 0

    def test_array_of_distances(self):
        d = np.array([[0.0, 50.0, 81.6, 81.7], [500.0, 999.9, 1000.0, 2e4]])
        counts = building_count(URBAN, d)
        assert counts.shape == d.shape
        assert counts.tolist() == [[building_count(URBAN, x) for x in row] for row in d.tolist()]
        assert type(building_count(URBAN, 1000.0)) is int
        with pytest.raises(ValueError, match="-2.0"):
            building_count(URBAN, [1.0, -2.0])

    def test_monotone_in_distance_and_density(self):
        for d1, d2 in [(100, 200), (500, 600), (999, 1001)]:
            assert building_count(URBAN, d1) <= building_count(URBAN, d2)
        assert building_count(Environment(0.3, 500, 15), 1000) <= building_count(
            Environment(0.4, 500, 15), 1000
        )
        assert building_count(Environment(0.3, 500, 15), 1000) <= building_count(
            Environment(0.3, 700, 15), 1000
        )

    def test_mean_widths_match_published_table(self):
        assert mean_width(URBAN) == pytest.approx(24.494897427831777, rel=1e-12)
        assert round(mean_width(URBAN), 1) == 24.5
        dense = Environment(0.5, 300.0, 20.0)
        assert mean_width(dense) == pytest.approx(40.824829046386306, rel=1e-12)
        assert round(mean_width(dense), 1) == 40.8

    def test_width_algebraic_identity(self):
        beta = 123456.0
        env = Environment(beta / 1e6, beta, 10.0)
        assert mean_width(env) == pytest.approx(1.0, rel=1e-12)


class TestBuildingPosition:
    def test_single_building_sits_past_the_midpoint(self):
        env = Environment(0.3, 500.0, 15.0)
        d = 100.0  # one building expected
        assert building_count(env, d) == 1
        assert building_position(env, d, 1) == pytest.approx(
            d / 2.0 + mean_width(env) / 2.0, rel=1e-12
        )

    def test_reference_value(self):
        assert building_position(URBAN, 1000.0, 1) == pytest.approx(53.91411538058255, rel=1e-12)

    def test_strictly_increasing_and_bounded(self):
        d = 1000.0
        n = building_count(URBAN, d)
        pos = [building_position(URBAN, d, i) for i in range(1, n + 1)]
        assert all(b > a for a, b in zip(pos, pos[1:]))
        assert all(0.0 < p <= d + mean_width(URBAN) / 2.0 for p in pos)

    def test_index_errors(self):
        with pytest.raises(ValueError):
            building_position(URBAN, 50.0, 1)  # zero buildings
        with pytest.raises(ValueError):
            building_position(URBAN, 1000.0, 13)
        with pytest.raises(ValueError):
            building_position(URBAN, 1000.0, 0)


class TestScenarioTable:
    def test_bundled_presets(self):
        presets = load_scenarios()
        triples = {
            "suburban": (0.1, 750.0, 8.0),
            "urban": (0.3, 500.0, 15.0),
            "dense-urban": (0.5, 300.0, 20.0),
            "high-rise": (0.5, 300.0, 50.0),
        }
        assert set(presets) == set(triples)
        for name, (a, b, g) in triples.items():
            env = presets[name].env
            assert (env.alpha, env.beta, env.gamma) == (a, b, g)

    @pytest.mark.parametrize(
        "spelling,canonical",
        [
            ("Suburban", "suburban"),
            ("URBAN", "urban"),
            ("DenseUrban", "dense-urban"),
            ("dense_urban", "dense-urban"),
            ("HighRiseUrban", "high-rise"),
            ("high-rise", "high-rise"),
        ],
    )
    def test_lookup_spellings(self, spelling, canonical):
        assert get_scenario(spelling).name == canonical

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            get_scenario("atlantis")

    def test_custom_table_with_comments(self, tmp_path):
        table = tmp_path / "areas.txt"
        table.write_text(
            "# my areas\n"
            "downtown 0.45 420 22  # heavy core\n"
            "\n"
            "campus 0.15 200 9\n"
        )
        presets = load_scenarios(table)
        assert set(presets) == {"downtown", "campus"}
        assert presets["downtown"].env.beta == 420.0
        assert get_scenario("Campus", presets).env.gamma == 9.0

    def test_malformed_line_reports_position(self, tmp_path):
        table = tmp_path / "bad.txt"
        table.write_text("downtown 0.45 420\n")
        with pytest.raises(ValueError, match="line 1"):
            load_scenarios(table)
