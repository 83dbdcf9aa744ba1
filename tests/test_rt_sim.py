import math
import threading

import numpy as np
import pytest

import cull_reference
from a2glos import rt_sim
from a2glos.environment import Environment, get_scenario
from a2glos.geometry import (
    FresnelSpec,
    LinkGeometry,
    allowed_height,
    fresnel_axes,
    wavelength_from_frequency,
)
from a2glos.rt_sim import (
    Building,
    Ray,
    Scene,
    Triangle,
    _candidate_triangles,
    _fan_candidates,
    _link_fan,
    _mt_batch,
    _point_triangle_dist_sq,
    _scene_verdicts,
    _subseed,
    default_extent,
    dump_scene_csv,
    estimate_p_los,
    los_blocked_fresnel,
    los_blocked_geometric,
    ray_triangle_intersect,
    realization_scene,
    sample_heights,
    scene_csv_lines,
    synthesize_scene,
)

URBAN = Environment(0.3, 500.0, 15.0)
SPEC28 = FresnelSpec(wavelength_from_frequency(28e9))


def solve_oracle(origin, direction, tri):
    """Direct 3x3 linear solve of the intersection system."""
    v0, v1, v2 = (np.asarray(v, dtype=float) for v in tri)
    a = np.column_stack([-np.asarray(direction), v1 - v0, v2 - v0])
    det = np.linalg.det(a)
    if abs(det) <= 1e-12:
        return None
    s, u, v = np.linalg.solve(a, np.asarray(origin) - v0)
    if s > 0.0 and u >= 0.0 and v >= 0.0 and u + v <= 1.0:
        return float(s), float(u), float(v)
    return None


def brute_distance_to_origin(tri, steps=400):
    """Dense barycentric sampling of the triangle; lower bound on distance."""
    a, b, c = (np.asarray(v, dtype=float) for v in tri)
    best = math.inf
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            u = i / steps
            v = j / steps
            p = a + u * (b - a) + v * (c - a)
            best = min(best, float(p @ p))
    return math.sqrt(best)


class TestTypes:
    def test_building_validation(self):
        with pytest.raises(ValueError):
            Building(0.0, 0.0, 0.0, 5.0)
        with pytest.raises(ValueError):
            Building(0.0, 0.0, 5.0, -1.0)

    def test_triangle_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Triangle((0, 0, 0), (1, 1, 1), (2, 2, 2))

    def test_ray_requires_unit_direction(self):
        Ray((0, 0, 0), (0, 0, 1))
        with pytest.raises(ValueError):
            Ray((0, 0, 0), (0, 0, 2))


class TestSceneSynthesis:
    def test_urban_kilometre_scene(self):
        scene = synthesize_scene(URBAN, 1000.0, seed=7)
        n = len(scene)
        assert 400 <= n <= 560  # about beta per km^2
        assert scene.triangles.shape == (10 * n, 3, 3)
        widths = {b.width for b in scene.buildings}
        assert len(widths) == 1
        assert widths.pop() == pytest.approx(24.494897427831777, rel=1e-12)

    def test_deterministic_for_a_seed(self):
        a = synthesize_scene(URBAN, 800.0, seed=3)
        b = synthesize_scene(URBAN, 800.0, seed=3)
        assert a.buildings == b.buildings
        assert np.array_equal(a.triangles, b.triangles)
        c = synthesize_scene(URBAN, 800.0, seed=4)
        assert a.buildings != c.buildings

    def test_heights_follow_the_rayleigh_mean(self):
        rng = np.random.default_rng(1)
        h = sample_heights(10.0, 10_000, rng)
        assert h.mean() == pytest.approx(10.0 * math.sqrt(math.pi / 2.0), rel=0.02)

    def test_triangles_stay_inside_the_extent(self):
        for layout in ("grid", "uniform"):
            scene = synthesize_scene(URBAN, 600.0, seed=11, layout=layout)
            xy = scene.triangles[:, :, :2].reshape(-1, 2)
            assert np.max(np.abs(xy)) <= 300.0 + 1e-9

    def test_overlapping_statistics_are_rejected(self):
        # full land coverage means footprints as wide as the grid pitch
        with pytest.raises(ValueError, match="alpha"):
            synthesize_scene(Environment(1.0, 300.0, 10.0), 1000.0, seed=0)

    def test_scene_center_is_open_ground(self):
        for seed in range(20):
            scene = synthesize_scene(URBAN, 500.0, seed=seed)
            for b in scene.buildings:
                assert not (
                    abs(b.center_x) <= b.width / 2 and abs(b.center_y) <= b.width / 2
                )

    def test_unknown_layout(self):
        with pytest.raises(ValueError):
            synthesize_scene(URBAN, 500.0, seed=0, layout="rings")

    def test_scene_dump_schema(self, tmp_path):
        scene = synthesize_scene(URBAN, 400.0, seed=2)
        path = tmp_path / "scene.csv"
        dump_scene_csv(scene, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# extent=")
        assert lines[1] == "center_x,center_y,width,height"
        assert len(lines) == 2 + len(scene)
        assert lines == scene_csv_lines(scene)
        assert lines[2:] == [f"{b.center_x!r},{b.center_y!r},{b.width!r},{b.height!r}"
                             for b in scene.buildings]


class TestSceneArrays:
    @pytest.mark.parametrize("layout", ["grid", "uniform"])
    def test_hand_built_scene_equals_the_array_path(self, layout):
        built = synthesize_scene(get_scenario("high-rise").env, 500.0, seed=6, layout=layout)
        assert "triangles" not in vars(built)  # the mesh is built on first use
        hand = Scene(built.buildings, built.extent, built.seed)
        for name in ("_centers", "_widths", "_heights"):
            assert np.array_equal(getattr(hand, name), getattr(built, name))
            assert getattr(hand, name).dtype == float
        assert hand.buildings == built.buildings
        assert all(type(v) is float for b in built.buildings for v in vars(b).values())
        assert (hand.extent, hand.seed, len(hand)) == (built.extent, built.seed, len(built))
        assert np.array_equal(hand.triangles, built.triangles)
        assert built.triangles.shape == (10 * len(built), 3, 3)

    @pytest.mark.parametrize("widths, heights", [
        ([20.0, 0.0], [5.0, 5.0]),
        ([20.0, 20.0], [5.0, 0.0]),
        ([20.0, -1.0], [5.0, 5.0]),
        ([20.0, 20.0], [np.nan, 5.0]),
    ])
    def test_array_path_rejects_degenerate_boxes(self, widths, heights):
        with pytest.raises(ValueError, match="must be > 0"):
            Scene.from_arrays(np.zeros((2, 2)), np.array(widths), np.array(heights), 100.0, 0)

    def test_empty_scene(self):
        scene = Scene([], extent=100.0, seed=0)
        assert len(scene) == 0 and scene.buildings == ()
        assert scene.triangles.shape == (0, 3, 3)


class TestRayTriangle:
    def test_perpendicular_hit_through_centroid(self):
        tri = Triangle((0.0, 0.0, 0.0), (3.0, 0.0, 0.0), (0.0, 3.0, 0.0))
        ray = Ray((1.0, 1.0, 5.0), (0.0, 0.0, -1.0))
        s, u, v = ray_triangle_intersect(ray, tri)
        assert s == pytest.approx(5.0, rel=1e-12)
        assert u == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert v == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_parallel_ray_misses(self):
        tri = Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert ray_triangle_intersect(Ray((0.2, 0.2, 1.0), (1.0, 0.0, 0.0)), tri) is None

    def test_behind_origin_misses(self):
        tri = Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert ray_triangle_intersect(Ray((0.2, 0.2, -1.0), (0.0, 0.0, -1.0)), tri) is None

    def test_outside_barycentric_range_misses(self):
        tri = Triangle((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert ray_triangle_intersect(Ray((0.9, 0.9, 1.0), (0.0, 0.0, -1.0)), tri) is None

    def test_agrees_with_linear_solve_oracle(self):
        rng = np.random.default_rng(2025)
        hits = 0
        for _ in range(2000):
            origin = rng.uniform(-2, 2, 3)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            tri = rng.uniform(-2, 2, (3, 3))
            expected = solve_oracle(origin, direction, tri)
            got = ray_triangle_intersect(
                Ray(tuple(origin), tuple(direction)),
                Triangle(tuple(tri[0]), tuple(tri[1]), tuple(tri[2])),
            )
            assert (expected is None) == (got is None)
            if expected is not None:
                hits += 1
                for a, b in zip(expected, got):
                    assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
        assert hits > 50  # the comparison actually exercised hits


class TestPointTriangleDistance:
    def test_against_dense_sampling(self):
        rng = np.random.default_rng(6)
        tris = rng.uniform(-2.0, 2.0, (40, 3, 3))
        dist = np.sqrt(_point_triangle_dist_sq(tris[:, 0], tris[:, 1], tris[:, 2]))
        for k in range(len(tris)):
            approx = brute_distance_to_origin(tris[k], steps=300)
            assert dist[k] <= approx + 1e-9  # exact <= sampled
            assert dist[k] >= approx - 2e-2  # sampling resolution

    def test_known_configurations(self):
        # face region: horizontal triangle 2 below the origin
        tri = np.array([[[-5, -5, -2.0], [5, -5, -2.0], [0, 5, -2.0]]])
        assert _point_triangle_dist_sq(tri[:, 0], tri[:, 1], tri[:, 2])[0] == pytest.approx(4.0)
        # vertex region
        tri = np.array([[[3.0, 4.0, 0.0], [10.0, 4.0, 0.0], [3.0, 10.0, 0.0]]])
        assert _point_triangle_dist_sq(tri[:, 0], tri[:, 1], tri[:, 2])[0] == pytest.approx(25.0)
        # edge region: closest point mid-edge
        tri = np.array([[[-1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 9.0, 0.0]]])
        assert _point_triangle_dist_sq(tri[:, 0], tri[:, 1], tri[:, 2])[0] == pytest.approx(4.0)


class TestBlockage:
    def test_empty_scene_blocks_nothing(self):
        scene = Scene([], extent=1000.0, seed=0)
        assert not los_blocked_geometric(scene, (0, 0, 30.0), (500.0, 0, 2.0))
        assert not los_blocked_fresnel(scene, (0, 0, 30.0), (500.0, 0, 2.0), SPEC28)

    def test_single_blocker_across_the_path(self):
        tall = Building(250.0, 0.0, 30.0, 50.0)
        scene = Scene([tall], extent=1000.0, seed=0)
        assert los_blocked_geometric(scene, (0, 0, 30.0), (500.0, 0, 2.0))
        # same building, link passing beside it
        assert not los_blocked_geometric(scene, (0, 0, 30.0), (0.0, 500.0, 2.0))

    def test_coincident_terminals_rejected(self):
        scene = Scene([], extent=100.0, seed=0)
        with pytest.raises(ValueError):
            los_blocked_geometric(scene, (1, 2, 3), (1, 2, 3))

    def test_geometric_agrees_with_all_triangle_oracle(self):
        scene = synthesize_scene(URBAN, 900.0, seed=21)
        rng = np.random.default_rng(3)
        tx = np.array([0.0, 0.0, 120.0])
        for _ in range(300):
            ang = rng.uniform(0, 2 * math.pi)
            d = rng.uniform(20.0, 440.0)
            rx = np.array([d * math.cos(ang), d * math.sin(ang), 2.0])
            length = np.linalg.norm(rx - tx)
            hit, s, _, _ = _mt_batch(tx, (rx - tx) / length, scene.triangles)
            expected = bool(np.any(hit & (s < length)))
            assert los_blocked_geometric(scene, tx, rx) == expected

    def test_geometric_blockage_implies_clearance_blockage(self):
        scene = synthesize_scene(URBAN, 900.0, seed=2)
        rng = np.random.default_rng(14)
        for _ in range(300):
            ang = rng.uniform(0, 2 * math.pi)
            d = rng.uniform(20.0, 440.0)
            tx = (0.0, 0.0, rng.uniform(5.0, 300.0))
            rx = (d * math.cos(ang), d * math.sin(ang), 2.0)
            if los_blocked_geometric(scene, tx, rx):
                assert los_blocked_fresnel(scene, tx, rx, SPEC28)

    def test_zero_wavelength_equals_geometric(self):
        scene = synthesize_scene(URBAN, 900.0, seed=5)
        rng = np.random.default_rng(8)
        spec0 = FresnelSpec(0.0)
        for _ in range(500):
            ang = rng.uniform(0, 2 * math.pi)
            d = rng.uniform(20.0, 440.0)
            tx = (0.0, 0.0, rng.uniform(5.0, 300.0))
            rx = (d * math.cos(ang), d * math.sin(ang), 2.0)
            assert los_blocked_fresnel(scene, tx, rx, spec0) == los_blocked_geometric(scene, tx, rx)

    def test_flat_roof_probes_the_clearance_limit(self):
        # level link: the clearance zone dips lowest at mid-span, where its
        # radius equals the transverse semi-axis
        h = 30.0
        d = 400.0
        link = LinkGeometry(h, h, d)
        limit = allowed_height(link, SPEC28, d / 2.0)
        for offset, expect_blocked in ((-1.0, False), (1.0, True)):
            roof = limit + offset
            scene = Scene([Building(d / 2.0, 0.0, 20.0, roof)], extent=2000.0, seed=0)
            got = los_blocked_fresnel(scene, (0, 0, h), (d, 0, h), SPEC28)
            assert got == expect_blocked, f"roof at limit{offset:+}"

    def test_clearance_blockage_without_geometric_blockage(self):
        # roof grazing just under the direct ray still cuts the zone
        h = 30.0
        d = 400.0
        scene = Scene([Building(200.0, 0.0, 20.0, h - 0.2)], extent=2000.0, seed=0)
        assert not los_blocked_geometric(scene, (0, 0, h), (d, 0, h))
        assert los_blocked_fresnel(scene, (0, 0, h), (d, 0, h), SPEC28)


class TestEstimate:
    def test_flat_city_is_all_clear(self):
        env = Environment(0.3, 500.0, 0.01)  # centimetre-scale "buildings"
        est = estimate_p_los(env, SPEC28, 120.0, 2.0, [50.0, 150.0, 300.0],
                             realizations=2, links_per_ring=24, seed=9)
        assert np.all(est.p_los == 1.0)
        assert np.all(est.n_links > 0)

    def test_runs_in_the_calling_thread(self, monkeypatch):
        seen = []
        verdicts = rt_sim._scene_verdicts

        def spy(scene, fan):
            seen.append((threading.get_ident(), threading.active_count()))
            return verdicts(scene, fan)

        monkeypatch.setattr(rt_sim, "_scene_verdicts", spy)
        monkeypatch.setenv("A2G_LOS_THREADS", "4")
        before = threading.active_count()
        estimate_p_los(URBAN, SPEC28, 120.0, 2.0, [100.0, 300.0],
                       realizations=3, links_per_ring=8, seed=5)
        assert seen == [(threading.get_ident(), before)] * 3
        assert threading.active_count() == before

    def test_deterministic_and_thread_insensitive(self, monkeypatch):
        kwargs = dict(realizations=3, links_per_ring=24, seed=31)
        monkeypatch.setenv("A2G_LOS_THREADS", "1")
        a = estimate_p_los(URBAN, SPEC28, 120.0, 2.0, [100.0, 300.0], **kwargs)
        monkeypatch.setenv("A2G_LOS_THREADS", "4")
        b = estimate_p_los(URBAN, SPEC28, 120.0, 2.0, [100.0, 300.0], **kwargs)
        assert np.array_equal(a.p_los, b.p_los)
        assert np.array_equal(a.ci_halfwidth, b.ci_halfwidth)
        assert np.array_equal(a.n_links, b.n_links)

    def test_bounds_and_height_trend(self):
        d_grid = [150.0, 400.0]
        low = estimate_p_los(URBAN, SPEC28, 60.0, 2.0, d_grid,
                             realizations=4, links_per_ring=36, seed=13)
        high = estimate_p_los(URBAN, SPEC28, 500.0, 2.0, d_grid,
                              realizations=4, links_per_ring=36, seed=13)
        for est in (low, high):
            assert np.all((est.p_los >= 0.0) & (est.p_los <= 1.0))
        # higher transmitter clears more links, within the error bars
        slack = low.ci_halfwidth + high.ci_halfwidth
        assert np.all(high.p_los >= low.p_los - slack)

    def test_confidence_shrinks_with_realizations(self):
        base = estimate_p_los(URBAN, SPEC28, 500.0, 2.0, [600.0],
                              realizations=8, links_per_ring=36, seed=4)
        double = estimate_p_los(URBAN, SPEC28, 500.0, 2.0, [600.0],
                                realizations=16, links_per_ring=36, seed=4)
        ratio = double.ci_halfwidth[0] / base.ci_halfwidth[0]
        assert 0.5 < ratio < 0.95  # about 1/sqrt(2)

    def test_ring_outside_extent_rejected(self):
        with pytest.raises(ValueError):
            estimate_p_los(URBAN, SPEC28, 120.0, 2.0, [600.0],
                           realizations=1, links_per_ring=8, seed=0, extent=1000.0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            estimate_p_los(URBAN, SPEC28, 120.0, 2.0, [], realizations=1, links_per_ring=8, seed=0)
        with pytest.raises(ValueError):
            estimate_p_los(URBAN, SPEC28, 120.0, 2.0, [100.0], realizations=0, links_per_ring=8, seed=0)
        with pytest.raises(ValueError):
            estimate_p_los(URBAN, SPEC28, 120.0, 2.0, [-5.0], realizations=1, links_per_ring=8, seed=0)


class TestFanCull:
    """The culls over all azimuths at once against the per-azimuth reference."""

    @pytest.mark.parametrize(
        "scenario, layout, h_tx, spec",
        [
            ("urban", "grid", 500.0, SPEC28),
            ("urban", "grid", 40.0, FresnelSpec(wavelength_from_frequency(2.4e9))),
            ("high-rise", "uniform", 60.0, SPEC28),
            ("dense-urban", "grid", 30.0, FresnelSpec(0.0)),
        ],
    )
    @pytest.mark.parametrize("elements", [1, 500, rt_sim._CULL_ELEMENTS, 10**9])
    def test_same_receivers_and_pairs_as_one_azimuth_at_a_time(
        self, monkeypatch, scenario, layout, h_tx, spec, elements
    ):
        # from one azimuth per block to the whole fan in one block
        monkeypatch.setattr(rt_sim, "_CULL_ELEMENTS", elements)
        d_grid = [30.0, 90.0, 180.0, 300.0, 450.0]
        fan = _link_fan(spec, h_tx, 2.0, d_grid, 36)
        scene = realization_scene(get_scenario(scenario).env, default_extent(d_grid), 11, 0,
                                  layout=layout)
        valid, link, building = _fan_candidates(scene, fan)
        want_valid, want_pairs = cull_reference.fan_candidates(scene, fan)
        assert np.array_equal(valid, want_valid)
        pairs = list(zip(link.tolist(), building.tolist()))
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == want_pairs
        assert 0 < len(pairs)

    def test_empty_scene_keeps_no_pairs(self):
        fan = _link_fan(SPEC28, 100.0, 2.0, [50.0, 100.0], 8)
        valid, link, building = _fan_candidates(Scene([], extent=300.0, seed=0), fan)
        assert valid.all() and link.size == building.size == 0


class TestLinkFan:
    @pytest.mark.parametrize("spec", [
        SPEC28,
        FresnelSpec(wavelength_from_frequency(2.4e9), order=2),
        FresnelSpec(0.0),
        FresnelSpec(0.0, order=3),
    ])
    def test_semi_axes_equal_the_scalar_axes_bit_for_bit(self, spec):
        fan = _link_fan(spec, 120.0, 2.0, [30.0, 250.0, 777.7, 1000.0], 12)
        want = [[[a.x_semi, a.y_semi, a.z_semi]
                 for a in (fresnel_axes(spec, float(sep)) for sep in row)]
                for row in fan.length]
        assert fan.semi_axes.tolist() == want


class TestBatchedVerdicts:
    """The estimator's culled, batched verdicts against the per-link oracle."""

    D_GRID = [30.0, 90.0, 180.0, 300.0]
    LINKS_PER_RING = 24
    REALIZATIONS = 2

    @pytest.mark.parametrize(
        "scenario, layout, h_tx, spec",
        [
            ("urban", "grid", 500.0, SPEC28),
            ("urban", "grid", 40.0, SPEC28),
            ("high-rise", "uniform", 60.0, SPEC28),
            ("urban", "grid", 40.0, FresnelSpec(0.0)),
            ("high-rise", "uniform", 60.0, FresnelSpec(0.0)),
        ],
    )
    @pytest.mark.parametrize("seed", [3, 17, 2024])
    def test_every_link_matches_the_per_link_test(self, scenario, layout, h_tx, spec, seed):
        env = get_scenario(scenario).env
        extent = default_extent(self.D_GRID)
        fan = _link_fan(spec, h_tx, 2.0, self.D_GRID, self.LINKS_PER_RING)
        clear = np.zeros(len(self.D_GRID), dtype=np.int64)
        n_valid = np.zeros(len(self.D_GRID), dtype=np.int64)
        for r in range(self.REALIZATIONS):
            scene = realization_scene(env, extent, seed, r, layout=layout)
            valid, blocked = _scene_verdicts(scene, fan)
            half_w = scene._widths / 2.0
            for k in range(self.LINKS_PER_RING):
                for i in range(len(self.D_GRID)):
                    rx = fan.rx[k, i]
                    inside = np.any(
                        (np.abs(rx[0] - scene._centers[:, 0]) <= half_w)
                        & (np.abs(rx[1] - scene._centers[:, 1]) <= half_w)
                    )
                    assert valid[k, i] == (not inside), (r, k, i)
                    if inside:
                        continue
                    expected = los_blocked_fresnel(scene, fan.tx, rx, spec)
                    assert blocked[k, i] == expected, (r, k, i)
            clear += np.sum(valid & ~blocked, axis=0)
            n_valid += np.sum(valid, axis=0)
        est = estimate_p_los(env, spec, h_tx, 2.0, self.D_GRID, self.REALIZATIONS,
                             self.LINKS_PER_RING, seed, layout=layout)
        assert np.array_equal(est.n_links, n_valid)
        assert np.array_equal(est.p_los, clear / n_valid)
        assert 0 < clear.sum() < n_valid.sum()  # both verdicts occur

    @pytest.mark.parametrize("offset", [0.0, 10.5])
    @pytest.mark.parametrize("h_tx, h_rx", [(60.0, 2.0), (2.0, 60.0)])
    def test_roofs_grazing_the_zone_on_a_sloping_link(self, h_tx, h_rx, offset):
        # The ray drops 58 m over 300 m, so it is ~3 m lower at the building's
        # low-end edge than above its centre; roofs in between graze the zone
        # there. The offset building's wall stands 0.5 m beside the ray.
        fan = _link_fan(SPEC28, h_tx, h_rx, [300.0], 1)
        verdicts = []
        for roof in np.linspace(26.0, 31.0, 51):
            scene = Scene([Building(150.0, offset, 20.0, roof)], extent=1000.0, seed=0)
            valid, blocked = _scene_verdicts(scene, fan)
            expected = los_blocked_fresnel(scene, fan.tx, fan.rx[0, 0], SPEC28)
            assert valid[0, 0] and blocked[0, 0] == expected, roof
            verdicts.append((expected, los_blocked_geometric(scene, fan.tx, fan.rx[0, 0])))
        assert (False, False) in verdicts
        assert (True, False) in verdicts  # blocked by clearance only

    def test_corner_grazing_a_steep_link(self):
        # 45-degree link along the diagonal at 2.4 GHz: a building centred
        # on the track points a roof corner at the zone, and the zone's
        # underside sits clearance / cos(elevation) below the axis
        spec = FresnelSpec(wavelength_from_frequency(2.4e9))
        fan = _link_fan(spec, 302.0, 2.0, [300.0], 8)
        center = 150.0 / math.sqrt(2.0)
        verdicts = []
        for roof in np.linspace(128.0, 140.0, 61):
            scene = Scene([Building(center, center, 20.0, roof)], extent=1000.0, seed=0)
            valid, blocked = _scene_verdicts(scene, fan)
            expected = los_blocked_fresnel(scene, fan.tx, fan.rx[1, 0], spec)
            assert valid.all() and blocked[1, 0] == expected, roof
            assert not blocked[[0, 2, 3, 4, 5, 6, 7]].any()
            verdicts.append((expected, los_blocked_geometric(scene, fan.tx, fan.rx[1, 0])))
        assert (False, False) in verdicts
        assert (True, False) in verdicts  # blocked by clearance only

    @pytest.mark.parametrize("spec", [SPEC28, FresnelSpec(0.0)])
    def test_height_cull_drops_some_but_not_all_buildings(self, spec):
        # low TX over tall blocks: the roof-height bound is not trivial here
        env = get_scenario("high-rise").env
        fan = _link_fan(spec, 60.0, 2.0, self.D_GRID, self.LINKS_PER_RING)
        scene = realization_scene(env, default_extent(self.D_GRID), 5, 0, layout="uniform")
        valid, link, _ = _fan_candidates(scene, fan)
        kept, circle = len(link), 0
        for k, i in zip(*np.nonzero(valid)):
            tris = _candidate_triangles(scene, fan.tx, fan.rx[k, i], fan.clearance[k, i])
            circle += len(tris) // 10
        assert 0 < kept < circle


class TestSubseed:
    def test_stream_is_deterministic_and_spread_out(self):
        a = [_subseed(42, i) for i in range(100)]
        b = [_subseed(42, i) for i in range(100)]
        assert a == b
        assert len(set(a)) == 100
        assert _subseed(43, 0) != _subseed(42, 0)
