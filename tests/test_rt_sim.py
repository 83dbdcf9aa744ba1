import dataclasses
import math
import threading
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cull_reference
import dist_reference
import mesh_reference
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
    _CROSS_MARGIN,
    Scene,
    _boxes,
    _boxes_touch_ellipsoids,
    _fan_candidates,
    _link_fan,
    _orthonormal_frame,
    _scene_verdicts,
    _segments_cross_boxes,
    _subseed,
    default_extent,
    estimate_p_los,
    los_blocked_fresnel,
    los_blocked_geometric,
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


def box_scene(*boxes, extent=1000.0):
    """A hand-made scene of (center_x, center_y, width, height) boxes."""
    table = np.array(boxes, dtype=float).reshape(-1, 4)
    return Scene(table[:, :2], table[:, 2], table[:, 3], extent, seed=0)


def mesh(scene):
    """The scene's full mesh: every building triangulated, in building order."""
    return mesh_reference.triangulate(scene.centers, scene.widths, scene.heights)


def brute_distance_to_origin(tri, steps=400):
    """Least distance over a dense barycentric sampling of the triangle: an
    upper bound on the exact distance, since every sample lies on it."""
    a, b, c = (np.asarray(v, dtype=float) for v in tri)
    i, j = np.divmod(np.arange((steps + 1) ** 2), steps + 1)
    keep = i + j <= steps
    u, v = i[keep, None] / steps, j[keep, None] / steps
    p = a + u * (b - a) + v * (c - a)
    return math.sqrt(float(np.min(np.einsum("ij,ij->i", p, p))))


class TestSceneSynthesis:
    def test_urban_kilometre_scene(self):
        scene = synthesize_scene(URBAN, 1000.0, seed=7)
        n = len(scene)
        assert 400 <= n <= 560  # about beta per km^2
        assert mesh(scene).shape == (10 * n, 3, 3)
        widths = {b.width for b in scene.buildings}
        assert len(widths) == 1
        assert widths.pop() == pytest.approx(24.494897427831777, rel=1e-12)

    def test_deterministic_for_a_seed(self):
        a = synthesize_scene(URBAN, 800.0, seed=3)
        b = synthesize_scene(URBAN, 800.0, seed=3)
        assert a.buildings == b.buildings
        assert np.array_equal(mesh(a), mesh(b))
        c = synthesize_scene(URBAN, 800.0, seed=4)
        assert a.buildings != c.buildings

    def test_heights_follow_the_rayleigh_mean(self):
        rng = np.random.default_rng(1)
        h = sample_heights(10.0, 10_000, rng)
        assert h.mean() == pytest.approx(10.0 * math.sqrt(math.pi / 2.0), rel=0.02)

    def test_triangles_stay_inside_the_extent(self):
        for layout in ("grid", "uniform"):
            scene = synthesize_scene(URBAN, 600.0, seed=11, layout=layout)
            xy = mesh(scene)[:, :, :2].reshape(-1, 2)
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

    @pytest.mark.parametrize("layout", ["grid", "uniform"])
    @pytest.mark.parametrize("extent", [0.0, -100.0, math.inf, math.nan])
    def test_extent_must_be_finite_and_positive(self, layout, extent):
        with pytest.raises(ValueError, match="extent must be finite and > 0"):
            synthesize_scene(URBAN, extent, seed=0, layout=layout)

    def test_scene_dump_schema(self):
        scene = synthesize_scene(URBAN, 400.0, seed=2)
        lines = scene_csv_lines(scene)
        assert lines[0].startswith("# extent=")
        assert lines[1] == "center_x,center_y,width,height"
        assert len(lines) == 2 + len(scene)
        assert lines[2:] == [f"{b.center_x!r},{b.center_y!r},{b.width!r},{b.height!r}"
                             for b in scene.buildings]


class TestSceneArrays:
    @pytest.mark.parametrize("layout", ["grid", "uniform"])
    def test_hand_built_scene_equals_the_array_path(self, layout):
        built = synthesize_scene(get_scenario("high-rise").env, 500.0, seed=6, layout=layout)
        hand = box_scene(*map(dataclasses.astuple, built.buildings), extent=built.extent)
        for name in ("centers", "widths", "heights"):
            assert np.array_equal(getattr(hand, name), getattr(built, name))
            assert getattr(hand, name).dtype == float
        assert hand.buildings == built.buildings
        assert (hand.extent, len(hand)) == (built.extent, len(built))
        assert np.array_equal(mesh(hand), mesh(built))
        assert mesh(built).shape == (10 * len(built), 3, 3)

    @pytest.mark.parametrize("widths, heights", [
        ([20.0, 0.0], [5.0, 5.0]),
        ([20.0, 20.0], [5.0, 0.0]),
        ([20.0, -1.0], [5.0, 5.0]),
        ([20.0, 20.0], [np.nan, 5.0]),
    ])
    def test_array_path_rejects_degenerate_boxes(self, widths, heights):
        with pytest.raises(ValueError, match="must be > 0"):
            Scene(np.zeros((2, 2)), np.array(widths), np.array(heights), 100.0, 0)

    @pytest.mark.parametrize("widths, heights", [
        ([20.0, 20.0], [5.0]),
        ([20.0], [5.0, 5.0]),
        ([[20.0, 20.0]], [[5.0, 5.0]]),
        (20.0, 5.0),
    ])
    def test_widths_and_heights_must_be_one_row_per_building(self, widths, heights):
        # a short heights array would drop CSV rows and fail in the blockage tests
        with pytest.raises(ValueError, match="not 1-D of one length"):
            Scene(np.zeros((2, 2)), widths, heights, 100.0, 0)

    def test_empty_scene(self):
        scene = box_scene(extent=100.0)
        assert len(scene) == 0 and scene.buildings == ()
        assert mesh(scene).shape == (0, 3, 3)

    def test_arrays_are_read_only_views_of_writeable_inputs(self):
        centers, widths, heights = np.array([[1.0, 2.0], [3.0, 4.0]]), np.full(2, 5.0), np.ones(2)
        scene = Scene(centers, widths, heights, 100.0, 0)
        for name, given in (("centers", centers), ("widths", widths), ("heights", heights)):
            stored = getattr(scene, name)
            assert np.shares_memory(stored, given) and np.array_equal(stored, given)
            with pytest.raises(ValueError, match="read-only"):
                stored[0] = 7.0
            assert given.flags.writeable
            given[0] = 7.0  # the caller's array stays writeable

    @pytest.mark.parametrize("layout", ["grid", "uniform"])
    def test_buildings_are_the_array_rows_as_floats(self, layout):
        # the fields perfbench's blockage check reads off each building
        scene = synthesize_scene(URBAN, 500.0, seed=4, layout=layout)
        rows = np.column_stack([scene.centers, scene.widths, scene.heights]).tolist()
        assert [dataclasses.astuple(b) for b in scene.buildings] == [tuple(r) for r in rows]
        assert all(type(v) is float for b in scene.buildings for v in dataclasses.astuple(b))


class TestRayTriangle:
    """The oracle's `mt_batch` on single triangles and against a linear solve."""

    @staticmethod
    def hit(origin, direction, tri):
        """(s, u, v) of one ray/triangle hit, or None."""
        hit, s, u, v = mesh_reference.mt_batch(np.asarray(origin, dtype=float),
                                               np.asarray(direction, dtype=float),
                                               np.array([tri], dtype=float))
        return (float(s[0]), float(u[0]), float(v[0])) if hit[0] else None

    def test_perpendicular_hit_through_centroid(self):
        tri = ((0.0, 0.0, 0.0), (3.0, 0.0, 0.0), (0.0, 3.0, 0.0))
        s, u, v = self.hit((1.0, 1.0, 5.0), (0.0, 0.0, -1.0), tri)
        assert s == pytest.approx(5.0, rel=1e-12)
        assert u == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert v == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_parallel_ray_misses(self):
        tri = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert self.hit((0.2, 0.2, 1.0), (1.0, 0.0, 0.0), tri) is None

    def test_behind_origin_misses(self):
        tri = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert self.hit((0.2, 0.2, -1.0), (0.0, 0.0, -1.0), tri) is None

    def test_outside_barycentric_range_misses(self):
        tri = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert self.hit((0.9, 0.9, 1.0), (0.0, 0.0, -1.0), tri) is None

    def test_agrees_with_linear_solve_oracle(self):
        # one batch of per-row rays over the draws of one ray/triangle per loop
        rng = np.random.default_rng(2025)
        origins, directions, tris = [], [], []
        for _ in range(2000):
            origins.append(rng.uniform(-2, 2, 3))
            direction = rng.normal(size=3)
            directions.append(direction / np.linalg.norm(direction))
            tris.append(rng.uniform(-2, 2, (3, 3)))
        hit, s, u, v = mesh_reference.mt_batch(np.array(origins), np.array(directions),
                                               np.array(tris))
        hits = 0
        for k in range(2000):
            expected = solve_oracle(origins[k], directions[k], tris[k])
            assert (expected is None) == (not hit[k])
            if expected is not None:
                hits += 1
                for a, b in zip(expected, (s[k], u[k], v[k])):
                    assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
        assert hits > 50  # the comparison actually exercised hits


class TestPointTriangleDistance:
    """The oracle's `point_triangle_dist_sq` against dense sampling."""

    def test_against_dense_sampling(self):
        rng = np.random.default_rng(6)
        tris = rng.uniform(-2.0, 2.0, (40, 3, 3))
        dist = np.sqrt(mesh_reference.point_triangle_dist_sq(tris[:, 0], tris[:, 1], tris[:, 2]))
        for k in range(len(tris)):
            approx = brute_distance_to_origin(tris[k], steps=300)
            assert dist[k] <= approx + 1e-9  # exact <= sampled
            assert dist[k] >= approx - 2e-2  # sampling resolution

    def test_known_configurations(self):
        # face region: horizontal triangle 2 below the origin
        tri = np.array([[[-5, -5, -2.0], [5, -5, -2.0], [0, 5, -2.0]]])
        dist_sq = mesh_reference.point_triangle_dist_sq
        assert dist_sq(tri[:, 0], tri[:, 1], tri[:, 2])[0] == pytest.approx(4.0)
        # vertex region
        tri = np.array([[[3.0, 4.0, 0.0], [10.0, 4.0, 0.0], [3.0, 10.0, 0.0]]])
        assert dist_sq(tri[:, 0], tri[:, 1], tri[:, 2])[0] == pytest.approx(25.0)
        # edge region: closest point mid-edge
        tri = np.array([[[-1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 9.0, 0.0]]])
        assert dist_sq(tri[:, 0], tri[:, 1], tri[:, 2])[0] == pytest.approx(4.0)


class TestDistanceOracle:
    """The mesh oracle's `point_triangle_dist_sq` against the masked-copy
    reference, bit for bit."""

    @staticmethod
    def assert_bit_equal(tris):
        tris = np.asarray(tris, dtype=float)
        got = mesh_reference.point_triangle_dist_sq(tris[:, 0], tris[:, 1], tris[:, 2])
        want = dist_reference.point_triangle_dist_sq(tris[:, 0], tris[:, 1], tris[:, 2])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale", [1.0, 10.0, 1000.0])
    def test_random_triangles(self, scale):
        rng = np.random.default_rng(int(scale))
        self.assert_bit_equal(rng.uniform(-scale, scale, (200_000, 3, 3)))

    def test_degenerate_triangles(self):
        rng = np.random.default_rng(8)
        a, b, c = rng.uniform(-3.0, 3.0, (3, 5_000, 3))
        s = rng.uniform(-2.0, 3.0, (5_000, 1))
        zero = np.zeros_like(a)
        cases = [
            (a, a, c),  # A = B: zero AB denominator
            (a, b, a),  # A = C: zero AC denominator
            (a, b, b),  # B = C: zero BC denominator
            (a, a, a),  # one point
            (a, a + s * (c - a), c),  # collinear: zero face denominator
            (zero, zero, c),  # coincident vertices at the origin
            (a, zero, -a),  # collinear through the origin
        ]
        for tri in cases:
            self.assert_bit_equal(np.stack(tri, axis=1))

    def test_mapped_triangles_of_one_fan(self, monkeypatch):
        seen = []
        exact = mesh_reference.point_triangle_dist_sq

        def spy(a, b, c):
            seen.append((exact(a, b, c), dist_reference.point_triangle_dist_sq(a, b, c)))
            return seen[-1][0]

        monkeypatch.setattr(mesh_reference, "point_triangle_dist_sq", spy)
        d_grid = [50.0 * i for i in range(1, 21)]
        fan = _link_fan(SPEC28, 500.0, 2.0, d_grid, 72)
        scene = realization_scene(URBAN, default_extent(d_grid), 1, 0)
        _, link, building = _fan_candidates(scene, fan)
        mesh_reference.pairs_blocked(scene, fan, link, building)
        assert seen
        for got, want in seen:
            assert got.tobytes() == want.tobytes()


class TestBlockage:
    def test_empty_scene_blocks_nothing(self):
        scene = box_scene()
        assert not los_blocked_geometric(scene, (0, 0, 30.0), (500.0, 0, 2.0))
        assert not los_blocked_fresnel(scene, (0, 0, 30.0), (500.0, 0, 2.0), SPEC28)

    def test_single_blocker_across_the_path(self):
        scene = box_scene((250.0, 0.0, 30.0, 50.0))
        assert los_blocked_geometric(scene, (0, 0, 30.0), (500.0, 0, 2.0))
        # same building, link passing beside it
        assert not los_blocked_geometric(scene, (0, 0, 30.0), (0.0, 500.0, 2.0))

    def test_coincident_terminals_rejected(self):
        scene = box_scene(extent=100.0)
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
            hit, s, _, _ = mesh_reference.mt_batch(tx, (rx - tx) / length, mesh(scene))
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
            scene = box_scene((d / 2.0, 0.0, 20.0, roof), extent=2000.0)
            got = los_blocked_fresnel(scene, (0, 0, h), (d, 0, h), SPEC28)
            assert got == expect_blocked, f"roof at limit{offset:+}"

    def test_clearance_blockage_without_geometric_blockage(self):
        # roof grazing just under the direct ray still cuts the zone
        h = 30.0
        d = 400.0
        scene = box_scene((200.0, 0.0, 20.0, h - 0.2), extent=2000.0)
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

    @pytest.mark.parametrize("h_tx, h_rx, message", [
        (100.0, -30.0, "h_rx must be >= 0"),
        (2.0, 5.0, "must not be below h_rx"),
        (0.0, 0.0, "h_tx must be > 0"),
        (math.inf, 2.0, "h_tx must be > 0 and finite"),
        (100.0, math.nan, "h_rx must be >= 0 and finite"),
    ])
    def test_terminal_heights_follow_the_link_rules(self, h_tx, h_rx, message):
        # the rules of LinkGeometry, checked before any scene is built
        with pytest.raises(ValueError, match=message):
            estimate_p_los(URBAN, SPEC28, h_tx, h_rx, [50.0, 100.0],
                           realizations=1, links_per_ring=8, seed=0)


@st.composite
def cull_scenes(draw):
    """Boxes on a street grid, or overlapping boxes scattered at random, and
    a fan over them: with or without a clearance zone, and in blocks from
    one azimuth to the whole fan."""
    h_tx = draw(st.floats(1.0, 120.0))
    height = st.floats(1.0, 1.5 * h_tx)
    if draw(st.booleans()):
        pitch = draw(st.floats(10.0, 60.0))
        width = draw(st.floats(1.0, pitch - 1.0))
        base = (np.arange(draw(st.integers(1, 12))) - draw(st.floats(0.0, 11.0))) * pitch
        gx, gy = np.meshgrid(base, base + draw(st.floats(-pitch, pitch)))
        boxes = [(x, y, width, draw(height)) for x, y in zip(gx.ravel(), gy.ravel())]
    else:
        coord = st.floats(-160.0, 160.0)
        boxes = draw(st.lists(st.tuples(coord, coord, st.floats(1.0, 60.0), height),
                              min_size=1, max_size=40))
    spec = draw(st.sampled_from([FresnelSpec(0.0), SPEC28,
                                 FresnelSpec(wavelength_from_frequency(2.4e9), order=2)]))
    h_rx = draw(st.floats(0.0, h_tx))
    distances = draw(st.lists(st.floats(5.0, 150.0), min_size=1, max_size=4, unique=True))
    azimuths = draw(st.sampled_from([1, 2, 4, 8, 12]))
    elements = draw(st.sampled_from([1, 37, rt_sim._CULL_ELEMENTS]))
    return boxes, spec, h_tx, h_rx, distances, azimuths, elements


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

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(case=cull_scenes())
    def test_random_scenes_keep_the_reference_pairs(self, case):
        boxes, spec, h_tx, h_rx, distances, azimuths, elements = case
        scene = box_scene(*boxes)
        fan = _link_fan(spec, h_tx, h_rx, distances, azimuths)
        with mock.patch.object(rt_sim, "_CULL_ELEMENTS", elements):
            valid, link, building = _fan_candidates(scene, fan)
        want_valid, want_pairs = cull_reference.fan_candidates(scene, fan)
        assert np.array_equal(valid, want_valid)
        pairs = list(zip(link.tolist(), building.tolist()))
        assert len(set(pairs)) == len(pairs) and set(pairs) == want_pairs

    def test_empty_scene_keeps_no_pairs(self):
        fan = _link_fan(SPEC28, 100.0, 2.0, [50.0, 100.0], 8)
        valid, link, building = _fan_candidates(box_scene(extent=300.0), fan)
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
        want = [[[t, a, t] for t, a in (fresnel_axes(spec, float(sep)) for sep in row)]
                for row in fan.length]
        assert fan.semi_axes.tolist() == want


class TestBatchedVerdicts:
    """The estimator's culled, batched verdicts against the per-link tests of
    the mesh oracle."""

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
            half_w = scene.widths / 2.0
            for k in range(self.LINKS_PER_RING):
                for i in range(len(self.D_GRID)):
                    rx = fan.rx[k, i]
                    inside = np.any(
                        (np.abs(rx[0] - scene.centers[:, 0]) <= half_w)
                        & (np.abs(rx[1] - scene.centers[:, 1]) <= half_w)
                    )
                    assert valid[k, i] == (not inside), (r, k, i)
                    if inside:
                        continue
                    expected = mesh_reference.los_blocked_fresnel(scene, fan.tx, rx, spec)
                    assert blocked[k, i] == expected, (r, k, i)
            clear += np.sum(valid & ~blocked, axis=0)
            n_valid += np.sum(valid, axis=0)
        est = estimate_p_los(env, spec, h_tx, 2.0, self.D_GRID, self.REALIZATIONS,
                             self.LINKS_PER_RING, seed, layout=layout)
        assert np.array_equal(est.n_links, n_valid)
        assert np.array_equal(est.p_los, clear / n_valid)
        assert 0 < clear.sum() < n_valid.sum()  # both verdicts occur

    def test_zero_wavelength_runs_no_triangle_test(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a clearance test ran at zero wavelength")

        monkeypatch.setattr(rt_sim, "_boxes_touch_ellipsoids", forbidden)
        est = estimate_p_los(URBAN, FresnelSpec(0.0), 40.0, 2.0, self.D_GRID, self.REALIZATIONS,
                             self.LINKS_PER_RING, seed=3)
        assert 0.0 < est.p_los.min() < est.p_los.max() <= 1.0

    @pytest.mark.parametrize("offset", [0.0, 10.5])
    @pytest.mark.parametrize("h_tx, h_rx", [(60.0, 2.0), (2.0, 60.0)])
    def test_roofs_grazing_the_zone_on_a_sloping_link(self, h_tx, h_rx, offset):
        # The ray drops 58 m over 300 m, so it is ~3 m lower at the building's
        # low-end edge than above its centre; roofs in between graze the zone
        # there. The offset building's wall stands 0.5 m beside the ray.
        fan = _link_fan(SPEC28, h_tx, h_rx, [300.0], 1)
        verdicts = []
        for roof in np.linspace(26.0, 31.0, 51):
            scene = box_scene((150.0, offset, 20.0, roof))
            valid, blocked = _scene_verdicts(scene, fan)
            expected = mesh_reference.los_blocked_fresnel(scene, fan.tx, fan.rx[0, 0], SPEC28)
            assert valid[0, 0] and blocked[0, 0] == expected, roof
            verdicts.append(
                (expected, mesh_reference.los_blocked_geometric(scene, fan.tx, fan.rx[0, 0])))
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
            scene = box_scene((center, center, 20.0, roof))
            valid, blocked = _scene_verdicts(scene, fan)
            expected = mesh_reference.los_blocked_fresnel(scene, fan.tx, fan.rx[1, 0], spec)
            assert valid.all() and blocked[1, 0] == expected, roof
            assert not blocked[[0, 2, 3, 4, 5, 6, 7]].any()
            verdicts.append(
                (expected, mesh_reference.los_blocked_geometric(scene, fan.tx, fan.rx[1, 0])))
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
            tris = mesh_reference.candidate_triangles(scene, fan.tx, fan.rx[k, i],
                                                      fan.clearance[k, i])
            circle += len(tris) // 10
        assert 0 < kept < circle


class TestCrossingPreTest:
    """`_segments_cross_boxes` flags only pairs that the exact test blocks."""

    @staticmethod
    def crossings(scene, fan, link, building, margin=_CROSS_MARGIN):
        """The pre-test on the fan's (link, building) pairs."""
        lo, hi = _boxes(scene, building)
        return _segments_cross_boxes(fan.tx, fan.rx.reshape(-1, 3)[link] - fan.tx, lo, hi, margin)

    @classmethod
    def flags(cls, scene, fan, spec):
        """Pre-test flags of every (link, building) pair, shape (links, buildings),
        each flagged pair checked against the mesh oracle's
        `los_blocked_fresnel` on its building alone, and the scene's verdicts
        against the oracle's per-link test."""
        n = len(scene)
        link = np.repeat(np.arange(fan.length.size), n)
        building = np.tile(np.arange(n), fan.length.size)
        flag = cls.crossings(scene, fan, link, building).reshape(-1, n)
        rx = fan.rx.reshape(-1, 3)
        for i, b in zip(*np.nonzero(flag)):
            alone = box_scene(dataclasses.astuple(scene.buildings[b]), extent=scene.extent)
            assert mesh_reference.los_blocked_fresnel(alone, fan.tx, rx[i], spec), (i, b)
        valid, blocked = _scene_verdicts(scene, fan)
        for k, i in zip(*np.nonzero(valid)):
            want = mesh_reference.los_blocked_fresnel(scene, fan.tx, fan.rx[k, i], spec)
            assert blocked[k, i] == want
        return flag

    @pytest.mark.parametrize("spec", [SPEC28, FresnelSpec(0.0)])
    def test_links_along_the_axes(self, spec):
        # azimuth 0 has a zero y component; azimuth 90 a tiny x component
        fan = _link_fan(spec, 60.0, 2.0, [300.0], 4)
        scene = box_scene(
            (150.0, 0.0, 20.0, 40.0),  # across the 0-degree track
            (150.0, 10.0, 20.0, 40.0),  # wall in the plane of that track: it touches
            (150.0, 10.5, 20.0, 40.0),  # wall 0.5 m beside it
            (0.0, 150.0, 20.0, 40.0),  # across the 90-degree track
        )
        flag = self.flags(scene, fan, spec)
        assert flag[0].tolist() == [True, True, False, False]
        assert flag[1].tolist() == [False, False, False, True]

    def test_zero_direction_component_keeps_the_slab_closed(self):
        fan = _link_fan(SPEC28, 60.0, 2.0, [300.0], 4)
        rx = fan.rx.copy()
        rx[1, 0, 0] = 0.0  # the 90-degree link exactly along the y axis
        fan = dataclasses.replace(fan, rx=rx)
        scene = box_scene(
            (5.0, 150.0, 20.0, 40.0),  # TX strictly inside the x slab
            (10.0, 150.0, 20.0, 40.0),  # TX on the slab's boundary: the link runs along a wall
            (-10.5, 150.0, 20.0, 40.0),  # TX outside the slab
        )
        flag = self.crossings(scene, fan, np.ones(3, dtype=np.intp), np.arange(3))
        assert flag.tolist() == [True, True, False]
        geometric = dataclasses.replace(_link_fan(FresnelSpec(0.0), 60.0, 2.0, [300.0], 4), rx=rx)
        for b, want in enumerate(flag.tolist()):
            alone = box_scene(dataclasses.astuple(scene.buildings[b]))
            assert mesh_reference.los_blocked_fresnel(alone, fan.tx, rx[1, 0], SPEC28) or not want
            assert mesh_reference.los_blocked_geometric(alone, fan.tx, rx[1, 0]) == want
            assert _scene_verdicts(alone, geometric)[1][1, 0] == want

    def test_diagonal_link_through_the_corners(self):
        # a 45-degree link through a building's vertical corner edges, below
        # its roof: the segment crosses the box, and the slab test blocks it
        # at zero wavelength, as does the per-link test; the oracle's
        # Moller-Trumbore misses both edges on some roofs
        fan = _link_fan(SPEC28, 302.0, 2.0, [300.0], 8)
        geometric = _link_fan(FresnelSpec(0.0), 302.0, 2.0, [300.0], 8)
        corner = 80.0 * fan.unit[1]
        misses = []
        for roof in range(240, 260):  # 4 to 51 m above the segment
            scene = box_scene((corner[0], corner[1], 20.0, roof))
            assert self.flags(scene, fan, SPEC28)[1, 0]
            valid, blocked = _scene_verdicts(scene, geometric)
            assert valid.all() and blocked[1, 0]
            assert los_blocked_geometric(scene, geometric.tx, geometric.rx[1, 0])
            misses.append(
                not mesh_reference.los_blocked_geometric(scene, geometric.tx, geometric.rx[1, 0]))
        assert any(misses)

    @pytest.mark.parametrize("spec", [SPEC28, FresnelSpec(0.0)])
    @pytest.mark.parametrize("h_rx", [2.0, 0.0])
    @pytest.mark.parametrize("gap", [0.0, 1e-6])
    def test_receiver_flush_against_a_wall(self, gap, h_rx, spec):
        # the zone reaches the wall; the segment stops at it or short of it
        fan = _link_fan(spec, 60.0, h_rx, [300.0], 1)
        scene = box_scene((310.0 + gap, 0.0, 20.0, 40.0))
        assert not self.flags(scene, fan, spec).any()  # the crossing is at t = 1
        assert los_blocked_fresnel(scene, fan.tx, fan.rx[0, 0], SPEC28)
        valid, blocked = _scene_verdicts(scene, fan)
        assert valid[0, 0] == (gap > 0.0)
        assert blocked[0, 0] == (valid[0, 0] and spec.wavelength > 0.0)

    @pytest.mark.parametrize("spec", [SPEC28, FresnelSpec(0.0)])
    def test_tx_inside_overlapping_uniform_buildings(self, spec):
        fan = _link_fan(spec, 60.0, 2.0, [100.0, 300.0], 8)
        scene = box_scene(
            (0.0, 0.0, 20.0, 80.0),  # holds the TX
            (8.0, 3.0, 20.0, 70.0),  # overlaps it, and holds the TX too
            (-9.9995, 0.0, 20.0, 80.0),  # its wall 0.5 mm from the TX
        )
        flag = self.flags(scene, fan, spec)
        assert flag[:, :2].all()  # every link leaves through their walls
        assert not flag[0, 2] and not flag[1, 2]  # too near the TX on the 0-degree links

    def test_no_verdict_for_a_receiver_below_ground(self):
        # the segment leaves the TX's building through its floor and passes
        # under its wall: the solid box blocks it, the oracle's floorless
        # mesh leaves it clear
        fan = _link_fan(SPEC28, 60.0, -30.0, [300.0], 1)
        scene = box_scene((0.0, 0.0, 500.0, 80.0))
        assert not mesh_reference.los_blocked_fresnel(scene, fan.tx, fan.rx[0, 0], SPEC28)
        assert los_blocked_fresnel(scene, fan.tx, fan.rx[0, 0], SPEC28)
        valid, blocked = _scene_verdicts(scene, fan)
        assert valid[0, 0] and blocked[0, 0]

    @pytest.mark.parametrize("h_tx, h_rx, edge, spec", [
        (2.0, 60.0, 140.0, SPEC28),
        (60.0, 2.0, 160.0, SPEC28),
        (30.0, 30.0, 150.0, SPEC28),  # level: the link lies in the roof's plane
        (30.0, 30.0, 150.0, FresnelSpec(0.0)),
    ])
    def test_link_grazing_a_roof_edge(self, h_tx, h_rx, edge, spec):
        fan = _link_fan(spec, h_tx, h_rx, [300.0], 1)
        roof = h_tx + (h_rx - h_tx) * edge / 300.0
        for height in (roof - 1e-9, roof, roof + 1e-9):
            scene = box_scene((150.0, 0.0, 20.0, height))
            self.flags(scene, fan, spec)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_thinnest_zone_at_order_three(self, seed):
        spec = FresnelSpec(wavelength_from_frequency(3000e9), order=3)
        d_grid = TestBatchedVerdicts.D_GRID
        fan = _link_fan(spec, 30.0, 2.0, d_grid, 24)
        scene = realization_scene(get_scenario("dense-urban").env, default_extent(d_grid),
                                  seed, 0)
        valid, link, building = _fan_candidates(scene, fan)
        flag = self.crossings(scene, fan, link, building)
        assert flag.any()
        assert mesh_reference.pairs_blocked(scene, fan, link[flag], building[flag]).all()
        valid, blocked = _scene_verdicts(scene, fan)
        for k, i in zip(*np.nonzero(valid)):
            want = mesh_reference.los_blocked_fresnel(scene, fan.tx, fan.rx[k, i], spec)
            assert blocked[k, i] == want

    @pytest.mark.parametrize(
        "scenario, layout, h_tx",
        [("urban", "grid", 500.0), ("urban", "grid", 40.0), ("high-rise", "uniform", 60.0)],
    )
    @pytest.mark.parametrize("seed", [3, 17, 2024])
    def test_never_flags_a_pair_the_exact_test_clears(self, scenario, layout, h_tx, seed):
        # the clearance configurations of TestBatchedVerdicts
        d_grid = TestBatchedVerdicts.D_GRID
        fan = _link_fan(SPEC28, h_tx, 2.0, d_grid, TestBatchedVerdicts.LINKS_PER_RING)
        for r in range(TestBatchedVerdicts.REALIZATIONS):
            scene = realization_scene(get_scenario(scenario).env, default_extent(d_grid), seed,
                                      r, layout=layout)
            _, link, building = _fan_candidates(scene, fan)
            flag = self.crossings(scene, fan, link, building)
            assert mesh_reference.pairs_blocked(scene, fan, link[flag], building[flag]).all()


@st.composite
def fan_scenes(draw):
    """A few boxes around the TX and a small fan of links over them."""
    coord = st.floats(-120.0, 120.0)
    boxes = draw(st.lists(st.tuples(coord, coord, st.floats(1.0, 50.0), st.floats(1.0, 90.0)),
                          min_size=1, max_size=4))
    h_tx = draw(st.floats(1.0, 100.0))
    h_rx = draw(st.floats(0.0, h_tx))
    distances = draw(st.lists(st.floats(5.0, 150.0), min_size=1, max_size=3, unique=True))
    return boxes, h_tx, h_rx, distances, draw(st.sampled_from([1, 2, 4, 8]))


def flips_within_a_nanometre(boxes, tx, rx, spec):
    """Whether the mesh oracle's per-link verdict changes when every box
    grows, or shrinks, by 1 nm: the link is tangent to a box, and rounding
    decides its verdict."""
    grown, shrunk = (box_scene(*[(x, y, w + 2.0 * d, h + d) for x, y, w, h in boxes])
                     for d in (1e-9, -1e-9))
    blocked = mesh_reference.los_blocked_fresnel
    return blocked(grown, tx, rx, spec) and not blocked(shrunk, tx, rx, spec)


class TestVerdictProperties:
    """`_scene_verdicts` against the mesh oracle's per-link test on random
    scenes: 1, 2, 4 and 8 azimuths give axis-aligned and diagonal links. At
    zero wavelength the oracle's test is Moller-Trumbore. The two may differ
    only on a link tangent to a box, as the corner-edge link
    (`TestCrossingPreTest::test_diagonal_link_through_the_corners`)."""

    @pytest.mark.parametrize(
        "spec", [SPEC28, FresnelSpec(wavelength_from_frequency(3000e9)), FresnelSpec(0.0)]
    )
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(case=fan_scenes())
    def test_every_valid_link_matches_the_per_link_test(self, spec, case):
        boxes, h_tx, h_rx, distances, azimuths = case
        scene = box_scene(*boxes)
        fan = _link_fan(spec, h_tx, h_rx, distances, azimuths)
        valid, blocked = _scene_verdicts(scene, fan)
        half_w = scene.widths / 2.0
        for k, i in np.ndindex(valid.shape):
            rx = fan.rx[k, i]
            inside = np.any((np.abs(rx[0] - scene.centers[:, 0]) <= half_w)
                            & (np.abs(rx[1] - scene.centers[:, 1]) <= half_w))
            assert valid[k, i] == (not inside)
            if not inside and blocked[k, i] != mesh_reference.los_blocked_fresnel(
                    scene, fan.tx, rx, spec):
                assert flips_within_a_nanometre(boxes, fan.tx, rx, spec), (k, i)

    @pytest.mark.parametrize("box, h_tx, h_rx, want", [
        # TX over the roof by one ulp: the segment clears the roof edge by
        # 1.2e-15 m, and the mesh oracle's Moller-Trumbore rounding blocks it
        ((0.0, 0.0, 3.0, 9.012973308603124), 9.012973308603126, 9.012973308603124, False),
        # TX on the top edge of a wall: the segment touches the box at t = 0,
        # which the oracle's Moller-Trumbore (s > 0) leaves open, and every
        # zone touches
        ((-0.5, 0.0, 1.0, 1.0), 1.0, 0.0, True),
    ])
    def test_tangent_links_get_the_slab_verdict(self, box, h_tx, h_rx, want):
        fan = _link_fan(FresnelSpec(0.0), h_tx, h_rx, [5.0], 1)
        valid, blocked = _scene_verdicts(box_scene(box), fan)
        assert valid[0, 0] and blocked[0, 0] == want
        assert los_blocked_geometric(box_scene(box), fan.tx, fan.rx[0, 0]) == want
        assert los_blocked_fresnel(box_scene(box), fan.tx, fan.rx[0, 0], SPEC28) or not want
        assert flips_within_a_nanometre([box], fan.tx, fan.rx[0, 0], FresnelSpec(0.0))


@st.composite
def links_near_boxes(draw):
    """One link at any orientation, vertical and steep ones included, with a
    clearance zone, and square boxes on the ground: about points of the
    link, with a corner or a face near a point of the zone's surface, or
    with an edge tangent to the zone. A box holding both terminals is
    dropped: only there can the floorless mesh miss a zone that meets the
    solid box."""
    coord = st.floats(-50.0, 50.0)
    tx = np.array([draw(coord), draw(coord), draw(st.floats(0.0, 100.0))])
    shift = st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3), st.floats(-200.0, 200.0))
    rx = tx + [draw(shift), draw(shift), draw(st.floats(-100.0, 100.0))]
    rx[2] = abs(rx[2])
    separation = float(np.linalg.norm(rx - tx))
    assume(separation > 1.0)
    spec = FresnelSpec(wavelength_from_frequency(draw(st.sampled_from([2.4e9, 28e9, 3000e9]))),
                       order=draw(st.integers(1, 3)))
    transverse, along = fresnel_axes(spec, separation)
    axis_unit = (rx - tx) / separation
    center = 0.5 * (tx + rx)
    frame = np.stack([*_orthonormal_frame(axis_unit), axis_unit])
    semi = np.array([transverse, transverse, along])
    q = frame.T @ (frame / semi[:, None] ** 2)  # the zone is d^T q d <= 1
    jitter = st.floats(-0.02, 0.02)
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        width = draw(st.floats(0.5, 40.0))
        place = draw(st.sampled_from(["link", "surface", "edge"]))
        if place == "link":
            p = tx + draw(st.floats(0.0, 1.0)) * (rx - tx)
            reach = width / 2.0 + 2.0 * transverse
            x, y = p[:2] + [draw(st.floats(-1.5, 1.5)) * reach, draw(st.floats(-1.5, 1.5)) * reach]
            height = p[2] + draw(st.floats(-2.0, 2.0)) * transverse
        elif place == "surface":
            # on each horizontal axis the box either ends at the point, on
            # the side away from the centre, or spans it; its roof is at the
            # point when that lies below the centre
            u = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)]) + [0.0, 0.0, 1e-3]
            out = (u / np.linalg.norm(u) * semi) @ frame
            p = center + out
            x, y = (p[i] + draw(jitter) * transverse
                    + (math.copysign(width / 2.0, out[i]) if draw(st.booleans())
                       else draw(st.floats(-0.45, 0.45)) * width) for i in range(2))
            height = p[2] + (draw(jitter) if out[2] < 0.0 else draw(st.floats(0.1, 2.0))) * transverse
        else:
            # a vertical edge, or a roof edge below the centre, along axis k
            # at the offset d in the other two axes where the least of d^T q d
            # over the edge's line is (1 + gap)^2: just inside or outside
            k = draw(st.sampled_from([2, 0, 1]))
            ij = [a for a in range(3) if a != k]
            schur = q[np.ix_(ij, ij)] - np.outer(q[ij, k], q[k, ij]) / q[k, k]
            angle = draw(st.floats(0.0, 2.0 * math.pi if k == 2 else math.pi)) + (k != 2) * math.pi
            e = np.array([math.cos(angle), math.sin(angle)])
            d = np.zeros(3)
            gap = draw(st.floats(1e-5, 1e-3)) * draw(st.sampled_from([-1.0, 1.0]))
            d[ij] = e * (1.0 + gap) / math.sqrt(e @ schur @ e)
            d[k] = -(q[k, ij] @ d[ij]) / q[k, k]
            p = center + d
            xy = [p[a] + math.copysign(width / 2.0, d[a]) for a in range(2)]
            if k == 2:
                height = p[2] + draw(st.floats(0.01, 1.0)) * separation
            else:
                xy[k] = p[k] + draw(st.floats(-0.45, 0.45)) * width
                height = p[2]
            x, y = xy
        box = (x, y, width, max(height, 0.01))
        if not all(np.all(np.abs(t[:2] - [x, y]) <= width / 2.0) and t[2] <= box[3]
                   for t in (tx, rx)):
            boxes.append(box)
    assume(boxes)
    return tx, rx, spec, boxes


class TestBoxKernelProperties:
    """`_boxes_touch_ellipsoids` against the mesh oracle's `pairs_blocked`."""

    @staticmethod
    def verdicts(tx, rx, spec, boxes):
        """Kernel and oracle verdicts, one per box, on the link's own fan."""
        separation = float(np.linalg.norm(rx - tx))
        transverse, along = fresnel_axes(spec, separation)
        axis_unit = (rx - tx) / separation
        v, w = _orthonormal_frame(axis_unit)
        fan = types.SimpleNamespace(tx=tx, rx=rx, frame=np.stack([v, axis_unit, w]),
                                    semi_axes=np.array([transverse, along, transverse]))
        scene = box_scene(*boxes)
        building = np.arange(len(boxes))
        link = np.zeros_like(building)
        lo, hi = _boxes(scene, building)
        got = _boxes_touch_ellipsoids(0.5 * (tx + rx), fan.frame, fan.semi_axes, lo, hi)
        return got, mesh_reference.pairs_blocked(scene, fan, link, building)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(case=links_near_boxes())
    def test_same_verdict_as_the_mesh(self, case):
        tx, rx, spec, boxes = case
        got, want = self.verdicts(tx, rx, spec, boxes)
        for b in np.nonzero(got != want)[0]:
            x, y, w, h = boxes[b]
            grown, shrunk = ([(x, y, w + 2.0 * d, h + d)] for d in (1e-9, -1e-9))
            assert self.verdicts(tx, rx, spec, grown)[1][0], b  # tangent within 1 nm
            assert not self.verdicts(tx, rx, spec, shrunk)[1][0], b
        assert got.shape == (len(boxes),)

    def test_vertical_link_beside_a_wall(self):
        # the zone of a vertical link is a thin upright ellipsoid; it reaches
        # a wall its transverse semi-axis away, and not one twice as far
        tx, rx = np.array([0.0, 0.0, 80.0]), np.array([0.0, 0.0, 2.0])
        transverse, _ = fresnel_axes(SPEC28, 78.0)
        for gap, want in ((0.5 * transverse, True), (2.0 * transverse, False)):
            got, oracle = self.verdicts(tx, rx, SPEC28, [(10.0 + gap, 0.0, 20.0, 40.0)])
            assert got.tolist() == oracle.tolist() == [want], gap

    def test_zone_inside_a_box(self):
        # both terminals in one box: the solid box blocks, and the floorless
        # mesh has no triangle in the zone
        tx, rx = np.array([0.0, 0.0, 30.0]), np.array([20.0, 5.0, 10.0])
        got, oracle = self.verdicts(tx, rx, SPEC28, [(10.0, 0.0, 60.0, 50.0)])
        assert got.tolist() == [True] and oracle.tolist() == [False]


class TestSubseed:
    def test_stream_is_deterministic_and_spread_out(self):
        a = [_subseed(42, i) for i in range(100)]
        b = [_subseed(42, i) for i in range(100)]
        assert a == b
        assert len(set(a)) == 100
        assert _subseed(43, 0) != _subseed(42, 0)
