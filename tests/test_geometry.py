import math

import numpy as np
import pytest

from a2glos.geometry import (
    SPEED_OF_LIGHT,
    FresnelSpec,
    LinkGeometry,
    allowed_height,
    fresnel_axes,
    fresnel_radius_at,
    wavelength_from_frequency,
)


def eq11_inner(h_tx, h_rx, d_rx, lam, d_los, order=1):
    """Independent form of the clearance limit: gradient term minus the
    transverse-reach term over the slant length."""
    dh = h_tx - h_rx
    reach = min(d_los, d_rx - d_los)
    return h_tx - d_los * dh / d_rx - math.sqrt(order * lam * d_rx) * reach / math.hypot(d_rx, dh)


class TestWavelength:
    def test_definition_of_c(self):
        assert wavelength_from_frequency(SPEED_OF_LIGHT) == 1.0

    def test_common_carriers(self):
        assert wavelength_from_frequency(6e9) == pytest.approx(0.04996540966666667, rel=1e-15)
        assert wavelength_from_frequency(28e9) == pytest.approx(0.0107068735, rel=1e-15)

    @pytest.mark.parametrize("frequency", [0.0, -1e9, math.inf, math.nan])
    def test_rejects_nonpositive(self, frequency):
        with pytest.raises(ValueError, match="frequency must be > 0 and finite"):
            wavelength_from_frequency(frequency)


class TestLinkGeometry:
    def test_delta_h(self):
        assert LinkGeometry(70.0, 1.5, 500.0).delta_h == 68.5

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(h_tx=0.0, h_rx=0.0, d_rx=10.0), "h_tx"),
            (dict(h_tx=10.0, h_rx=-1.0, d_rx=10.0), "h_rx"),
            (dict(h_tx=10.0, h_rx=1.0, d_rx=0.0), "d_rx"),
            (dict(h_tx=5.0, h_rx=6.0, d_rx=10.0), "h_tx"),  # TX below RX
            (dict(h_tx=10.0, h_rx=math.nan, d_rx=10.0), "h_rx"),
            (dict(h_tx=math.nan, h_rx=1.0, d_rx=10.0), "h_tx"),
            (dict(h_tx=70.0, h_rx=1.5, d_rx=math.inf), "d_rx"),
            (dict(h_tx=70.0, h_rx=1.5, d_rx=math.nan), "d_rx"),
        ],
    )
    def test_rejects_bad_links(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            LinkGeometry(**kwargs)

    def test_equal_heights_allowed(self):
        LinkGeometry(2.0, 2.0, 100.0)


class TestFresnelSpec:
    def test_zero_wavelength_is_the_degenerate_limit(self):
        assert FresnelSpec(0.0).wavelength == 0.0

    @pytest.mark.parametrize("wavelength, order, field", [
        (-0.1, 1, "wavelength"),
        (math.inf, 1, "wavelength"),
        (math.nan, 1, "wavelength"),
        (0.05, 0, "order"),
        (0.05, 1.5, "order"),
        (0.01, math.inf, "order"),
        (0.01, math.nan, "order"),
    ])
    def test_rejects_negative_wavelength_and_bad_order(self, wavelength, order, field):
        with pytest.raises(ValueError, match=f"{field} must be"):
            FresnelSpec(wavelength, order=order)


class TestFresnelAxes:
    def test_reference_case(self):
        transverse, along = fresnel_axes(FresnelSpec(0.05), 1000.0)
        assert type(transverse) is float and type(along) is float
        assert transverse == pytest.approx(3.5355339059327378, rel=1e-12)
        assert along == pytest.approx(500.0124998437539, rel=1e-12)

    def test_order_four_doubles_the_transverse_axis(self):
        base, _ = fresnel_axes(FresnelSpec(0.05, order=1), 777.0)
        wide, _ = fresnel_axes(FresnelSpec(0.05, order=4), 777.0)
        assert wide == pytest.approx(2.0 * base, rel=1e-12)

    def test_zero_wavelength_collapses_to_the_segment(self):
        assert fresnel_axes(FresnelSpec(0.0), 800.0) == (0.0, 400.0)

    def test_shape_invariants_random(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            lam = rng.uniform(1e-4, 0.5)
            n = int(rng.integers(1, 5))
            d = rng.uniform(n * lam, 5000.0)
            transverse, along = fresnel_axes(FresnelSpec(lam, order=n), d)
            assert along >= transverse

    @pytest.mark.parametrize("spec", [FresnelSpec(0.0107), FresnelSpec(0.125, order=3),
                                      FresnelSpec(0.0)])
    def test_array_equals_the_scalar_calls_bit_for_bit(self, spec):
        rng = np.random.default_rng(5)
        d = np.concatenate([rng.uniform(1e-3, 5000.0, 500), [1e-300, 1.0, 2.0, 1e12]])
        transverse, along = fresnel_axes(spec, d.reshape(4, -1))
        assert transverse.shape == along.shape == (4, 126)
        want = np.array([fresnel_axes(spec, x) for x in d.tolist()])
        assert transverse.ravel().tobytes() == want[:, 0].tobytes()
        assert along.ravel().tobytes() == want[:, 1].tobytes()
        # the scalar formula of math.sqrt, in the same order of operations
        n_lambda = spec.order * spec.wavelength
        by_math = [[math.sqrt(n_lambda * x) / 2.0, math.sqrt(n_lambda * x / 4.0 + x * x / 4.0)]
                   for x in d.tolist()]
        assert want.tolist() == by_math

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.0, math.nan])
    def test_rejects_a_non_positive_length_anywhere(self, bad):
        for d in (bad, [100.0, bad, 300.0], [[100.0, 200.0], [300.0, bad]]):
            with pytest.raises(ValueError, match="link length must be > 0"):
                fresnel_axes(FresnelSpec(0.05), d)


class TestFresnelRadius:
    def test_reference_value(self):
        spec = FresnelSpec(0.05)
        assert fresnel_radius_at(spec, 1000.0, 250.0) == pytest.approx(
            1.767766952966369, rel=1e-12
        )

    def test_closes_at_terminals_and_peaks_at_midpoint(self):
        spec = FresnelSpec(0.05)
        assert fresnel_radius_at(spec, 1000.0, 0.0) == 0.0
        assert fresnel_radius_at(spec, 1000.0, 1000.0) == 0.0
        mid = fresnel_radius_at(spec, 1000.0, 500.0)
        assert mid == pytest.approx(math.sqrt(0.05 * 1000.0) / 2.0, rel=1e-12)
        samples = np.linspace(0.0, 1000.0, 501)
        values = [fresnel_radius_at(spec, 1000.0, x) for x in samples]
        assert max(values) <= mid + 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        spec = FresnelSpec(0.11, order=2)
        for _ in range(300):
            d = rng.uniform(1.0, 4000.0)
            x = rng.uniform(0.0, d)
            assert fresnel_radius_at(spec, d, x) == pytest.approx(
                fresnel_radius_at(spec, d, d - x), rel=1e-12, abs=1e-15
            )

    def test_domain_errors(self):
        spec = FresnelSpec(0.05)
        with pytest.raises(ValueError):
            fresnel_radius_at(spec, 100.0, -1.0)
        with pytest.raises(ValueError):
            fresnel_radius_at(spec, 100.0, 101.0)


class TestAllowedHeight:
    def test_zero_wavelength_is_linear_interpolation(self):
        link = LinkGeometry(70.0, 1.5, 1000.0)
        spec = FresnelSpec(0.0)
        assert allowed_height(link, spec, 0.0) == link.h_tx
        assert allowed_height(link, spec, 500.0) == pytest.approx(
            (70.0 + 1.5) / 2.0, rel=1e-15
        )
        for x in np.linspace(0.0, 1000.0, 41):
            expect = 70.0 - x * 68.5 / 1000.0
            assert allowed_height(link, spec, x) == pytest.approx(expect, rel=1e-15)

    def test_matches_direct_clearance_formula(self):
        link = LinkGeometry(70.0, 1.5, 1000.0)
        value = allowed_height(link, FresnelSpec(0.05), 500.0)
        assert value == pytest.approx(32.222731821256176, rel=1e-12)
        assert value == pytest.approx(eq11_inner(70.0, 1.5, 1000.0, 0.05, 500.0), rel=1e-12)

    def test_agreement_with_direct_formula_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            h_rx = rng.uniform(0.0, 30.0)
            h_tx = h_rx + rng.uniform(0.1, 1500.0)
            d = rng.uniform(1.0, 5000.0)
            lam = rng.uniform(1e-4, 0.3)
            x = rng.uniform(0.0, d)
            link = LinkGeometry(h_tx, h_rx, d)
            a = allowed_height(link, FresnelSpec(lam), x)
            b = eq11_inner(h_tx, h_rx, d, lam, x)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))

    def test_domain_error(self):
        link = LinkGeometry(70.0, 1.5, 1000.0)
        with pytest.raises(ValueError):
            allowed_height(link, FresnelSpec(0.05), 1000.1)
