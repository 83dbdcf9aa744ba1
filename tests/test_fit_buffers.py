"""The buffered (D1, D2) solver against the whole-stack reference.

``fit_reference.fit_parametric_curve`` scanned D2 over every curve at once,
kept every chunk's result and refined all curves together.
``a2glos.fit.fit_parametric_curve`` streams the scan and refines in row
blocks, in buffers allocated once per call. It must return the same d1, d2
and sse byte for byte, and hold far less memory at once.
"""

import tracemalloc

import numpy as np
import pytest

import fit_reference as reference
from a2glos import fit
from a2glos.analytic import p_los_curve
from a2glos.environment import get_scenario
from a2glos.fit import default_d_grid, default_delta_h_grid, fit_parametric_curve
from a2glos.geometry import FresnelSpec, wavelength_from_frequency

PRESETS = ("urban", "suburban", "dense-urban", "high-rise")
WAVELENGTHS = {
    "2.4GHz": wavelength_from_frequency(2.4e9),
    "28GHz": wavelength_from_frequency(28e9),
    "f-inf": 0.0,
}


def default_stack(preset, wavelength):
    """The default distance grid and the 98 curves of the default height grid."""
    d, dhs = default_d_grid(), default_delta_h_grid()
    return d, p_los_curve(1.5 + dhs[:, None], 1.5, d, get_scenario(preset).env, FresnelSpec(wavelength))


def as_bytes(result):
    return [np.asarray(v).tobytes() for v in result]


def assert_matches_reference(d, curves):
    assert as_bytes(fit_parametric_curve(d, curves)) == as_bytes(reference.fit_parametric_curve(d, curves))


@pytest.mark.parametrize("wavelength", WAVELENGTHS.values(), ids=WAVELENGTHS.keys())
@pytest.mark.parametrize("preset", PRESETS)
def test_default_stacks(preset, wavelength):
    assert_matches_reference(*default_stack(preset, wavelength))


def test_one_curve():
    d, curves = default_stack("urban", WAVELENGTHS["2.4GHz"])
    got = fit_parametric_curve(d, curves[45])
    assert all(isinstance(v, float) for v in got)
    assert got == reference.fit_parametric_curve(d, curves[45])


def edge_stack():
    """Five curves on a coarser grid with d = 0: rugged profiles at 2.4 GHz
    (urban 478.5 m, suburban 458.5 m), urban 888.5 m at 28 GHz, a suburban
    curve whose SSE falls to the end of the scan (588.5 m), and P = 1."""
    d = np.concatenate(([0.0], default_d_grid()[::2]))
    picks = [("urban", "2.4GHz", 478.5), ("suburban", "2.4GHz", 458.5), ("urban", "28GHz", 888.5),
             ("suburban", "28GHz", 588.5)]
    curves = [p_los_curve(1.5 + dh, 1.5, d, get_scenario(preset).env, FresnelSpec(WAVELENGTHS[f]))
              for preset, f, dh in picks]
    return d, np.array(curves + [np.ones(d.size)])


class TestAcrossBlockEdges:
    """Scan chunks of one D2 value, of 7 (the last one short) and of more than
    the whole scan, each with refinement blocks of one curve, of 3 (the last
    one short), of every curve and of more than every curve."""

    @pytest.fixture(scope="class")
    def stack_and_reference(self):
        d, curves = edge_stack()
        return d, curves, as_bytes(reference.fit_parametric_curve(d, curves))

    @pytest.mark.parametrize("rows", [1, 3, 5, 6])
    @pytest.mark.parametrize("chunk", [1, 7, fit._D2_SCAN.size + 1])
    def test_chunk_and_block_sizes(self, monkeypatch, stack_and_reference, chunk, rows):
        d, curves, want = stack_and_reference
        assert len(curves) == 5
        monkeypatch.setattr(fit, "_D2_CHUNK", chunk)
        monkeypatch.setattr(fit, "_REFINE_ROWS", rows)
        assert as_bytes(fit_parametric_curve(d, curves)) == want


def test_memory_peak_is_bounded():
    # The whole-stack solver held 18.9 MB at once here: a refinement pass
    # over all 98 x 17 x 101 values and two (98, 2300) scan results.
    d, curves = default_stack("urban", WAVELENGTHS["28GHz"])
    assert curves.shape == (98, 101)
    fit_parametric_curve(d, curves[:2])  # first-call allocations
    tracemalloc.start()
    try:
        fit_parametric_curve(d, curves)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
