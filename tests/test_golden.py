"""Seeded Monte-Carlo and scene outputs against committed files, byte for byte.

The files under ``tests/golden`` were written while the estimator still
culled one azimuth at a time, built every scene from ``Building`` objects
and ran its realizations in a thread pool. The estimator's verdicts and
the scene writers must reproduce them exactly.
"""

from pathlib import Path

import pytest

from a2glos.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "urban-grid-htx500-f28": ["--scenario", "urban", "--htx", "500", "--f-ghz", "28"],
    "high-rise-uniform-htx60-f28": ["--scenario", "high-rise", "--layout", "uniform",
                                    "--htx", "60", "--f-ghz", "28"],
    "high-rise-uniform-htx60-finf": ["--scenario", "high-rise", "--layout", "uniform",
                                     "--htx", "60", "--f-inf"],
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_estimate(tmp_path, command, case):
    out = tmp_path / "out.csv"
    assert main([command, *CASES[case], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{command}-{case}.csv").read_bytes()


def test_scene_command(tmp_path):
    out = tmp_path / "scene.csv"
    assert main(["scene", "--scenario", "urban", "--extent", "600", "--seed", "11",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "scene-urban-grid-extent600-seed11.csv").read_bytes()


def test_dumped_scene(tmp_path):
    dump = tmp_path / "scene.csv"
    assert main(["simulate", "--scenario", "dense-urban", "--layout", "uniform", "--htx", "80",
                 "--d", "100:300:100", "--f-ghz", "2.4", "--realizations", "2",
                 "--dump-scene", str(dump), "--out", str(tmp_path / "sim.csv")]) == 0
    assert dump.read_bytes() == (GOLDEN / "dump-scene-dense-urban-uniform-htx80.csv").read_bytes()
