"""The package surface the benchmark reads must stay in place.

``perfbench/tracing.py`` patches ``(module, attribute)`` pairs by name, and
``perfbench/workloads.py`` checks outputs against the package's own blockage
tests and scene fields; a refactor that drops or renames one would break
``perfbench/run.py`` without failing any other test.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    tracing = load("tracing")
    importlib.import_module("a2glos.cli")
    package = sys.modules["a2glos"]
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.WRAPS
        if not callable(getattr(getattr(package, module, None), attr, None))
    ]
    assert tracing.WRAPS and not missing


@pytest.mark.parametrize("workload", ["MonteCarlo", "MonteCarloLow"])
def test_blockage_check_finds_no_problems(tmp_path, monkeypatch, workload):
    # the grid layout, and the uniform one, whose buildings may hold the TX
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports the benchmark's oracle
    workloads = load("workloads")
    package = importlib.import_module("a2glos")
    assert getattr(workloads, workload)(9901, tmp_path)._check_blockage(package) == []


def test_approx_does_not_import_fit():
    # the package's __init__ imports every module, so load approx without it
    code = (
        "import importlib.util, sys, types\n"
        "spec = importlib.util.find_spec('a2glos')\n"
        "package = types.ModuleType('a2glos')\n"
        "package.__path__ = list(spec.submodule_search_locations)\n"
        "sys.modules['a2glos'] = package\n"
        "import a2glos.approx\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('a2glos.'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env=env)
    assert result.stdout.split() == ["a2glos.approx", "a2glos.environment"]
