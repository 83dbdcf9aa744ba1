"""Every name the benchmark tracer wraps must exist in the package.

``perfbench/tracing.py`` patches ``(module, attribute)`` pairs by name; a
refactor that drops or renames one would break ``perfbench/run.py
--trace 1`` without failing any other test.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_wrapped_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    importlib.import_module("a2glos.cli")
    package = sys.modules["a2glos"]
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.WRAPS
        if not callable(getattr(getattr(package, module, None), attr, None))
    ]
    assert tracing.WRAPS and not missing
