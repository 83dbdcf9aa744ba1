"""The package's declared public surface matches what it defines, and no
module imports a name it never uses."""

import ast
import importlib
import pathlib
import types

import a2glos

SRC = pathlib.Path(a2glos.__file__).parent


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(a2glos).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    declared = set(a2glos.__all__) - {"__version__"}
    assert len(declared) == len(a2glos.__all__) - 1  # no name twice
    assert declared == public


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from a2glos import *", namespace)
    del namespace["__builtins__"]
    assert list(namespace) == a2glos.__all__
    assert "__version__" in namespace
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]


def unused_imports(source: str, exported=()) -> list[str]:
    """Names a module imports and never reads, as 'line: name'. A name in
    ``exported`` counts as read, and so does every name of an import whose
    first line carries '# noqa: F401'."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(exported)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{node.lineno}: {name}")
    return unused


def test_import_check_flags_an_unused_name():
    source = "from pathlib import Path\nfrom typing import IO, Sequence\nx: Sequence = ()\n"
    assert unused_imports(source) == ["1: Path", "2: IO"]
    assert unused_imports("import os.path  # noqa: F401\n") == []
    assert unused_imports("import numpy as np\n", exported=["np"]) == []


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        name = "a2glos" if path.stem == "__init__" else f"a2glos.{path.stem}"
        exported = getattr(importlib.import_module(name), "__all__", ())
        found = unused_imports(path.read_text(), exported)
        if found:
            unused[path.name] = found
    assert unused == {}


def test_no_reference_oracle_imports_a_name_it_never_uses():
    oracles = sorted(pathlib.Path(__file__).parent.glob("*_reference.py"))
    assert oracles
    unused = {path.name: found for path in oracles if (found := unused_imports(path.read_text()))}
    assert unused == {}
