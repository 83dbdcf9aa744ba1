"""The package's declared public surface matches what it defines."""

import types

import a2glos


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(a2glos).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    declared = set(a2glos.__all__) - {"__version__"}
    assert len(declared) == len(a2glos.__all__) - 1  # no name twice
    assert declared == public
