"""The package's public surface: ``meantype.__all__``."""

import types

import meantype


def test_all_names_resolve():
    for name in meantype.__all__:
        assert hasattr(meantype, name), name


def test_all_lists_every_public_non_module_name():
    public = {name for name, value in vars(meantype).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(meantype.__all__) == sorted(public)
    assert len(meantype.__all__) == len(set(meantype.__all__))
