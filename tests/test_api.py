"""The package's public surface: ``meantype.__all__``."""

import types

import pytest

import meantype


def test_all_names_resolve():
    for name in meantype.__all__:
        assert hasattr(meantype, name), name


def test_all_lists_every_public_non_module_name():
    # dir(), not vars(): the names of ``decompose`` are bound on first use
    public = {name for name in dir(meantype)
              if not name.startswith("_")
              and not isinstance(getattr(meantype, name), types.ModuleType)}
    assert sorted(meantype.__all__) == sorted(public)
    assert len(meantype.__all__) == len(set(meantype.__all__))


def test_names_loaded_on_first_use_are_those_of_decompose():
    lazy = sorted(set(meantype.__all__) - set(vars(meantype)))
    assert lazy == sorted(name for name in meantype.__all__
                          if getattr(meantype, name).__module__ == "meantype.decompose")
    for name in lazy:
        assert getattr(meantype, name) is getattr(meantype.decompose, name), name
    assert "decompose" in dir(meantype)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        meantype.no_such_name
