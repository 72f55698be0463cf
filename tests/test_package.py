"""The package's export list matches what ``fracbessel/__init__.py`` binds."""

import types

import fracbessel


def test_all_resolves_without_duplicates():
    assert len(fracbessel.__all__) == len(set(fracbessel.__all__))
    for name in fracbessel.__all__:
        assert hasattr(fracbessel, name), name


def test_every_public_name_is_listed():
    public = {
        name
        for name, obj in vars(fracbessel).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == set(fracbessel.__all__)
