"""The package namespace: an explicit, resolvable public API."""

import types

import dgac


def test_all_lists_resolvable_public_names():
    names = dgac.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not name.startswith("_")
        obj = getattr(dgac, name)
        assert not isinstance(obj, types.ModuleType), name
