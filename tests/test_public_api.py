"""The package's public surface: `symorder.__all__` and star imports."""

import symorder


def test_all_names_resolve_sorted_and_unique():
    names = symorder.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(symorder, name) is not None, name


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from symorder import *", namespace)
    assert set(symorder.__all__) <= set(namespace)
