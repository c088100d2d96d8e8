"""The package's public names."""

import neontrap


def test_every_exported_name_resolves_once():
    names = neontrap.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(neontrap, name)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from neontrap import *", namespace)
    assert set(neontrap.__all__) <= set(namespace)
