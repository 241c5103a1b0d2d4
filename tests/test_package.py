"""The package's export list: the names ``from promptshap import *`` gives."""

import pytest

import promptshap


def test_the_export_list_is_sorted_unique_and_resolves():
    names = promptshap.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(promptshap, name)] == []


def test_a_star_import_binds_every_export_and_dir_lists_them():
    namespace = {}
    exec("from promptshap import *", namespace)
    assert [name for name in promptshap.__all__ if name not in namespace] == []
    assert set(promptshap.__all__) <= set(dir(promptshap))


def test_a_name_outside_the_exports_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'shapley_exactt'"):
        promptshap.shapley_exactt
