"""The package's export list: the names ``from promptshap import *`` gives."""

import promptshap


def test_the_export_list_is_sorted_unique_and_resolves():
    names = promptshap.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(promptshap, name)] == []
