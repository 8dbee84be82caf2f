"""The package's public surface: ``__all__`` and star import."""

import trirefine


def test_all_lists_each_name_once():
    assert len(trirefine.__all__) == len(set(trirefine.__all__))


def test_every_listed_name_resolves():
    missing = [name for name in trirefine.__all__ if not hasattr(trirefine, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from trirefine import *", namespace)
    assert set(trirefine.__all__) <= set(namespace)
