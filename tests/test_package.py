"""The package namespace and ``noisy_euler.__all__`` agree."""

import types

import noisy_euler


def test_public_surface_is_consistent():
    """Every name in __all__ resolves and is listed once, every public
    non-module name the package binds is listed, and a star import works, so
    a half-finished removal or addition fails here."""
    listed = noisy_euler.__all__
    assert len(listed) == len(set(listed))
    assert [name for name in listed if not hasattr(noisy_euler, name)] == []
    bound = {name for name, value in vars(noisy_euler).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound - set(listed) == set()
    namespace = {}
    exec("from noisy_euler import *", namespace)
    assert set(listed) <= namespace.keys()
