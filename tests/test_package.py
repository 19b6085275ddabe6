"""The package namespace."""
from __future__ import annotations

import types

import rwclust


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(rwclust).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(rwclust.__all__) == len(set(rwclust.__all__))
    assert set(rwclust.__all__) == public
