"""Shared fixtures and panel-building helpers for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from rwclust import IncrementPanel, SeriesPanel


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_increment_panel(values, ids=None) -> IncrementPanel:
    values = np.asarray(values, dtype=float)
    if ids is None:
        ids = tuple(f"s{i}" for i in range(values.shape[0]))
    return IncrementPanel(ids=tuple(ids), values=values)


def make_level_panel(values, ids=None, index=None) -> SeriesPanel:
    values = np.asarray(values, dtype=float)
    if ids is None:
        ids = tuple(f"s{i}" for i in range(values.shape[0]))
    if index is None:
        index = tuple(f"t{j:04d}" for j in range(values.shape[1]))
    return SeriesPanel(ids=tuple(ids), index=tuple(index), values=values)


def write_csv(path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def count_stable_sorts(monkeypatch) -> list:
    """Patch np.argsort to record the shape of every stable sort, and return
    the list that collects them."""
    stable_sorts = []
    np_argsort = np.argsort

    def argsort(a, *args, **kwargs):
        if kwargs.get("kind") == "stable":
            stable_sorts.append(np.shape(a))
        return np_argsort(a, *args, **kwargs)
    monkeypatch.setattr(np, "argsort", argsort)
    return stable_sorts
