"""Shared fixtures and panel-building helpers for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from rwclust import IncrementPanel, SeriesPanel, clustering, distance, representation


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
    """Patch `_order`, the stable sort of a panel's rows, wherever rwclust
    imports it, to record the shape of every panel it sorts, and return the
    list that collects them. `_order` sorts in row blocks, so the shapes of
    its own argsort calls would not tell how often a panel is sorted."""
    stable_sorts = []
    order = representation._order

    def counted(x):
        stable_sorts.append(np.shape(x))
        return order(x)
    for module in (representation, clustering, distance):
        monkeypatch.setattr(module, "_order", counted)
    return stable_sorts
