"""Shared fixtures and panel-building helpers for the test suite."""
from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from rwclust import BinningConfig, IncrementPanel, SeriesPanel, clustering, distance, representation


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


def blends_over(d1sq, d0sq, thetas) -> list:
    """The blends `distance._blends` yields at `thetas` when its rank and
    Hellinger kernels return `d1sq` and `d0sq`, which may be any arrays of
    one shape. A part no theta weights is never asked for, so it enters as
    the scalar 0.0; the last blend is written over the parts it was given."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]])  # feeds only the grid, ranks and masses
    with mock.patch.object(distance, "_d1sq", lambda ranks, norm: d1sq), \
            mock.patch.object(distance, "_d0sq", lambda masses, threads: d0sq):
        walk = distance._blends(x, BinningConfig(), lambda: representation._order(x),
                                tuple(thetas), False, 1)
        next(walk)
        return list(walk)
