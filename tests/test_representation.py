"""Ranks, histograms, and the shared grid."""
from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rwclust import (
    BinningConfig,
    BinningRangeError,
    NonParamRepresentation,
    ParameterError,
    ValidationError,
    represent,
    shared_grid,
)

from rwclust import representation
from rwclust.representation import MAX_BINS, _bin_index, _masses, _order, _ranks

from conftest import make_increment_panel, make_level_panel


def predicate_ranks(x):
    """Oracle: count, for each i, the k that come before it with ties going to the earlier one."""
    m = len(x)
    out = []
    for i in range(m):
        c = 0
        for k in range(m):
            if x[k] < x[i] or (x[k] == x[i] and k <= i):
                c += 1
        out.append(c)
    return out


def naive_bin(v, origin, width, bin_count):
    """Oracle: the bin of one value on the half-open grid, with the edge snap written out."""
    q = (v - origin) / width
    k = math.floor(q)
    # a quotient within 16 ulp (relative) below an edge counts to the next bin
    if 1.0 - (q - k) <= 16 * sys.float_info.epsilon * max(abs(q), 1.0):
        k += 1
    return min(k, bin_count - 1)


def naive_masses(x, origin, width, bin_count):
    """Oracle: per-value histogram on the half-open grid, by `naive_bin`."""
    counts = [0] * bin_count
    for v in x:
        counts[naive_bin(v, origin, width, bin_count)] += 1
    return np.array([c / len(x) for c in counts])


def ranks_of(x):
    return represent(make_increment_panel([x])).ranks[0]


def masses_of(rows):
    """Masses of the unit-width representation of `rows`, and its grid."""
    rep = represent(make_increment_panel(rows), BinningConfig(rule="width", width=1.0))
    return rep.masses, rep.grid


# ---------------------------------------------------------------------------
# ranks
# ---------------------------------------------------------------------------

def test_rank_tie_goes_to_earlier_arrival():
    x = [2.0, 5.0, 2.0]
    assert predicate_ranks(x) == [1, 3, 2]  # oracle agrees with the frozen value
    assert ranks_of(x).tolist() == [1, 3, 2]


def test_rank_sorted_input():
    assert ranks_of([1.0, 2.0, 3.0, 4.0]).tolist() == [1, 2, 3, 4]


def test_rank_constant_input():
    x = [7.0, 7.0, 7.0]
    assert predicate_ranks(x) == [1, 2, 3]
    assert ranks_of(x).tolist() == [1, 2, 3]


def test_rank_mixed_ties_against_oracle(rng):
    for _ in range(20):
        x = rng.integers(0, 5, size=12).astype(float)  # plenty of ties
        assert ranks_of(x).tolist() == predicate_ranks(x)


def test_rank_distinct_values_match_sorted_position(rng):
    x = rng.standard_normal(8)
    expected = [1 + sorted(x).index(v) for v in x]
    assert ranks_of(x).tolist() == expected


def test_rank_rejects_short_input():
    with pytest.raises(ValidationError):
        represent(make_increment_panel([[1.0]]))


@given(st.lists(st.integers(-3, 3), min_size=2, max_size=30))
@settings(max_examples=200, deadline=None)
def test_rank_is_bijection(xs):
    r = ranks_of([float(v) for v in xs])
    assert sorted(r.tolist()) == list(range(1, len(xs) + 1))


@given(st.lists(st.integers(-3, 3), min_size=2, max_size=30))
@settings(max_examples=200, deadline=None)
def test_rank_matches_predicate_oracle(xs):
    x = [float(v) for v in xs]
    assert ranks_of(x).tolist() == predicate_ranks(x)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=25, unique=True))
@settings(max_examples=100, deadline=None)
def test_rank_preserves_strict_order(xs):
    r = ranks_of(xs)
    for i in range(len(xs)):
        for j in range(len(xs)):
            if xs[i] < xs[j]:
                assert r[i] < r[j]


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=25))
@settings(max_examples=100, deadline=None)
def test_rank_invariant_under_exact_scaling(xs):
    # x -> 4x shifts the exponent only, so it is strictly increasing even in
    # floating point; ranks must not move
    before = ranks_of(xs)
    after = ranks_of(4.0 * np.asarray(xs))
    assert np.array_equal(before, after)


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=25))
@settings(max_examples=100, deadline=None)
def test_rank_invariant_under_increasing_map(xs):
    # exp is strictly increasing, but its float evaluation can collapse
    # near-equal inputs into ties; skip those collisions
    y = np.exp(np.asarray(xs))
    assume(len(np.unique(y)) == len(np.unique(np.asarray(xs))))
    before = ranks_of(xs)
    after = ranks_of(y)
    assert np.array_equal(before, after)


# ---------------------------------------------------------------------------
# histograms: a second row of zeros puts the grid's origin at 0
# ---------------------------------------------------------------------------

def test_margin_basic_counting():
    masses, grid = masses_of([[0.1, 0.9, 1.5], [0.0, 0.0, 0.0]])
    assert np.allclose(masses[0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    assert grid == (0.0, 1.0, 2)


def test_margin_single_occupied_bin():
    masses, grid = masses_of([[2.2, 2.4, 2.9], [0.0, 0.0, 3.5]])
    assert grid == (0.0, 1.0, 4)
    assert masses[0].tolist() == [0.0, 0.0, 1.0, 0.0]


def test_margin_uniform_two_per_bin():
    x = [0.5, 0.6, 1.5, 1.6, 2.5, 2.6, 3.5, 3.6]
    masses, grid = masses_of([x, [0.0] * 8])
    assert grid == (0.0, 1.0, 4)
    assert masses[0].tolist() == [0.25, 0.25, 0.25, 0.25]


def test_margin_left_edge_belongs_to_bin():
    masses, grid = masses_of([[0.0, 1.0]])
    assert grid == (0.0, 1.0, 2)
    assert masses[0].tolist() == [0.5, 0.5]


def test_margin_out_of_range():
    with pytest.raises(BinningRangeError):
        _bin_index(np.array([-0.1, 0.5]), 0.0, 1.0, 2)
    with pytest.raises(BinningRangeError):
        _bin_index(np.array([0.5, 2.0]), 0.0, 1.0, 2)  # right edge excluded


@pytest.mark.parametrize("cells", [None, 2001], ids=["one-row-blocks", "short-last-block"])
def test_blocked_masses_match_the_oracle_at_block_edges(monkeypatch, cells):
    # M above the cell budget bins one row per block; a budget of two rows of
    # 1000 leaves 7 rows a short last block. Scaled integers sit on, or a
    # rounding error away from, the edges of a grid whose width divides the span
    if cells is None:
        n, m = 3, representation._BLOCK_CELLS + 3
    else:
        n, m = 7, 1000
        monkeypatch.setattr(representation, "_BLOCK_CELLS", cells)
    x = np.random.default_rng(3).integers(-4, 5, size=(n, m)) * 0.1
    grid = shared_grid(x, BinningConfig(bins=8))
    masses = _masses(x, grid)
    for i in range(n):
        assert naive_masses(x[i], *grid).tobytes() == masses[i].tobytes()


@given(
    st.floats(-1e6, 1e6),
    st.floats(1e-3, 1e6),
    st.integers(1, 200),
    st.one_of(st.none(), st.floats(1.0, 200.0)),
)
@settings(max_examples=100, deadline=None)
def test_bin_index_matches_the_oracle_at_and_below_every_edge(lo, span, bins, per_width):
    # a count grid of `bins` bins, or a width grid of span / per_width wide
    # bins, over [lo, lo + span]; every edge, and each of the 32 floats below
    # it, is binned by the snap rule, tested only near edges
    config = (BinningConfig(bins=bins) if per_width is None
              else BinningConfig(rule="width", width=span / per_width))
    origin, width, count = grid = shared_grid([lo, lo + span], config)
    hi = origin + count * width
    values = [origin + k * width for k in range(count + 1)]
    below = values
    for _ in range(32):
        below = [math.nextafter(v, -math.inf) for v in below]
        values += below
    x = np.array([v for v in values if origin <= v < hi])
    assert _bin_index(x, *grid).tolist() == [naive_bin(v, *grid) for v in x.tolist()]


@pytest.mark.parametrize("cells", [1, 2 * 50 + 1], ids=["one-row-blocks", "short-last-block"])
@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_ranks_match_put_along_axis_at_block_edges(monkeypatch, cells, dtype):
    # 7 rows of 50 in blocks of one row, or of two rows with a short last
    # block; the stability pass hands int32 subsample orders, the panel intp
    monkeypatch.setattr(representation, "_BLOCK_CELLS", cells)
    order = np.argsort(np.random.default_rng(9).standard_normal((7, 50)), axis=1)
    want = np.empty((7, 50), dtype=dtype)
    np.put_along_axis(want, order, np.arange(1, 51), axis=1)
    for o in (order, order.astype(np.int32)):
        got = _ranks(o, dtype)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cells", [None, 1], ids=["default-blocks", "one-row-blocks"])
def test_order_is_the_stable_argsort(monkeypatch, cells):
    # tie-free rows take the default argsort and tied rows the stable one;
    # either way each row's order is the stable argsort's, whose ties keep
    # arrival order. -0.0 == 0.0, so a row holding both is tied
    if cells is not None:
        monkeypatch.setattr(representation, "_BLOCK_CELLS", cells)
    rng = np.random.default_rng(5)
    n, m = 40, 500
    distinct = rng.standard_normal((n, m))
    some_tied = distinct.copy()
    some_tied[::3] = np.round(some_tied[::3] * 4)
    every_tied = np.round(distinct * 4)
    signed_zeros = distinct.copy()
    signed_zeros[:, 10], signed_zeros[:, 20] = 0.0, -0.0
    signed_zeros[::2, 10], signed_zeros[::2, 20] = -0.0, 0.0
    for x in (distinct, some_tied, every_tied, signed_zeros):
        got = _order(x)
        assert got.dtype == np.intp
        assert np.array_equal(got, np.argsort(x, axis=1, kind="stable"))
    assert np.array_equal(_order(np.zeros((3, m))), np.tile(np.arange(m), (3, 1)))


def test_blocked_masses_name_the_first_value_off_the_grid(monkeypatch):
    # blocks of two rows; the first value off the grid in x's order lies in
    # the third block, ahead of a later one in the same block
    monkeypatch.setattr(representation, "_BLOCK_CELLS", 8)
    x = np.full((6, 4), 0.5)
    x[4, 1], x[5, 0] = 7.5, -1.0
    with pytest.raises(BinningRangeError) as blocked:
        _masses(x, (0.0, 1.0, 2))
    with pytest.raises(BinningRangeError) as whole:
        _bin_index(x, 0.0, 1.0, 2)
    assert str(blocked.value) == str(whole.value)
    assert "7.5" in str(blocked.value) and "-1.0" not in str(blocked.value)


@given(
    st.lists(st.floats(0.0, 9.999), min_size=2, max_size=60),
    st.integers(1, 12),
)
@settings(max_examples=100, deadline=None)
def test_margin_masses_sum_to_one(xs, bins):
    masses = represent(make_increment_panel([xs]), BinningConfig(bins=bins)).masses[0]
    assert abs(masses.sum() - 1.0) <= 1e-12
    assert (masses >= 0).all()


# ---------------------------------------------------------------------------
# shared_grid
# ---------------------------------------------------------------------------

def test_grid_count_rule_example():
    # pooled range [-3, 3] with 6 requested bins: unit bins starting at -3
    origin, width, count = shared_grid([-3.0, 0.0, 3.0], BinningConfig(rule="count", bins=6))
    assert origin == -3.0
    assert width == 1.0
    assert count >= 6
    assert -3.0 >= origin and 3.0 < origin + count * width


def test_grid_width_rule():
    origin, width, count = shared_grid([0.0, 0.5, 2.2], BinningConfig(rule="width", width=0.5))
    assert (origin, width) == (0.0, 0.5)
    assert 2.2 < origin + count * width


def test_grid_fd_rule(rng):
    v = rng.standard_normal(500)
    origin, width, count = shared_grid(v, BinningConfig(rule="fd"))
    assert origin == v.min()
    assert width > 0
    assert v.max() < origin + count * width


def test_grid_constant_sample():
    origin, width, count = shared_grid([4.0, 4.0], BinningConfig(rule="count", bins=10))
    assert (origin, count) == (4.0, 1)
    assert width > 0


def test_grid_fd_zero_iqr_falls_back():
    v = [1.0] * 50 + [2.0]
    origin, width, count = shared_grid(v, BinningConfig(rule="fd", bins=8))
    assert origin == 1.0
    assert 2.0 < origin + count * width


@given(st.lists(st.floats(-100, 100), min_size=2, max_size=50), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_grid_always_covers_sample(xs, bins):
    origin, width, count = shared_grid(xs, BinningConfig(rule="count", bins=bins))
    x = np.asarray(xs)
    assert (x >= origin).all()
    assert (x < origin + count * width).all()
    # coverage means every series can be binned without a range error
    _bin_index(x, origin, width, count)


@pytest.mark.parametrize("values, binning, grid", [
    # the width 5e-324 / 100 underflows to 0, so the smallest normal float stands in
    ([0.0, 5e-324], BinningConfig(), (0.0, float(np.finfo(float).tiny), 101)),
    # 2 / 100 does not move 1e16, whose float spacing is 2: the width doubles to 0.02 * 2**6
    ([1e16, 1e16 + 2], BinningConfig(), (1e16, 1.28, 101)),
    # 1 + 2 * 0.6 ulp rounds back to the maximum, so the grid takes a third bin
    ([1.0, 1.0 + 2.0**-52], BinningConfig(rule="width", width=0.6 * 2.0**-52),
     (1.0, 0.6 * 2.0**-52, 3)),
], ids=["width-underflows", "width-doubles", "count-grows"])
def test_grid_float_guards(values, binning, grid):
    assert shared_grid(values, binning) == grid
    _bin_index(np.asarray(values), *grid)  # every value lies on the grid


def test_grid_refuses_no_values():
    with pytest.raises(ValidationError, match="no values"):
        shared_grid([], BinningConfig())


def test_grid_refuses_more_than_max_bins():
    v = [-3.0, 0.0, 3.0]
    assert shared_grid(v, BinningConfig(rule="count", bins=MAX_BINS))[2] == MAX_BINS + 1
    with pytest.raises(ParameterError, match="bin count"):
        shared_grid(v, BinningConfig(rule="count", bins=100 * MAX_BINS))
    # widths below the float resolution of the origin, and ones that merely
    # give too many bins, are refused before a count is formed
    for width in (1e-300, 6.0 / (2 * MAX_BINS)):
        with pytest.raises(ParameterError, match="bin width"):
            shared_grid(v, BinningConfig(rule="width", width=width))


def test_binning_config_validation():
    with pytest.raises(ParameterError):
        BinningConfig(rule="magic")
    with pytest.raises(ParameterError):
        BinningConfig(rule="count", bins=0)
    with pytest.raises(ParameterError):
        BinningConfig(rule="width")
    for rule in ("count", "fd"):  # a width the rule would ignore
        with pytest.raises(ParameterError, match="width rule only"):
            BinningConfig(rule=rule, width=0.1)
    # the bin count is an integer, read as operator.index reads it and stored as an int
    for bins in (2.5, np.float64(4.0), "4", True):
        with pytest.raises(ParameterError, match="bin count must be an integer"):
            BinningConfig(bins=bins)
    assert type(BinningConfig(bins=np.int64(4)).bins) is int
    with pytest.raises(ParameterError, match="bin width must be"):
        BinningConfig(rule="width", width="0.1")


def test_bool_bin_width_is_refused():
    # True would pass as the number 1 and build a grid of width 1
    for width in (True, False):
        with pytest.raises(ParameterError, match="bin width must be a finite number"):
            BinningConfig(rule="width", width=width)
    assert BinningConfig(rule="width", width=1).width == 1


# ---------------------------------------------------------------------------
# the panel representation and represent()
# ---------------------------------------------------------------------------

def one_series(ranks=(1, 2), masses=(1.0,), width=1.0):
    return NonParamRepresentation(ids=("a",), ranks=[ranks], masses=[masses],
                                  origin=0.0, width=width)


def test_rank_vector_validation():
    with pytest.raises(ValidationError):
        one_series(ranks=(1, 2, 2))
    with pytest.raises(ValidationError):
        one_series(ranks=(0, 1, 2))


def test_density_validation():
    with pytest.raises(ValidationError):
        one_series(masses=(0.5, 0.4))
    with pytest.raises(ValidationError):
        one_series(width=-1.0)
    with pytest.raises(ValidationError):
        one_series(masses=(1.5, -0.5))


def test_value_objects_freeze_caller_arrays():
    # arrays of the stored dtype are kept, not copied, and made read-only
    levels, values = np.array([[0.0, 0.3, 0.1]]), np.array([[0.3, -0.2, 0.8]])
    ranks, masses = np.array([[3, 1, 2], [1, 3, 2]]), np.array([[0.5, 0.5], [1.0, 0.0]])
    rep = NonParamRepresentation(ids=("a", "b"), ranks=ranks, masses=masses, origin=0.0, width=1.0)
    for stored, given_array in [
        (make_level_panel(levels).values, levels),
        (make_increment_panel(values).values, values),
        (rep.ranks, ranks),
        (rep.masses, masses),
    ]:
        assert stored is given_array and not stored.flags.writeable


def test_represent_single_series():
    rep = represent(make_increment_panel([[0.3, -0.2, 0.8, 0.1]]))
    assert rep.n_series == 1
    assert rep.m == 4
    assert rep.ranks[0].tolist() == [3, 1, 4, 2]
    assert abs(rep.masses[0].sum() - 1.0) <= 1e-12


def test_represent_identical_series_agree(rng):
    row = rng.standard_normal(30)
    rep = represent(make_increment_panel([row, row.copy()]))
    assert np.array_equal(rep.ranks[0], rep.ranks[1])
    assert np.array_equal(rep.masses[0], rep.masses[1])


def test_represent_shares_one_grid(rng):
    rep = represent(make_increment_panel(rng.standard_normal((5, 40))), BinningConfig(bins=12))
    count = rep.grid[2]
    assert count >= 12
    assert rep.ranks.shape == (5, 40)
    assert rep.masses.shape == (5, count)


@given(
    st.integers(1, 5),
    st.integers(2, 20),
    st.data(),
    st.sampled_from([1.0, 0.1, 0.3, 1e-3, 7.0]),
    st.sampled_from([BinningConfig(bins=b) for b in (1, 3, 4, 10)]
                    + [BinningConfig(rule="width", width=w) for w in (0.1, 0.5, 1.0)]
                    + [BinningConfig(rule="fd")]),
)
@settings(max_examples=200, deadline=None)
def test_represent_rows_match_per_series_oracles(n, m, data, scale, binning):
    # small integers give ties, and scaled integers sit on (or a rounding
    # error away from) the edges of grids whose width divides the span
    ints = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=m, max_size=m),
                              min_size=n, max_size=n))
    x = np.asarray(ints, dtype=float) * scale
    rep = represent(make_increment_panel(x), binning)
    for i in range(n):
        assert rep.ranks[i].tolist() == predicate_ranks(x[i])
        assert naive_masses(x[i], *rep.grid).tobytes() == rep.masses[i].tobytes()


def test_representation_validates_matrices():
    ok = dict(ids=("x", "y"), ranks=[[1, 2, 3], [3, 1, 2]], masses=[[0.5, 0.5], [1.0, 0.0]],
              origin=0.0, width=1.0)
    rep = NonParamRepresentation(**ok)
    assert (rep.n_series, rep.m, rep.grid) == (2, 3, (0.0, 1.0, 2))
    assert rep.ranks[1].tolist() == [3, 1, 2]
    bad = [
        dict(ids=("x",)),  # ids and rows disagree
        dict(ranks=[[1, 2, 2], [3, 1, 2]]),  # repeated rank
        dict(ranks=[[0, 1, 2], [3, 1, 2]]),  # rank out of 1..M
        dict(ranks=[[1], [1]]),  # M < 2
        dict(masses=[[1.5, -0.5], [1.0, 0.0]]),  # negative mass
        dict(masses=[[0.5, 0.4], [1.0, 0.0]]),  # row does not sum to 1
        dict(masses=np.zeros((2, 0))),  # no bins
        dict(width=0.0),
        dict(origin=float("nan")),
    ]
    for change in bad:
        with pytest.raises(ValidationError):
            NonParamRepresentation(**{**ok, **change})
