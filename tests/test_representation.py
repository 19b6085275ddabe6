"""Rank vectors, binned densities, and the shared grid."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rwclust import (
    BinnedDensity,
    BinningConfig,
    BinningRangeError,
    NonParamRepresentation,
    ParameterError,
    RankVector,
    ValidationError,
    empirical_margin,
    rank_function,
    represent,
    shared_grid,
)

from rwclust.representation import MAX_BINS

from conftest import make_increment_panel, make_level_panel


def predicate_ranks(x, sigma=None):
    """Oracle: count, for each i, the k satisfying the tie-broken ordering predicate."""
    m = len(x)
    sigma = list(range(1, m + 1)) if sigma is None else list(sigma)
    out = []
    for i in range(m):
        c = 0
        for k in range(m):
            if x[k] < x[i] or (x[k] == x[i] and sigma[k] <= sigma[i]):
                c += 1
        out.append(c)
    return out


# ---------------------------------------------------------------------------
# rank_function
# ---------------------------------------------------------------------------

def test_rank_tie_goes_to_earlier_arrival():
    x = [2.0, 5.0, 2.0]
    assert predicate_ranks(x) == [1, 3, 2]  # oracle agrees with the frozen value
    assert rank_function(x).ranks.tolist() == [1, 3, 2]


def test_rank_sorted_input():
    assert rank_function([1.0, 2.0, 3.0, 4.0]).ranks.tolist() == [1, 2, 3, 4]


def test_rank_constant_input():
    x = [7.0, 7.0, 7.0]
    assert predicate_ranks(x) == [1, 2, 3]
    assert rank_function(x).ranks.tolist() == [1, 2, 3]


def test_rank_explicit_tie_order():
    x = [7.0, 7.0, 7.0]
    sigma = [2, 3, 1]
    assert predicate_ranks(x, sigma) == [2, 3, 1]
    assert rank_function(x, tie_order=sigma).ranks.tolist() == [2, 3, 1]


def test_rank_mixed_ties_against_oracle(rng):
    for _ in range(20):
        x = rng.integers(0, 5, size=12).astype(float)  # plenty of ties
        sigma = rng.permutation(12) + 1
        assert rank_function(x, tie_order=sigma).ranks.tolist() == predicate_ranks(x, sigma)


def test_rank_distinct_values_match_sorted_position(rng):
    x = rng.standard_normal(8)
    expected = [1 + sorted(x).index(v) for v in x]
    assert rank_function(x).ranks.tolist() == expected


def test_rank_rejects_bad_tie_order():
    with pytest.raises(ValidationError):
        rank_function([1.0, 2.0, 3.0], tie_order=[1, 1, 2])
    with pytest.raises(ValidationError):
        rank_function([1.0, 2.0, 3.0], tie_order=[0, 1, 2])


def test_rank_rejects_short_input():
    with pytest.raises(ValidationError):
        rank_function([1.0])


@given(st.lists(st.integers(-3, 3), min_size=2, max_size=30))
@settings(max_examples=200, deadline=None)
def test_rank_is_bijection(xs):
    r = rank_function([float(v) for v in xs]).ranks
    assert sorted(r.tolist()) == list(range(1, len(xs) + 1))


@given(st.lists(st.integers(-3, 3), min_size=2, max_size=30))
@settings(max_examples=200, deadline=None)
def test_rank_matches_predicate_oracle(xs):
    x = [float(v) for v in xs]
    assert rank_function(x).ranks.tolist() == predicate_ranks(x)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=25, unique=True))
@settings(max_examples=100, deadline=None)
def test_rank_preserves_strict_order(xs):
    r = rank_function(xs).ranks
    for i in range(len(xs)):
        for j in range(len(xs)):
            if xs[i] < xs[j]:
                assert r[i] < r[j]


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=25))
@settings(max_examples=100, deadline=None)
def test_rank_invariant_under_exact_scaling(xs):
    # x -> 4x shifts the exponent only, so it is strictly increasing even in
    # floating point; ranks must not move
    before = rank_function(xs).ranks
    after = rank_function(4.0 * np.asarray(xs)).ranks
    assert np.array_equal(before, after)


@given(st.lists(st.floats(-5, 5), min_size=2, max_size=25))
@settings(max_examples=100, deadline=None)
def test_rank_invariant_under_increasing_map(xs):
    # exp is strictly increasing, but its float evaluation can collapse
    # near-equal inputs into ties; skip those collisions
    y = np.exp(np.asarray(xs))
    assume(len(np.unique(y)) == len(np.unique(np.asarray(xs))))
    before = rank_function(xs).ranks
    after = rank_function(y).ranks
    assert np.array_equal(before, after)


# ---------------------------------------------------------------------------
# empirical_margin
# ---------------------------------------------------------------------------

def test_margin_basic_counting():
    d = empirical_margin([0.1, 0.9, 1.5], origin=0.0, width=1.0, bin_count=2)
    assert np.allclose(d.masses, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)
    assert d.grid() == (0.0, 1.0, 2)


def test_margin_single_occupied_bin():
    d = empirical_margin([2.2, 2.4, 2.9], origin=0.0, width=1.0, bin_count=4)
    assert d.masses.tolist() == [0.0, 0.0, 1.0, 0.0]


def test_margin_uniform_two_per_bin():
    x = [0.5, 0.6, 1.5, 1.6, 2.5, 2.6, 3.5, 3.6]
    d = empirical_margin(x, origin=0.0, width=1.0, bin_count=4)
    assert d.masses.tolist() == [0.25, 0.25, 0.25, 0.25]


def test_margin_left_edge_belongs_to_bin():
    d = empirical_margin([0.0, 1.0], origin=0.0, width=1.0, bin_count=2)
    assert d.masses.tolist() == [0.5, 0.5]


def test_margin_out_of_range():
    with pytest.raises(BinningRangeError):
        empirical_margin([-0.1, 0.5], origin=0.0, width=1.0, bin_count=2)
    with pytest.raises(BinningRangeError):
        empirical_margin([0.5, 2.0], origin=0.0, width=1.0, bin_count=2)  # right edge excluded


def test_margin_parameter_checks():
    with pytest.raises(ParameterError):
        empirical_margin([0.5], origin=0.0, width=0.0, bin_count=2)
    with pytest.raises(ParameterError):
        empirical_margin([0.5], origin=0.0, width=1.0, bin_count=0)


@given(
    st.lists(st.floats(0.0, 9.999), min_size=1, max_size=60),
    st.integers(1, 12),
)
@settings(max_examples=100, deadline=None)
def test_margin_masses_sum_to_one(xs, bins):
    d = empirical_margin(xs, origin=0.0, width=10.0 / bins, bin_count=bins)
    assert abs(d.masses.sum() - 1.0) <= 1e-12
    assert (d.masses >= 0).all()


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
    empirical_margin(xs, origin, width, count)


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


# ---------------------------------------------------------------------------
# value objects and represent()
# ---------------------------------------------------------------------------

def test_rank_vector_validation():
    with pytest.raises(ValidationError):
        RankVector(ranks=np.array([1, 2, 2]))
    with pytest.raises(ValidationError):
        RankVector(ranks=np.array([0, 1, 2]))


def test_density_validation():
    with pytest.raises(ValidationError):
        BinnedDensity(origin=0.0, width=1.0, masses=np.array([0.5, 0.4]))
    with pytest.raises(ValidationError):
        BinnedDensity(origin=0.0, width=-1.0, masses=np.array([1.0]))
    with pytest.raises(ValidationError):
        BinnedDensity(origin=0.0, width=1.0, masses=np.array([1.5, -0.5]))


def test_value_objects_freeze_caller_arrays():
    # arrays of the stored dtype are kept, not copied, and made read-only
    levels, values = np.array([[0.0, 0.3, 0.1]]), np.array([[0.3, -0.2, 0.8]])
    ranks, masses = np.array([[3, 1, 2], [1, 3, 2]]), np.array([[0.5, 0.5], [1.0, 0.0]])
    row_ranks, row_masses = ranks[0], masses[1]
    rep = NonParamRepresentation(ids=("a", "b"), ranks=ranks, masses=masses, origin=0.0, width=1.0)
    for stored, given_array in [
        (make_level_panel(levels).values, levels),
        (make_increment_panel(values).values, values),
        (RankVector(ranks=row_ranks).ranks, row_ranks),
        (BinnedDensity(origin=0.0, width=1.0, masses=row_masses).masses, row_masses),
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
    origin, width, count = rep.grid
    assert count >= 12
    assert all(rep.series(i).density.grid() == (origin, width, count) for i in range(5))
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
        assert np.array_equal(rep.ranks[i], rank_function(x[i]).ranks)
        margin = empirical_margin(x[i], *rep.grid)
        assert margin.masses.tobytes() == rep.masses[i].tobytes()


def test_representation_validates_matrices():
    ok = dict(ids=("x", "y"), ranks=[[1, 2, 3], [3, 1, 2]], masses=[[0.5, 0.5], [1.0, 0.0]],
              origin=0.0, width=1.0)
    rep = NonParamRepresentation(**ok)
    assert (rep.n_series, rep.m, rep.grid) == (2, 3, (0.0, 1.0, 2))
    assert rep.series(1).ranks.ranks.tolist() == [3, 1, 2]
    bad = [
        dict(ids=("x",)),  # ids and rows disagree
        dict(ranks=[[1, 2, 2], [3, 1, 2]]),  # repeated rank
        dict(ranks=[[0, 1, 2], [3, 1, 2]]),  # rank out of 1..M
        dict(ranks=[[1], [1]]),  # M < 2
        dict(masses=[[1.5, -0.5], [1.0, 0.0]]),  # negative mass
        dict(masses=[[0.5, 0.4], [1.0, 0.0]]),  # row does not sum to 1
        dict(width=0.0),
        dict(origin=float("nan")),
    ]
    for change in bad:
        with pytest.raises(ValidationError):
            NonParamRepresentation(**{**ok, **change})
