"""Blended distance: rank part, histogram part, and the pairwise matrix."""
from __future__ import annotations

import math

import numpy as np
import pytest

from rwclust import (
    BinnedDensity,
    BinningConfig,
    DimensionError,
    DistanceMatrix,
    DistanceParams,
    GridCompatibilityError,
    NonParamRepresentation,
    ParameterError,
    RankVector,
    SeriesRepresentation,
    ValidationError,
    d0_empirical,
    d1_empirical,
    d_theta,
    distance_components,
    distance_matrix,
    rank_function,
    represent,
)
from rwclust import distance
from rwclust.distance import _d1_factor, _rank_sq_sums

from conftest import make_increment_panel


# ---------------------------------------------------------------------------
# oracles: naive loop evaluations of the two squared components
# ---------------------------------------------------------------------------

def naive_d1_sq(rx, ry):
    m = len(rx)
    s = 0.0
    for i in range(m):
        s += (rx[i] - ry[i]) ** 2
    return 3.0 * s / (m * m * (m - 1))


def naive_d0_sq(px, py):
    s = 0.0
    for a, b in zip(px, py):
        s += (math.sqrt(a) - math.sqrt(b)) ** 2
    return 0.5 * s


def rv(seq):
    return RankVector(ranks=np.asarray(seq))


def dens(masses, origin=0.0, width=1.0):
    return BinnedDensity(origin=origin, width=width, masses=np.asarray(masses, dtype=float))


def random_density(rng, bins, origin=0.0, width=1.0):
    v = rng.random(bins) + 1e-3
    return dens(v / v.sum(), origin=origin, width=width)


# ---------------------------------------------------------------------------
# rank distance
# ---------------------------------------------------------------------------

def test_d1_identical_is_zero():
    r = rv([3, 1, 2, 4])
    assert d1_empirical(r, r) == 0.0


def test_d1_reversed_ranks():
    a, b = rv([1, 2, 3, 4]), rv([4, 3, 2, 1])
    assert naive_d1_sq(a.ranks, b.ranks) == 1.25  # oracle confirms the closed form
    assert d1_empirical(a, b) == pytest.approx(math.sqrt(1.25), abs=1e-15)


def test_d1_single_swap():
    a, b = rv([1, 2, 3]), rv([1, 3, 2])
    assert naive_d1_sq(a.ranks, b.ranks) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert d1_empirical(a, b) == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-15)


def test_d1_matches_naive_oracle(rng):
    for _ in range(50):
        m = int(rng.integers(2, 40))
        a, b = rv(rng.permutation(m) + 1), rv(rng.permutation(m) + 1)
        assert d1_empirical(a, b) ** 2 == pytest.approx(
            naive_d1_sq(a.ranks, b.ranks), abs=1e-12
        )


def test_d1_exact_norm_caps_at_one():
    # reversal is the extreme case; the alternative normalization makes it exactly 1
    for m in (2, 3, 5, 8, 20):
        a = rv(np.arange(1, m + 1))
        b = rv(np.arange(m, 0, -1))
        assert d1_empirical(a, b, exact_spearman_norm=True) == pytest.approx(1.0, abs=1e-12)
        # the default normalization exceeds 1 by the (M+1)/M factor
        assert d1_empirical(a, b) ** 2 == pytest.approx((m + 1) / m, abs=1e-12)


def test_d1_symmetry_exact(rng):
    a, b = rv(rng.permutation(17) + 1), rv(rng.permutation(17) + 1)
    assert d1_empirical(a, b) == d1_empirical(b, a)


def test_d1_length_mismatch():
    with pytest.raises(DimensionError):
        d1_empirical(rv([1, 2, 3]), rv([2, 1]))


# ---------------------------------------------------------------------------
# histogram distance
# ---------------------------------------------------------------------------

def test_d0_identical_is_zero():
    d = dens([0.25, 0.75])
    assert d0_empirical(d, d) == 0.0


def test_d0_disjoint_supports():
    assert d0_empirical(dens([1.0, 0.0]), dens([0.0, 1.0])) == 1.0


def test_d0_half_overlap():
    val = d0_empirical(dens([0.5, 0.5]), dens([1.0, 0.0]))
    expected_sq = 1.0 - math.sqrt(0.5)
    assert naive_d0_sq([0.5, 0.5], [1.0, 0.0]) == pytest.approx(expected_sq, abs=1e-15)
    assert val == pytest.approx(math.sqrt(expected_sq), abs=1e-15)


def test_d0_matches_naive_oracle(rng):
    for _ in range(50):
        bins = int(rng.integers(1, 30))
        a, b = random_density(rng, bins), random_density(rng, bins)
        assert d0_empirical(a, b) ** 2 == pytest.approx(
            naive_d0_sq(a.masses, b.masses), abs=1e-12
        )


def test_d0_bounded_by_one(rng):
    for _ in range(50):
        a, b = random_density(rng, 12), random_density(rng, 12)
        assert 0.0 <= d0_empirical(a, b) <= 1.0 + 1e-12


def test_d0_grid_mismatch():
    with pytest.raises(GridCompatibilityError):
        d0_empirical(dens([1.0]), dens([1.0], origin=2.0))
    with pytest.raises(GridCompatibilityError):
        d0_empirical(dens([0.5, 0.5]), dens([1.0]))


# ---------------------------------------------------------------------------
# blended distance
# ---------------------------------------------------------------------------

def test_theta_blend_value():
    # ranks chosen so the squared rank distance is exactly 1, densities equal
    rep_x = represent(make_increment_panel([[10.0, 20.0, 30.0], [20.0, 30.0, 10.0]]))
    x, y = rep_x.series(0), rep_x.series(1)
    assert x.ranks.ranks.tolist() == [1, 2, 3]
    assert y.ranks.ranks.tolist() == [2, 3, 1]
    assert naive_d1_sq(x.ranks.ranks, y.ranks.ranks) == pytest.approx(1.0, abs=1e-15)


def test_theta_half_blend():
    a = rank_function([10.0, 20.0, 30.0])
    b = rank_function([20.0, 30.0, 10.0])
    d = dens([0.5, 0.5])
    x = SeriesRepresentation(id="x", ranks=a, density=d)
    y = SeriesRepresentation(id="y", ranks=b, density=d)
    out = d_theta(x, y, DistanceParams(theta=0.5))
    assert out == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_theta_endpoints_bitwise(rng):
    for _ in range(20):
        m = int(rng.integers(2, 25))
        bins = int(rng.integers(1, 10))
        x = SeriesRepresentation("x", rv(rng.permutation(m) + 1), random_density(rng, bins))
        y = SeriesRepresentation("y", rv(rng.permutation(m) + 1), random_density(rng, bins))
        assert d_theta(x, y, DistanceParams(theta=0.0)) == d0_empirical(x.density, y.density)
        assert d_theta(x, y, DistanceParams(theta=1.0)) == d1_empirical(x.ranks, y.ranks)


def test_theta_self_distance_zero(rng):
    x = SeriesRepresentation("x", rv(rng.permutation(9) + 1), random_density(rng, 5))
    for theta in (0.0, 0.3, 1.0):
        assert d_theta(x, x, DistanceParams(theta=theta)) == 0.0


def test_theta_symmetry_exact(rng):
    x = SeriesRepresentation("x", rv(rng.permutation(11) + 1), random_density(rng, 7))
    y = SeriesRepresentation("y", rv(rng.permutation(11) + 1), random_density(rng, 7))
    p = DistanceParams(theta=0.4)
    assert d_theta(x, y, p) == d_theta(y, x, p)


def test_theta_validation():
    with pytest.raises(ParameterError):
        DistanceParams(theta=-0.1)
    with pytest.raises(ParameterError):
        DistanceParams(theta=1.5)


# ---------------------------------------------------------------------------
# distance matrix
# ---------------------------------------------------------------------------

def test_matrix_identical_pair(rng):
    row = rng.standard_normal(20)
    dm = distance_matrix(represent(make_increment_panel([row, row.copy()])))
    assert np.array_equal(dm.values, np.zeros((2, 2)))


def test_matrix_single_series(rng):
    dm = distance_matrix(represent(make_increment_panel(rng.standard_normal((1, 10)))))
    assert dm.values.shape == (1, 1)
    assert dm.values[0, 0] == 0.0


def test_matrix_agrees_with_pairwise_calls(rng):
    rep = represent(make_increment_panel(rng.standard_normal((3, 25))))
    params = DistanceParams(theta=0.5)
    dm = distance_matrix(rep, params)
    for i in range(3):
        for j in range(3):
            expected = d_theta(rep.series(i), rep.series(j), params)
            assert dm.values[i, j] == pytest.approx(expected, abs=1e-15)


def test_matrix_symmetry_and_diagonal(rng):
    rep = represent(make_increment_panel(rng.standard_normal((6, 30))))
    dm = distance_matrix(rep, DistanceParams(theta=0.3))
    assert np.array_equal(dm.values, dm.values.T)
    assert np.array_equal(np.diag(dm.values), np.zeros(6))


def test_matrix_thread_count_does_not_change_bits(rng):
    rep = represent(make_increment_panel(rng.standard_normal((9, 40))))
    params = DistanceParams(theta=0.5)
    single = distance_matrix(rep, params, threads=1)
    multi = distance_matrix(rep, params, threads=4)
    assert np.array_equal(single.values, multi.values)


@pytest.mark.parametrize("exact", [False, True], ids=["default-norm", "exact-norm"])
@pytest.mark.parametrize("threads", [1, 3])
def test_blend_is_bit_equal_to_distance_matrix(rng, threads, exact):
    rep = represent(make_increment_panel(rng.standard_normal((7, 30))))
    parts = distance_components(rep, exact_spearman_norm=exact, threads=threads)
    for theta in (0.0, 0.25, 0.5, 1.0):
        params = DistanceParams(theta=theta, exact_spearman_norm=exact)
        dm = distance_matrix(rep, params, threads=threads)
        blended = parts.blend(theta)
        assert blended.values.tobytes() == dm.values.tobytes()
        assert (blended.ids, blended.theta, blended.meta) == (dm.ids, dm.theta, dm.meta)


@pytest.mark.parametrize("theta", [-0.1, 1.5, float("nan")])
def test_blend_rejects_theta_outside_unit_interval(rng, theta):
    parts = distance_components(represent(make_increment_panel(rng.standard_normal((3, 12)))))
    with pytest.raises(ParameterError):
        parts.blend(theta)


def test_blends_do_not_share_meta(rng):
    parts = distance_components(represent(make_increment_panel(rng.standard_normal((3, 12)))))
    a, b = parts.blend(0.5), parts.blend(0.5)
    assert a.meta is not b.meta
    a.meta["binning"]["bins"] = -1
    assert b.meta == parts.meta and b.meta["binning"]["bins"] != -1


def test_matrix_rank_part_is_exact_beyond_one_chunk():
    # M = 400000: the Gram kernel needs several column chunks, and S exceeds
    # 2^53, so one unchunked float64 product would round
    m = 400_000
    rng = np.random.default_rng(7)
    ranks = np.stack([rng.permutation(m) + 1 for _ in range(3)])
    assert m * (m + 1) * (2 * m + 1) // 6 > 2**53
    rep = NonParamRepresentation(ids=("a", "b", "c"), ranks=ranks, masses=np.ones((3, 1)),
                                 origin=0.0, width=1.0)
    sums = _rank_sq_sums(rep.ranks)
    dm = distance_matrix(rep, DistanceParams(theta=1.0))
    for i in range(3):
        for j in range(3):
            exact = sum(((ranks[i] - ranks[j]) ** 2).tolist())  # Python ints
            assert int(sums[i, j]) == exact
            assert dm.values[i, j] == math.sqrt(_d1_factor(m, False) * float(exact))


def test_rank_sums_refuse_m_beyond_int64():
    # np.empty leaves the 32 MB unwritten; only the shape is read
    with pytest.raises(ValidationError):
        _rank_sq_sums(np.empty((1, 4_000_000), dtype=np.int64))


def test_matrix_entry_bound(rng):
    rep = represent(make_increment_panel(rng.standard_normal((5, 15))))
    for theta in (0.0, 0.5, 1.0):
        dm = distance_matrix(rep, DistanceParams(theta=theta))
        assert dm.values.max() <= dm.entry_bound() + 1e-9


def test_matrix_meta_records_grid(rng):
    rep = represent(make_increment_panel(rng.standard_normal((3, 12))), BinningConfig(bins=5))
    dm = distance_matrix(rep)
    assert dm.meta["m"] == 12
    origin, width, count = rep.grid
    assert dm.meta["binning"] == {"origin": origin, "width": width, "bins": count}


def test_matrix_validation():
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(ValidationError):
        DistanceMatrix(ids=("a", "b"), values=bad, theta=0.5, meta={})
    with pytest.raises(ValidationError):
        DistanceMatrix(
            ids=("a", "b"),
            values=np.array([[0.5, 1.0], [1.0, 0.0]]),  # nonzero diagonal
            theta=0.5,
            meta={},
        )
    with pytest.raises(ValidationError):
        DistanceMatrix(
            ids=("a", "b"),
            values=np.array([[0.0, -1.0], [-1.0, 0.0]]),  # negative entry
            theta=0.5,
            meta={},
        )


def test_triangle_inequality_sampled(rng):
    rep = represent(make_increment_panel(rng.standard_normal((8, 30))))
    dm = distance_matrix(rep, DistanceParams(theta=0.5))
    v = dm.values
    for i in range(8):
        for j in range(8):
            for k in range(8):
                assert v[i, j] <= v[i, k] + v[k, j] + 1e-12


def test_hellinger_pool_never_exceeds_rows(monkeypatch, rng):
    # the stub runs every task inline, so no thread is ever started
    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(distance, "ThreadPoolExecutor", InlinePool)
    rep = represent(make_increment_panel(rng.standard_normal((5, 30))))
    pooled = distance_matrix(rep, threads=64)
    assert workers and max(workers) <= rep.n_series
    assert pooled.values.tobytes() == distance_matrix(rep, threads=1).values.tobytes()
