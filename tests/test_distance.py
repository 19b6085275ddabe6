"""Blended distance: rank part, histogram part, and the pairwise matrix."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from rwclust import (
    BinningConfig,
    DistanceMatrix,
    NonParamRepresentation,
    ParameterError,
    ValidationError,
    distance_components,
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


def random_masses(rng, bins):
    v = rng.random(bins) + 1e-3
    return v / v.sum()


def components(rank_rows=None, mass_rows=None, **kwargs):
    """distance_components of a panel given by its rank rows and mass rows;
    the part left out is the same for every row, so it adds zero."""
    n = len(rank_rows if rank_rows is not None else mass_rows)
    ranks = np.tile([1, 2], (n, 1)) if rank_rows is None else np.asarray(rank_rows)
    masses = np.ones((n, 1)) if mass_rows is None else np.asarray(mass_rows, dtype=float)
    rep = NonParamRepresentation(ids=tuple(f"s{i}" for i in range(n)), ranks=ranks,
                                 masses=masses, origin=0.0, width=1.0)
    return distance_components(rep, **kwargs)


# ---------------------------------------------------------------------------
# rank distance
# ---------------------------------------------------------------------------

def test_d1_identical_is_zero():
    r = [3, 1, 2, 4]
    assert components([r, r]).d1sq[0, 1] == 0.0


def test_d1_reversed_ranks():
    a, b = [1, 2, 3, 4], [4, 3, 2, 1]
    assert naive_d1_sq(a, b) == 1.25  # oracle confirms the closed form
    assert math.sqrt(components([a, b]).d1sq[0, 1]) == pytest.approx(math.sqrt(1.25), abs=1e-15)


def test_d1_single_swap():
    a, b = [1, 2, 3], [1, 3, 2]
    assert naive_d1_sq(a, b) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert math.sqrt(components([a, b]).d1sq[0, 1]) == pytest.approx(
        math.sqrt(1.0 / 3.0), abs=1e-15
    )


def test_d1_matches_naive_oracle(rng):
    for _ in range(50):
        m = int(rng.integers(2, 40))
        a, b = rng.permutation(m) + 1, rng.permutation(m) + 1
        assert components([a, b]).d1sq[0, 1] == pytest.approx(naive_d1_sq(a, b), abs=1e-12)


def test_d1_exact_norm_caps_at_one():
    # reversal is the extreme case; the alternative normalization makes it exactly 1
    for m in (2, 3, 5, 8, 20):
        rows = [np.arange(1, m + 1), np.arange(m, 0, -1)]
        exact = components(rows, exact_spearman_norm=True).d1sq[0, 1]
        assert math.sqrt(exact) == pytest.approx(1.0, abs=1e-12)
        # the default normalization exceeds 1 by the (M+1)/M factor
        assert components(rows).d1sq[0, 1] == pytest.approx((m + 1) / m, abs=1e-12)


def test_d1_symmetry_exact(rng):
    a, b = rng.permutation(17) + 1, rng.permutation(17) + 1
    # pair (0, 1) is computed as a against b, pair (1, 2) as b against a
    d1sq = components([a, b, a]).d1sq
    assert d1sq[0, 1] == d1sq[1, 2]


# ---------------------------------------------------------------------------
# histogram distance
# ---------------------------------------------------------------------------

def test_d0_identical_is_zero():
    p = [0.25, 0.75]
    assert components(mass_rows=[p, p]).d0sq[0, 1] == 0.0


def test_d0_disjoint_supports():
    assert components(mass_rows=[[1.0, 0.0], [0.0, 1.0]]).d0sq[0, 1] == 1.0


def test_d0_half_overlap():
    val = math.sqrt(components(mass_rows=[[0.5, 0.5], [1.0, 0.0]]).d0sq[0, 1])
    expected_sq = 1.0 - math.sqrt(0.5)
    assert naive_d0_sq([0.5, 0.5], [1.0, 0.0]) == pytest.approx(expected_sq, abs=1e-15)
    assert val == pytest.approx(math.sqrt(expected_sq), abs=1e-15)


def test_d0_matches_naive_oracle(rng):
    for _ in range(50):
        bins = int(rng.integers(1, 30))
        a, b = random_masses(rng, bins), random_masses(rng, bins)
        assert components(mass_rows=[a, b]).d0sq[0, 1] == pytest.approx(
            naive_d0_sq(a, b), abs=1e-12
        )


def test_d0_bounded_by_one(rng):
    for _ in range(50):
        a, b = random_masses(rng, 12), random_masses(rng, 12)
        assert 0.0 <= math.sqrt(components(mass_rows=[a, b]).d0sq[0, 1]) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# blended distance
# ---------------------------------------------------------------------------

def test_theta_blend_value():
    # ranks chosen so the squared rank distance is exactly 1, densities equal
    rep = represent(make_increment_panel([[10.0, 20.0, 30.0], [20.0, 30.0, 10.0]]))
    assert rep.ranks[0].tolist() == [1, 2, 3]
    assert rep.ranks[1].tolist() == [2, 3, 1]
    assert naive_d1_sq(rep.ranks[0], rep.ranks[1]) == pytest.approx(1.0, abs=1e-15)


def test_theta_half_blend():
    # the two rows hold the same values, so their histograms are equal
    rep = represent(make_increment_panel([[10.0, 20.0, 30.0], [20.0, 30.0, 10.0]]))
    out = distance_components(rep).blend(0.5).values[0, 1]
    assert out == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_theta_endpoints_bitwise(rng):
    for _ in range(20):
        m = int(rng.integers(2, 25))
        bins = int(rng.integers(1, 10))
        x = (rng.permutation(m) + 1, random_masses(rng, bins))
        y = (rng.permutation(m) + 1, random_masses(rng, bins))
        parts = components([x[0], y[0]], [x[1], y[1]])
        assert np.array_equal(parts.blend(0.0).values, np.sqrt(parts.d0sq))
        assert np.array_equal(parts.blend(1.0).values, np.sqrt(parts.d1sq))
        # with the unweighted part left out, an endpoint blend keeps its bits
        # and a theta that weights the missing part is refused
        d0_only = replace(parts, d1sq=None)
        d1_only = replace(parts, d0sq=None)
        assert d0_only.blend(0.0).values.tobytes() == parts.blend(0.0).values.tobytes()
        assert d1_only.blend(1.0).values.tobytes() == parts.blend(1.0).values.tobytes()
        for one_part, thetas in ((d0_only, (0.5, 1.0)), (d1_only, (0.0, 0.5))):
            for theta in thetas:
                with pytest.raises(ParameterError, match="not computed"):
                    one_part.blend(theta)


def test_theta_self_distance_zero(rng):
    x = (rng.permutation(9) + 1, random_masses(rng, 5))
    parts = components([x[0], x[0]], [x[1], x[1]])
    for theta in (0.0, 0.3, 1.0):
        assert parts.blend(theta).values[0, 1] == 0.0


def test_theta_symmetry_exact(rng):
    x = (rng.permutation(11) + 1, random_masses(rng, 7))
    y = (rng.permutation(11) + 1, random_masses(rng, 7))
    # pair (0, 1) is computed as x against y, pair (1, 2) as y against x
    v = components([x[0], y[0], x[0]], [x[1], y[1], x[1]]).blend(0.4).values
    assert v[0, 1] == v[1, 2]


def test_theta_validation(rng):
    parts = distance_components(represent(make_increment_panel(rng.standard_normal((2, 10)))))
    with pytest.raises(ParameterError):
        parts.blend(-0.1)
    with pytest.raises(ParameterError):
        parts.blend(1.5)


# ---------------------------------------------------------------------------
# distance matrix
# ---------------------------------------------------------------------------

def test_matrix_identical_pair(rng):
    row = rng.standard_normal(20)
    dm = distance_components(represent(make_increment_panel([row, row.copy()]))).blend(0.5)
    assert np.array_equal(dm.values, np.zeros((2, 2)))


def test_matrix_single_series(rng):
    rep = represent(make_increment_panel(rng.standard_normal((1, 10))))
    dm = distance_components(rep).blend(0.5)
    assert dm.values.shape == (1, 1)
    assert dm.values[0, 0] == 0.0


def test_matrix_agrees_with_pairwise_calls(rng):
    rep = represent(make_increment_panel(rng.standard_normal((3, 25))))
    dm = distance_components(rep).blend(0.5)
    for i in range(3):
        for j in range(3):
            expected = math.sqrt(0.5 * naive_d1_sq(rep.ranks[i], rep.ranks[j])
                                 + 0.5 * naive_d0_sq(rep.masses[i], rep.masses[j]))
            assert dm.values[i, j] == pytest.approx(expected, abs=1e-15)


def test_matrix_symmetry_and_diagonal(rng):
    rep = represent(make_increment_panel(rng.standard_normal((6, 30))))
    dm = distance_components(rep).blend(0.3)
    assert np.array_equal(dm.values, dm.values.T)
    assert np.array_equal(np.diag(dm.values), np.zeros(6))


def test_matrix_thread_count_does_not_change_bits(rng):
    rep = represent(make_increment_panel(rng.standard_normal((9, 40))))
    single = distance_components(rep, threads=1).blend(0.5)
    multi = distance_components(rep, threads=4).blend(0.5)
    assert np.array_equal(single.values, multi.values)


@pytest.mark.parametrize("exact", [False, True], ids=["default-norm", "exact-norm"])
@pytest.mark.parametrize("threads", [1, 3])
def test_blend_is_bit_equal_to_distance_matrix(rng, threads, exact):
    # the bits depend neither on the thread count nor, at theta 0, which
    # leaves the rank part unweighted, on its normalization
    rep = represent(make_increment_panel(rng.standard_normal((7, 30))))
    parts = distance_components(rep, exact_spearman_norm=exact, threads=threads)
    serial = distance_components(rep, exact_spearman_norm=exact)
    for theta in (0.0, 0.25, 0.5, 1.0):
        blended, dm = parts.blend(theta), serial.blend(theta)
        assert blended.values.tobytes() == dm.values.tobytes()
        assert (blended.ids, blended.theta, blended.meta) == (dm.ids, dm.theta, dm.meta)
        assert blended.meta["exact_spearman_norm"] == exact
    other_norm = distance_components(rep, exact_spearman_norm=not exact).blend(0.0)
    assert parts.blend(0.0).values.tobytes() == other_norm.values.tobytes()


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
    dm = distance_components(rep).blend(1.0)
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
        dm = distance_components(rep).blend(theta)
        assert dm.values.max() <= dm.entry_bound() + 1e-9


def test_matrix_meta_records_grid(rng):
    rep = represent(make_increment_panel(rng.standard_normal((3, 12))), BinningConfig(bins=5))
    dm = distance_components(rep).blend(0.5)
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
    dm = distance_components(rep).blend(0.5)
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
    pooled = distance_components(rep, threads=64).blend(0.5)
    assert workers and max(workers) <= rep.n_series
    serial = distance_components(rep, threads=1).blend(0.5)
    assert pooled.values.tobytes() == serial.values.tobytes()
