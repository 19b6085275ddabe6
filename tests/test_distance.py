"""Blended distance: rank part, histogram part, and the pairwise matrix."""
from __future__ import annotations

import hashlib
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import squareform

from rwclust import (
    BinningConfig,
    CorrelationBlock,
    DistanceMatrix,
    DistributionGroup,
    ParameterError,
    SyntheticSpec,
    ValidationError,
    cluster,
    distance_matrices,
    fit,
    generate_panel,
    represent,
    to_increments,
)
from rwclust import distance, representation
from rwclust.distance import _blend, _d0sq, _d1sq, _rank_sums, _upper_pairs
from rwclust.representation import _masses, shared_grid

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
    # the kernel's summation order: sequential over the bins, each term d * d
    s = 0.0
    for a, b in zip(px, py):
        d = math.sqrt(a) - math.sqrt(b)
        s += d * d
    return 0.5 * s


def random_masses(rng, bins):
    v = rng.random(bins) + 1e-3
    return v / v.sum()


def rank_part(rank_rows, exact_spearman_norm=False):
    """The kernel's scaled rank part d1^2 of every pair of the given rank
    rows, expanded from its condensed vector to the square matrix."""
    return squareform(_d1sq(np.asarray(rank_rows, dtype=np.int64), exact_spearman_norm))


def mass_part(mass_rows):
    """The kernel's Hellinger part d0^2 of every pair of the given mass rows,
    expanded from its condensed vector to the square matrix."""
    return squareform(_d0sq(np.asarray(mass_rows, dtype=float), 1))


def blended(rank_rows, mass_rows, theta):
    """The distance values at theta of the series given by their rank and mass rows."""
    return _blend(rank_part(rank_rows), mass_part(mass_rows), theta)


def matrix(panel, theta, binning=BinningConfig(), **kwargs):
    """The panel's distance matrix at one theta, through the library route."""
    [dm] = distance_matrices(panel, (theta,), binning, **kwargs)
    return dm


# ---------------------------------------------------------------------------
# rank distance
# ---------------------------------------------------------------------------

def test_d1_identical_is_zero():
    r = [3, 1, 2, 4]
    assert rank_part([r, r])[0, 1] == 0.0


def test_d1_reversed_ranks():
    a, b = [1, 2, 3, 4], [4, 3, 2, 1]
    assert naive_d1_sq(a, b) == 1.25  # oracle confirms the closed form
    assert math.sqrt(rank_part([a, b])[0, 1]) == pytest.approx(math.sqrt(1.25), abs=1e-15)


def test_d1_single_swap():
    a, b = [1, 2, 3], [1, 3, 2]
    assert naive_d1_sq(a, b) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert math.sqrt(rank_part([a, b])[0, 1]) == pytest.approx(
        math.sqrt(1.0 / 3.0), abs=1e-15
    )


def test_d1_matches_naive_oracle(rng):
    for _ in range(50):
        m = int(rng.integers(2, 40))
        a, b = rng.permutation(m) + 1, rng.permutation(m) + 1
        assert rank_part([a, b])[0, 1] == pytest.approx(naive_d1_sq(a, b), abs=1e-12)


def test_d1_exact_norm_caps_at_one():
    # reversal is the extreme case; the alternative normalization makes it exactly 1
    for m in (2, 3, 5, 8, 20):
        rows = [np.arange(1, m + 1), np.arange(m, 0, -1)]
        exact = rank_part(rows, exact_spearman_norm=True)[0, 1]
        assert math.sqrt(exact) == pytest.approx(1.0, abs=1e-12)
        # the default normalization exceeds 1 by the (M+1)/M factor
        assert rank_part(rows)[0, 1] == pytest.approx((m + 1) / m, abs=1e-12)


def test_d1_symmetry_exact(rng):
    a, b = rng.permutation(17) + 1, rng.permutation(17) + 1
    # pair (0, 1) is computed as a against b, pair (1, 2) as b against a
    d1sq = rank_part([a, b, a])
    assert d1sq[0, 1] == d1sq[1, 2]


# ---------------------------------------------------------------------------
# histogram distance
# ---------------------------------------------------------------------------

def test_d0_identical_is_zero():
    p = [0.25, 0.75]
    assert mass_part([p, p])[0, 1] == 0.0


def test_d0_disjoint_supports():
    assert mass_part([[1.0, 0.0], [0.0, 1.0]])[0, 1] == 1.0


def test_d0_half_overlap():
    val = math.sqrt(mass_part([[0.5, 0.5], [1.0, 0.0]])[0, 1])
    expected_sq = 1.0 - math.sqrt(0.5)
    assert naive_d0_sq([0.5, 0.5], [1.0, 0.0]) == pytest.approx(expected_sq, abs=1e-15)
    assert val == pytest.approx(math.sqrt(expected_sq), abs=1e-15)


def test_d0_matches_naive_oracle(rng):
    for _ in range(50):
        bins = int(rng.integers(1, 30))
        a, b = random_masses(rng, bins), random_masses(rng, bins)
        assert mass_part([a, b])[0, 1] == pytest.approx(
            naive_d0_sq(a, b), abs=1e-12
        )


def test_d0_bounded_by_one(rng):
    for _ in range(50):
        a, b = random_masses(rng, 12), random_masses(rng, 12)
        assert 0.0 <= math.sqrt(mass_part([a, b])[0, 1]) <= 1.0 + 1e-12


@st.composite
def mass_panels(draw):
    """Mass rows of 1 to 6 series over B bins, B around the widths at which
    numpy's pairwise summation changes its order (8 and 128), with bins
    empty in every series, bins empty in some, and often a repeated row."""
    bins = draw(st.sampled_from([1, 7, 8, 9, 101, 129, 300]))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, 5, size=(n, bins)) * (rng.random((n, bins)) < draw(st.floats(0, 1)))
    counts[:, rng.random(bins) < draw(st.floats(0, 1))] = 0  # bins empty in every series
    counts[np.arange(n), rng.integers(0, bins, size=n)] += 1  # every row holds mass
    if n > 1 and draw(st.booleans()):
        counts[-1] = counts[0]
    return counts / counts.sum(axis=1, keepdims=True)


@given(masses=mass_panels())
@settings(max_examples=200, deadline=None)
def test_d0_is_the_sequential_sum_bit_for_bit(masses):
    # every entry is 1/2 times the sum over the bins in their order, each
    # term d * d; the bins no series occupies add +0.0 and change nothing
    got = _d0sq(masses, 1)
    pairs = list(itertools.combinations(range(len(masses)), 2))
    want = np.array([naive_d0_sq(masses[i], masses[j]) for i, j in pairs])
    assert got.tobytes() == want.tobytes()
    for value, (i, j) in zip(got, pairs):
        if np.array_equal(masses[i], masses[j]):
            assert value == 0.0


def test_upper_pairs_is_the_condensed_full_array(monkeypatch, rng):
    # every block size and thread split fills each pair once, in scipy's
    # order, from the block rows lo..hi-1 against lo..n-1 that it asks for;
    # the pool starts at 2 points here so that 2 threads split small panels
    monkeypatch.setattr(distance, "_POOL_MIN_ROWS", 2)
    for n in range(1, 41):
        full = rng.standard_normal((n, n))  # only the upper triangle is read
        want = squareform(np.triu(full, 1), checks=False)
        for cells in (1, n, 10**9):
            for threads in (1, 2):
                asked = []

                def block(lo, hi):
                    asked.append((lo, hi))
                    return full[lo:hi, lo:].copy()

                got = _upper_pairs(n, cells, block, threads)
                assert got.tobytes() == want.tobytes(), (n, cells, threads)
                assert sorted(r for lo, hi in asked for r in range(lo, hi)) == list(range(n - 1))


def test_square_rows_are_the_square_matrix(rng):
    for n in range(1, 12):
        values = rng.random(n * (n - 1) // 2)
        rows = [row.copy() for row in distance._square_rows(values, n)]
        assert np.array_equal(np.array(rows).reshape(n, n), squareform(values))


def test_d0_bits_do_not_depend_on_threads_or_blocks(monkeypatch, rng):
    # 23 rows give 22 rows of pairs: blocks of one row, of 5 rows with a
    # short last block of 2, or one block; the pool starts at 2 rows here so
    # that 2 and 8 threads split the blocks of a small panel
    n = 23
    counts = rng.integers(0, 4, size=(n, 60)) * (rng.random(60) < 0.5)
    counts[:, 0] += 1
    masses = counts / counts.sum(axis=1, keepdims=True)
    pairs = itertools.combinations(range(n), 2)
    want = np.array([naive_d0_sq(masses[i], masses[j]) for i, j in pairs]).tobytes()
    monkeypatch.setattr(distance, "_POOL_MIN_ROWS", 2)
    for cells in (1, 5 * n, 10**9):
        monkeypatch.setattr(distance, "_HELLINGER_CELLS", cells)
        for threads in (1, 2, 8):
            assert _d0sq(masses, threads).tobytes() == want, (cells, threads)


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
    out = matrix(make_increment_panel([[10.0, 20.0, 30.0], [20.0, 30.0, 10.0]]), 0.5).values[0]
    assert out == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_theta_endpoints_bitwise(rng):
    for _ in range(20):
        m = int(rng.integers(2, 25))
        bins = int(rng.integers(1, 10))
        x = (rng.permutation(m) + 1, random_masses(rng, bins))
        y = (rng.permutation(m) + 1, random_masses(rng, bins))
        d1sq, d0sq = rank_part([x[0], y[0]]), mass_part([x[1], y[1]])
        assert np.array_equal(_blend(d1sq, d0sq, 0.0), np.sqrt(d0sq))
        assert np.array_equal(_blend(d1sq, d0sq, 1.0), np.sqrt(d1sq))
        # with the unweighted part left out as the scalar 0.0, an endpoint
        # blend keeps its bits
        assert _blend(0.0, d0sq, 0.0).tobytes() == _blend(d1sq, d0sq, 0.0).tobytes()
        assert _blend(d1sq, 0.0, 1.0).tobytes() == _blend(d1sq, d0sq, 1.0).tobytes()


def test_consuming_blend_keeps_the_bits(rng):
    # the last blend of a call is written over its parts, by the same element
    # operations in the same order; a part no theta weights stays a scalar
    n = 30
    d1sq = _d1sq(np.stack([rng.permutation(40) + 1 for _ in range(n)]), False)
    d0sq = _d0sq(np.stack([random_masses(rng, 12) for _ in range(n)]), 1)
    for theta in (0.0, 0.25, 0.5, 1 / 3, 1.0):
        want = _blend(d1sq, d0sq, theta).tobytes()
        assert _blend(d1sq.copy(), d0sq.copy(), theta, consume=True).tobytes() == want
    assert _blend(0.0, d0sq.copy(), 0.0, consume=True).tobytes() == _blend(0.0, d0sq, 0.0).tobytes()
    assert _blend(d1sq.copy(), 0.0, 1.0, consume=True).tobytes() == _blend(d1sq, 0.0, 1.0).tobytes()
    # it allocates no array: the blend is the Hellinger part's own storage,
    # or the rank part's when no theta weights the Hellinger part
    d1, d0 = d1sq.copy(), d0sq.copy()
    assert _blend(d1, d0, 0.5, consume=True) is d0
    assert _blend(d1, 0.0, 1.0, consume=True) is d1


def test_theta_self_distance_zero(rng):
    x = (rng.permutation(9) + 1, random_masses(rng, 5))
    for theta in (0.0, 0.3, 1.0):
        assert blended([x[0], x[0]], [x[1], x[1]], theta)[0, 1] == 0.0


def test_theta_symmetry_exact(rng):
    x = (rng.permutation(11) + 1, random_masses(rng, 7))
    y = (rng.permutation(11) + 1, random_masses(rng, 7))
    # pair (0, 1) is computed as x against y, pair (1, 2) as y against x
    v = blended([x[0], y[0], x[0]], [x[1], y[1], x[1]], 0.4)
    assert v[0, 1] == v[1, 2]


def test_theta_validation(rng):
    panel = make_increment_panel(rng.standard_normal((2, 10)))
    for thetas in ((-0.1,), (1.5,), (0.5, 1.5), ()):
        with pytest.raises(ParameterError):
            distance_matrices(panel, thetas, BinningConfig())
    # thetas is a sequence of real numbers, and threads an integer
    with pytest.raises(ParameterError, match="thetas must be a sequence"):
        distance_matrices(panel, 0.5, BinningConfig())
    for thetas in (("0.5",), "0.5", (0.5, None)):
        with pytest.raises(ParameterError, match="theta must be a real number"):
            distance_matrices(panel, thetas, BinningConfig())
    for threads in (2.5, "2", True):
        with pytest.raises(ParameterError, match="threads must be an integer"):
            distance_matrices(panel, (0.5,), BinningConfig(), threads=threads)


def test_bool_theta_is_refused(rng):
    # True would pass as the number 1 and come back as every matrix's theta
    panel = make_increment_panel(rng.standard_normal((2, 10)))
    for thetas in ((True,), (0.5, False)):
        with pytest.raises(ParameterError, match="theta must be a real number, got (True|False)"):
            distance_matrices(panel, thetas, BinningConfig())


# ---------------------------------------------------------------------------
# distance matrix
# ---------------------------------------------------------------------------

def test_matrix_identical_pair(rng):
    row = rng.standard_normal(20)
    dm = matrix(make_increment_panel([row, row.copy()]), 0.5)
    assert np.array_equal(dm.values, np.zeros(1))


def test_matrix_single_series(rng):
    dm = matrix(make_increment_panel(rng.standard_normal((1, 10))), 0.5)
    assert dm.values.shape == (0,)  # one series has no pair
    assert np.array_equal(squareform(dm.values), np.zeros((1, 1)))


def test_matrix_agrees_with_pairwise_calls(rng):
    panel = make_increment_panel(rng.standard_normal((3, 25)))
    rep, dm = represent(panel), matrix(panel, 0.5)
    square = squareform(dm.values)
    for i in range(3):
        for j in range(3):
            expected = math.sqrt(0.5 * naive_d1_sq(rep.ranks[i], rep.ranks[j])
                                 + 0.5 * naive_d0_sq(rep.masses[i], rep.masses[j]))
            assert square[i, j] == pytest.approx(expected, abs=1e-15)


def test_matrix_symmetry_and_diagonal(rng):
    # one entry per pair i < j, row 0's pairs first; the square it stands
    # for is symmetric with a zero diagonal
    panel = make_increment_panel(rng.standard_normal((6, 30)))
    dm = matrix(panel, 0.3)
    assert dm.values.shape == (15,)
    rep = represent(panel)
    d1sq = [3.0 * ((rep.ranks[i] - rep.ranks[j]) ** 2).sum() / (30 * 30 * 29)
            for i, j in itertools.combinations(range(6), 2)]
    d0sq = [0.5 * ((np.sqrt(rep.masses[i]) - np.sqrt(rep.masses[j])) ** 2).sum()
            for i, j in itertools.combinations(range(6), 2)]
    assert dm.values == pytest.approx(np.sqrt(0.3 * np.array(d1sq) + 0.7 * np.array(d0sq)),
                                      abs=1e-15)
    square = squareform(dm.values)
    assert np.array_equal(square, square.T)
    assert np.array_equal(np.diag(square), np.zeros(6))


def test_matrix_thread_count_does_not_change_bits(rng):
    # the smallest panel whose Hellinger blocks are split across threads; the
    # workers share one condensed vector, each block writing its own pairs, and
    # a short switch interval interleaves them as finely as it can
    panel = make_increment_panel(rng.standard_normal((distance._POOL_MIN_ROWS, 40)))
    single = matrix(panel, 0.5, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        multi = matrix(panel, 0.5, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert single.values.tobytes() == multi.values.tobytes()


@pytest.mark.parametrize("exact", [False, True], ids=["default-norm", "exact-norm"])
@pytest.mark.parametrize("threads", [1, 3])
def test_blend_is_bit_equal_to_distance_matrix(rng, threads, exact):
    # the bits depend neither on the thread count, nor on the other thetas
    # of the call, nor, at theta 0, which leaves the rank part unweighted,
    # on its normalization
    panel = make_increment_panel(rng.standard_normal((7, 30)))
    thetas = (0.0, 0.25, 0.5, 1.0)
    together = distance_matrices(panel, thetas, BinningConfig(), exact, threads)
    for theta, got in zip(thetas, together):
        dm = matrix(panel, theta, exact_spearman_norm=exact)
        assert got.values.tobytes() == dm.values.tobytes()
        assert (got.ids, got.theta, got.meta) == (dm.ids, dm.theta, dm.meta)
        assert got.meta["exact_spearman_norm"] == exact
    other_norm = matrix(panel, 0.0, exact_spearman_norm=not exact)
    assert together[0].values.tobytes() == other_norm.values.tobytes()


@pytest.mark.parametrize("theta", [-0.1, 1.5, float("nan")])
def test_blend_rejects_theta_outside_unit_interval(monkeypatch, rng, theta):
    panel = make_increment_panel(rng.standard_normal((3, 12)))

    def no_grid(*args):
        raise AssertionError("a grid was built before the thetas were checked")

    monkeypatch.setattr(distance, "shared_grid", no_grid)
    for thetas in ((theta,), (0.5, theta)):
        with pytest.raises(ParameterError, match="theta must lie in"):
            distance_matrices(panel, thetas, BinningConfig())


def test_blends_do_not_share_meta(rng):
    panel = make_increment_panel(rng.standard_normal((3, 12)))
    a, b = distance_matrices(panel, (0.5, 0.5), BinningConfig())
    assert a.meta is not b.meta
    a.meta["binning"]["bins"] = -1
    assert b.meta == matrix(panel, 0.5).meta and b.meta["binning"]["bins"] != -1


def test_matrix_rank_part_is_exact_beyond_one_chunk():
    # M = 400000: the Gram kernel needs several column chunks, and S exceeds
    # 2^53, so one unchunked float64 product would round
    m = 400_000
    rng = np.random.default_rng(7)
    ranks = np.stack([rng.permutation(m) + 1 for _ in range(3)])
    assert m * (m + 1) * (2 * m + 1) // 6 > 2**53
    sums = _rank_sums(ranks, 0, 3)
    # distinct values rank as themselves
    dm = squareform(matrix(make_increment_panel(ranks), 1.0).values)
    for i in range(3):
        for j in range(3):
            exact = sum(((ranks[i] - ranks[j]) ** 2).tolist())  # Python ints
            assert int(sums[i, j]) == exact
            assert dm[i, j] == math.sqrt(3.0 / (m * m * (m - 1)) * float(exact))


@pytest.mark.parametrize("cells", [1, 15, 10**9], ids=["one-row", "short-last-block", "one-block"])
def test_condensed_parts_at_row_block_edges(monkeypatch, rng, cells):
    # 7 rows in Gram blocks of 1 row, of 2 rows (a short last block) or of
    # all rows, and masses binned in blocks of 2 rows; the condensed entries
    # follow scipy's pair order, which is itertools.combinations'
    n = 7
    panel = make_increment_panel(rng.standard_normal((n, 40)))
    want = distance_matrices(panel, (0.0, 0.5, 1.0), BinningConfig())
    monkeypatch.setattr(distance, "_GRAM_CELLS", cells)
    monkeypatch.setattr(representation, "_BLOCK_CELLS", 2 * 101)  # 101 bins per row
    got = distance_matrices(panel, (0.0, 0.5, 1.0), BinningConfig())
    assert [dm.values.tobytes() for dm in got] == [dm.values.tobytes() for dm in want]

    pairs = list(itertools.combinations(range(n), 2))
    ranks = np.stack([rng.permutation(30) + 1 for _ in range(n)])
    sums = _rank_sums(ranks, 0, n)
    assert sums[np.triu_indices(n, 1)].tolist() == [
        sum(((ranks[i] - ranks[j]) ** 2).tolist()) for i, j in pairs]
    masses = rng.random((n, 40))
    masses /= masses.sum(axis=1, keepdims=True)
    oracle = np.array([naive_d0_sq(masses[i], masses[j]) for i, j in pairs])
    assert _d0sq(masses, 1).tobytes() == oracle.tobytes()


def test_distance_build_peak_memory(rng):
    # with condensed parts, a theta-0.5 call holds at most both parts and a
    # blend with one temporary, N x N float64 values twice over, where square
    # parts took four times; binning's temporaries are one block whatever N is
    n, m = 1200, 200
    panel = make_increment_panel(rng.standard_normal((n, m)))
    distance_matrices(make_increment_panel(rng.standard_normal((3, m))), (0.5,), BinningConfig())
    extra = []
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        distance_matrices(panel, (0.5,), BinningConfig())
        peak = tracemalloc.get_traced_memory()[1] - start
        for rows in (400, 4000):
            x = rng.standard_normal((rows, 100))
            grid = shared_grid(x, BinningConfig())
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            masses = _masses(x, grid)
            extra.append(tracemalloc.get_traced_memory()[1] - start - masses.nbytes)
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * n * n * 8
    assert extra[1] <= extra[0] + 4096


def test_blend_consumes_the_parts_peak_memory(rng):
    # in units of one condensed vector of N (N - 1) / 2 float64 pairs: the
    # last blend is written over the parts, so a theta-0.5 build holds its
    # two parts and the rank matrix, not a third vector and a temporary; a
    # sweep holds its two parts and the two earlier blends with a temporary
    n, m = 2000, 100
    vector = n * (n - 1) // 2 * 8
    panel = make_increment_panel(rng.standard_normal((n, m)))
    distance_matrices(make_increment_panel(rng.standard_normal((3, m))), (0.5,), BinningConfig())
    peaks = []
    tracemalloc.start()
    try:
        for thetas in ((0.5,), (0.0, 0.5, 1.0)):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            matrices = distance_matrices(panel, thetas, BinningConfig())
            peaks.append((tracemalloc.get_traced_memory()[1] - start) / vector)
            del matrices
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 2.5
    assert peaks[1] <= 5.25


def test_d1_holds_one_vector_and_one_block(monkeypatch, rng):
    # each Gram block's sums are scaled and copied into the float64 vector
    # _d1sq returns, so past that vector it holds a few blocks of
    # _GRAM_CELLS values (the Gram products, their int64 sums and the
    # scaled block), not a second vector; blocks here are 2 rows
    n = 1000
    ranks = np.stack([rng.permutation(20) + 1.0 for _ in range(n)])
    want = _rank_sums(ranks, 0, n)[np.triu_indices(n, 1)] * (3.0 / (20 * 20 * 19))
    monkeypatch.setattr(distance, "_GRAM_CELLS", 2 * n)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = _d1sq(ranks, False)
        extra = tracemalloc.get_traced_memory()[1] - start - got.nbytes
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert got.nbytes >= 100 * distance._GRAM_CELLS * 8
    assert extra <= 4 * distance._GRAM_CELLS * 8


def test_cluster_and_fit_peak_memory(rng):
    # a DistanceMatrix holds the condensed vector that linkage takes, so
    # cluster builds no N x N square and no second condensed copy, and fit
    # holds one condensed blend beside its rank part; units of N x N float64
    n, m = 1200, 200
    panel = make_increment_panel(rng.standard_normal((n, m)))
    small = make_increment_panel(rng.standard_normal((6, m)))
    cluster(matrix(small, 0.5), 2)  # scipy's modules load outside the trace
    fit(small, (1.0,), BinningConfig(), k=2)
    dm = matrix(panel, 0.5)
    peaks = []
    tracemalloc.start()
    try:
        for run in (lambda: cluster(dm, 4), lambda: fit(panel, (1.0,), BinningConfig(), k=4)):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            run()
            peaks.append((tracemalloc.get_traced_memory()[1] - start) / (n * n * 8))
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 0.25
    assert peaks[1] <= 1.35


def test_rank_sums_refuse_m_beyond_int64():
    # refused before any block runs, so also a panel of one series, which
    # has no pairs; np.empty leaves the 32 MB a row unwritten, only the
    # shape is read
    for n in (1, 2):
        with pytest.raises(ValidationError, match="too long"):
            _d1sq(np.empty((n, 4_000_000), dtype=np.int64), False)


def test_matrix_entry_bound(rng):
    panel = make_increment_panel(rng.standard_normal((5, 15)))
    for dm in distance_matrices(panel, (0.0, 0.5, 1.0), BinningConfig()):
        assert dm.values.max() <= dm.entry_bound() + 1e-9


def test_matrix_meta_records_grid(rng):
    panel = make_increment_panel(rng.standard_normal((3, 12)))
    rep = represent(panel, BinningConfig(bins=5))
    dm = matrix(panel, 0.5, BinningConfig(bins=5))
    assert dm.meta["m"] == 12
    origin, width, count = rep.grid
    assert dm.meta["binning"] == {"origin": origin, "width": width, "bins": count}


def test_matrix_validation():
    with pytest.raises(ValidationError, match="nonnegative"):
        DistanceMatrix(ids=("a", "b", "c"), values=np.array([0.5, -1.0, 0.5]), theta=0.5)
    with pytest.raises(ValidationError, match="nonnegative"):
        DistanceMatrix(ids=("a", "b"), values=np.array([np.nan]), theta=0.5)
    # the condensed vector of 2 series holds 1 pair, of 3 series 3 pairs
    with pytest.raises(ValidationError, match="condensed vector of 1 pairs"):
        DistanceMatrix(ids=("a", "b"), values=np.zeros(3), theta=0.5)
    # the square the vector stands for is refused too, even when it is a
    # valid symmetric zero-diagonal matrix
    square = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValidationError, match="condensed vector of 3 pairs"):
        DistanceMatrix(ids=("a", "b", "c"), values=square, theta=0.5)
    # at theta 0.5 and m 10 no entry exceeds sqrt(0.5 * 1.1 + 0.5)
    with pytest.raises(ValidationError, match="exceeds the bound"):
        DistanceMatrix(ids=("a", "b"), values=np.array([1.1]), theta=0.5, meta={"m": 10})
    # a valid vector is kept as it is, read-only
    dm = DistanceMatrix(ids=("a", "b", "c"), values=[0.5, 1.0, 0.25], theta=0.5, meta={"m": 10})
    assert dm.values.tolist() == [0.5, 1.0, 0.25] and not dm.values.flags.writeable


def test_triangle_inequality_sampled(rng):
    v = squareform(matrix(make_increment_panel(rng.standard_normal((8, 30))), 0.5).values)
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
    panel = make_increment_panel(rng.standard_normal((distance._POOL_MIN_ROWS, 30)))
    pooled = matrix(panel, 0.5, threads=2 * panel.n_series)
    assert workers and max(workers) <= panel.n_series
    serial = matrix(panel, 0.5, threads=1)
    assert pooled.values.tobytes() == serial.values.tobytes()


def test_small_panel_starts_no_pool(monkeypatch, rng):
    # below _POOL_MIN_ROWS rows the Hellinger rows run on the calling thread
    pools = []
    monkeypatch.setattr(distance, "ThreadPoolExecutor", lambda **kwargs: pools.append(kwargs))
    panel = make_increment_panel(rng.standard_normal((distance._POOL_MIN_ROWS - 1, 30)))
    two = matrix(panel, 0.5, threads=2)
    assert pools == []
    assert two.values.tobytes() == matrix(panel, 0.5, threads=1).values.tobytes()


# ---------------------------------------------------------------------------
# the Hellinger kernel against the one it replaced
# ---------------------------------------------------------------------------

def _pairwise_sq_rows(a: np.ndarray, out: np.ndarray, rows: range) -> None:
    # row i against all j > i into its condensed slice, reduced by numpy's
    # subtract, multiply and sum(axis=1) over every bin
    n = a.shape[0]
    buf = np.empty((n - 1, a.shape[1]))
    for i in rows:
        d = buf[: n - i - 1]
        np.subtract(a[i + 1 :], a[i], out=d)
        np.multiply(d, d, out=d)
        start = distance._row_start(i, n)
        d.sum(axis=1, out=out[start : start + n - i - 1])


def reference_d0sq(masses, threads):
    """The Hellinger part as rwclust computed it before its sums became
    sequential: numpy's pairwise summation over all bins, row by row."""
    a = np.sqrt(masses)
    n = a.shape[0]
    out = np.empty(n * (n - 1) // 2)
    _pairwise_sq_rows(a, out, range(n - 1))
    out *= 0.5
    return out


def test_no_partition_moves_under_the_reference_kernel(monkeypatch):
    # the acceptance panel: 4 dependence blocks x 2 marginal families. The
    # sequential sums move d0^2 entries by an ulp or so, and no label,
    # selected K or stability score moves with them at any theta
    spec = SyntheticSpec(
        n_series=40, m_obs=2000,
        blocks=tuple(CorrelationBlock(size=10, rho=0.7) for _ in range(4)),
        groups=(DistributionGroup("gaussian"), DistributionGroup("student_t", df=3.0)),
        seed=0,
    )
    panel = to_increments(generate_panel(spec)[0])
    thetas = (0.0, 0.5, 1.0)
    got = fit(panel, thetas, BinningConfig(), k_range=range(2, 11))
    monkeypatch.setattr(distance, "_d0sq", reference_d0sq)
    want = fit(panel, thetas, BinningConfig(), k_range=range(2, 11))
    for (dm, assignment, report), (ref_dm, ref_assignment, ref_report) in zip(got, want):
        assert assignment.labels.tolist() == ref_assignment.labels.tolist()
        assert (assignment.k, report.selected_k) == (ref_assignment.k, ref_report.selected_k)
        assert report.scores == ref_report.scores
        assert report.dispersion == ref_report.dispersion
        np.testing.assert_allclose(dm.values, ref_dm.values, rtol=2e-15, atol=0)
    assert got[2][0].values.tobytes() == want[2][0].values.tobytes()  # theta 1 has no d0


# ---------------------------------------------------------------------------
# the distance bits, pinned
# ---------------------------------------------------------------------------

# sha256 of the little-endian values of `distance_matrices` at theta 0, 0.5
# and 1 on `_integer_panel()`, in that order
_PINNED_DIGEST = "e2a9ef1f078c6068e0c0cbfdc8f43c4681e8fbb1faecc5bc34867732bd5acfc8"

# sha256 of `fit(_integer_panel(), (0, 0.5, 1), BinningConfig(), k_range=range(2, 7))`:
# per theta in that order, the labels as little-endian int64, then the
# report's scores and dispersion as little-endian float64
_PINNED_STABILITY_DIGEST = "ad7ad76db322869b6b8aeb28a161293a7a7877804838eb0cb6715afc1eec3d50"


def _integer_panel():
    """40 x 300 values from integer arithmetic alone, each an exact float.
    Row i runs through residues modulo 1009 in steps that differ by row; every
    third row takes them modulo 17, so its values repeat and it is ranked by
    the tie rule. One far value leaves most bins empty in every series."""
    i = np.arange(40)[:, None]
    j = np.arange(300)[None, :]
    modulus = np.where(i % 3 == 0, 17, 1009)
    residue = (i * 7919 + j * (104729 + 31 * i)) % modulus - modulus // 2
    values = residue / 64.0
    values[5, 7] = 64.0
    return make_increment_panel(values)


def test_distance_digest_is_pinned():
    # the same bits on every supported numpy and scipy: the rank sums are
    # exact integers and every Hellinger entry is a sequential sum, so the
    # digest depends on no library's summation order
    panel = _integer_panel()
    matrices = distance_matrices(panel, (0.0, 0.5, 1.0), BinningConfig())
    digest = hashlib.sha256()
    for dm in matrices:
        digest.update(dm.values.astype("<f8").tobytes())
    assert digest.hexdigest() == _PINNED_DIGEST


def test_stability_digest_is_pinned():
    # every resample's distances are as exact as the full panel's, so its
    # subsample, ranks, binning and blends are pinned with the labels and
    # scores they give
    digest = hashlib.sha256()
    for _, assignment, report in fit(_integer_panel(), (0.0, 0.5, 1.0), BinningConfig(),
                                     k_range=range(2, 7)):
        digest.update(assignment.labels.astype("<i8").tobytes())
        digest.update(np.array(report.scores, dtype="<f8").tobytes())
        digest.update(np.array(report.dispersion, dtype="<f8").tobytes())
    assert digest.hexdigest() == _PINNED_STABILITY_DIGEST
