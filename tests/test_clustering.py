"""Partitioning, partition agreement, stability selection, and summaries."""
from __future__ import annotations

import itertools
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest
from scipy.cluster.hierarchy import cut_tree, linkage
from scipy.spatial.distance import squareform

import rwclust
from rwclust import (
    BinningConfig,
    ClusterAssignment,
    ClusterSummary,
    ClusterSummaryRow,
    DegenerateSampleError,
    DimensionError,
    DistanceMatrix,
    IncrementPanel,
    ParameterError,
    ValidationError,
    adjusted_rand,
    cluster,
    cluster_summary,
    distance_matrices,
    fit,
    minimal_matching,
    represent,
    stability_select_k,
)
from rwclust.clustering import _pairwise_ari, _partitions
from rwclust.distance import _blend, _parts
from rwclust.representation import _ranks, _subsample_order

from conftest import count_stable_sorts, make_increment_panel, make_level_panel


def matrix_from_points(points, ids=None):
    """Distance matrix of 1-d points under absolute difference (a metric)."""
    pts = np.asarray(points, dtype=float)
    vals = squareform(np.abs(pts[:, None] - pts[None, :]), checks=False)
    if ids is None:
        ids = tuple(f"s{i}" for i in range(len(pts)))
    return DistanceMatrix(ids=tuple(ids), values=vals, theta=0.5, meta={})


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def set_partitions(items, k):
    """All partitions of `items` into exactly k nonempty blocks."""
    items = list(items)
    if k < 1 or len(items) < k:
        return
    if k == 1:
        yield [items]
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest, k - 1):
        yield [[first]] + [list(b) for b in part]
    for part in set_partitions(rest, k):
        for i in range(len(part)):
            grown = [list(b) for b in part]
            grown[i] = [first] + grown[i]
            yield grown


def medoid_cost(d, blocks):
    """Total distance from members to the best medoid of their block."""
    total = 0.0
    for block in blocks:
        total += min(sum(d[i, j] for i in block) for j in block)
    return total


def pair_count_ari(a, b):
    """Adjusted Rand index evaluated directly from the four pair counts."""
    n = len(a)
    pairs = list(itertools.combinations(range(n), 2))
    together_a = sum(1 for i, j in pairs if a[i] == a[j])
    together_b = sum(1 for i, j in pairs if b[i] == b[j])
    together_both = sum(1 for i, j in pairs if a[i] == a[j] and b[i] == b[j])
    total = len(pairs)
    expected = together_a * together_b / total
    maximum = (together_a + together_b) / 2.0
    if maximum == expected:
        return 1.0
    return (together_both - expected) / (maximum - expected)


def exhaustive_matching_distance(a, b):
    """Minimal-matching distance by trying every cluster-to-cluster pairing."""
    a, b = list(a), list(b)
    ca, cb = sorted(set(a)), sorted(set(b))
    side = max(len(ca), len(cb))
    counts = np.zeros((side, side), dtype=int)
    for x, y in zip(a, b):
        counts[ca.index(x), cb.index(y)] += 1
    best = max(
        sum(counts[i, perm[i]] for i in range(side))
        for perm in itertools.permutations(range(side))
    )
    return (len(a) - best) / len(a)


# ---------------------------------------------------------------------------
# cluster()
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("method", ["average_linkage", "complete_linkage", "k_medoids"])
def test_well_separated_pairs(method):
    dm = matrix_from_points([0.0, 0.001, 5.0, 5.001])
    out = cluster(dm, 2, method)
    assert out.labels[0] == out.labels[1]
    assert out.labels[2] == out.labels[3]
    assert out.labels[0] != out.labels[2]
    assert out.k == 2


@pytest.mark.parametrize("method", ["average_linkage", "complete_linkage", "k_medoids"])
def test_k_equals_n_gives_singletons(method):
    dm = matrix_from_points([0.0, 1.0, 3.0, 7.0])
    out = cluster(dm, 4, method)
    assert sorted(out.labels.tolist()) == [0, 1, 2, 3]


def test_k_medoids_matches_exhaustive_search():
    # three planted pairs on a line; enumerate all 3-block partitions of 6 points
    points = [0.0, 0.05, 1.0, 1.08, 2.3, 2.41]
    dm = matrix_from_points(points)
    d = squareform(dm.values)

    best_cost = min(medoid_cost(d, p) for p in set_partitions(range(6), 3))
    out = cluster(dm, 3, "k_medoids")
    blocks = [list(np.where(out.labels == j)[0]) for j in range(3)]
    assert medoid_cost(d, blocks) == pytest.approx(best_cost, abs=1e-12)
    assert sorted(sorted(b) for b in blocks) == [[0, 1], [2, 3], [4, 5]]


def test_k_medoids_exhaustive_on_random_instance(rng):
    # k-medoids is a heuristic; on small well-spread instances it should
    # still land on the exhaustive optimum
    points = np.sort(rng.standard_normal(6)) * 3.0
    dm = matrix_from_points(points)
    d = squareform(dm.values)
    best = min(medoid_cost(d, p) for p in set_partitions(range(6), 2))
    out = cluster(dm, 2, "k_medoids")
    blocks = [list(np.where(out.labels == j)[0]) for j in range(2)]
    assert medoid_cost(d, blocks) <= best + 1e-12


def test_labels_are_canonical():
    # biggest cluster gets label 0; ties break on the smallest member id
    dm = matrix_from_points([0.0, 0.01, 0.02, 9.0], ids=("w", "x", "y", "z"))
    out = cluster(dm, 2, "average_linkage")
    assert out.labels.tolist() == [0, 0, 0, 1]

    tied = matrix_from_points([0.0, 0.01, 9.0, 9.01], ids=("b", "c", "a", "d"))
    out = cluster(tied, 2, "average_linkage")
    # sizes tie at 2; the cluster containing id "a" comes first
    assert out.labels.tolist() == [1, 1, 0, 0]


def test_assignment_canonicalizes_labels():
    out = ClusterAssignment(("a", "b", "c", "d"), [7, 7, 7, 2])
    assert out.labels.tolist() == [0, 0, 0, 1]
    assert out.k == 2
    assert (out.method, out.theta) == ("external", 0.5)


def test_assignment_stores_canonical_labels():
    # the larger cluster is labeled 0, and a gap in the labels is closed
    out = ClusterAssignment(ids=("a", "b", "c"), labels=np.array([1, 1, 0]), method="m", theta=1.0)
    assert (out.labels.tolist(), out.k) == ([0, 0, 1], 2)
    out = ClusterAssignment(ids=("a", "b"), labels=np.array([0, 2]))
    assert (out.labels.tolist(), out.k) == ([0, 1], 2)
    assert not out.labels.flags.writeable
    with pytest.raises(ValidationError, match="labels must align with ids"):
        ClusterAssignment(ids=("a", "b"), labels=np.array([0, 1, 1]))


def test_members():
    out = ClusterAssignment(("a", "b", "c"), [0, 1, 0])
    assert out.members(0) == ("a", "c")
    assert out.members(1) == ("b",)


def test_hierarchical_cuts_are_nested(rng):
    [dm] = distance_matrices(make_increment_panel(rng.standard_normal((10, 30))), (0.5,),
                             BinningConfig())
    coarse = cluster(dm, 3, "average_linkage")
    fine = cluster(dm, 4, "average_linkage")
    # every fine cluster sits inside exactly one coarse cluster
    for label in range(fine.k):
        parents = {coarse.labels[i] for i in np.where(fine.labels == label)[0]}
        assert len(parents) == 1


def test_cluster_parameter_checks():
    dm = matrix_from_points([0.0, 1.0, 2.0])
    with pytest.raises(ParameterError):
        cluster(dm, 1, "average_linkage")
    with pytest.raises(ParameterError):
        cluster(dm, 4, "average_linkage")
    with pytest.raises(ParameterError):
        cluster(dm, 2, "spectral")
    # K is an integer: 2.5 and 3.0 are refused with a ParameterError, not a
    # TypeError from the tree cut or the medoid build; numpy integers pass
    for method in ("average_linkage", "k_medoids"):
        for k in (2.5, 3.0, "3", True):
            with pytest.raises(ParameterError, match="k must be an integer"):
                cluster(dm, k, method)
        assert cluster(dm, np.int64(2), method).k == 2


def test_cluster_returns_the_k_it_was_asked_for(rng):
    # duplicate series sit at distance 0, so merge heights tie and K past
    # the distinct series splits equal points
    values = rng.standard_normal((4, 40))
    [dm] = distance_matrices(make_increment_panel(np.vstack([values, values, values[:2]])),
                             (0.5,), BinningConfig())
    assert not np.diag(squareform(dm.values)[:4, 4:8]).any()
    for method in ("average_linkage", "complete_linkage", "k_medoids"):
        for k in range(2, dm.n_series + 1):
            out = cluster(dm, k, method)
            assert out.k == k
            assert sorted(set(out.labels.tolist())) == list(range(k))


def test_cluster_deterministic(rng):
    [dm] = distance_matrices(make_increment_panel(rng.standard_normal((8, 25))), (0.5,),
                             BinningConfig())
    for method in ("average_linkage", "complete_linkage", "k_medoids"):
        a = cluster(dm, 3, method)
        b = cluster(dm, 3, method)
        assert np.array_equal(a.labels, b.labels)


def row_order_cut(tree, k):
    """Labels, numbered by first appearance, after merging the first n - k
    linkage rows in row order: the cut that ignores cut_tree's tie order."""
    n = tree.shape[0] + 1
    leaves = {i: [i] for i in range(n)}
    for r in range(n - k):
        leaves[n + r] = leaves.pop(int(tree[r, 0])) + leaves.pop(int(tree[r, 1]))
    labels = np.empty(n, dtype=np.int64)
    for label, members in enumerate(sorted(leaves.values(), key=min)):
        labels[members] = label
    return labels


@pytest.mark.parametrize("name", ["average", "complete"])
def test_cut_matches_scipy_cut_tree_on_tied_heights(name):
    # integer distances tie many merge heights, as duplicate series and
    # count data do; the cut must merge in cut_tree's order to match it
    rng = np.random.default_rng(11)
    row_order_differs = 0
    for _ in range(100):
        n = int(rng.integers(4, 14))
        d = np.triu(rng.integers(0, 5, size=(n, n)), 1).astype(float)
        d += d.T
        ks = list(range(2, n))  # a K = n column breaks cut_tree unless it comes first
        tree = linkage(squareform(d, checks=False), method=name)
        expected = cut_tree(tree, n_clusters=ks)
        condensed = squareform(d, checks=False)
        assert np.array_equal(_partitions(condensed, f"{name}_linkage", ks), expected)
        assert np.array_equal(_partitions(condensed, f"{name}_linkage", ks[::-1]),
                              expected[:, ::-1])
        row_order_differs += any(
            not np.array_equal(row_order_cut(tree, k), expected[:, col]) for col, k in enumerate(ks)
        )
    assert row_order_differs > 0


def tie_fraction(values):
    """Mean share of a row's values that repeat another value of the row."""
    return float(np.mean([1.0 - np.unique(row).size / row.size for row in values]))


@pytest.mark.parametrize("kind", ["continuous", "tied", "constant_row"])
def test_subsample_representation_equals_represent_of_the_subsample(kind):
    rng = np.random.default_rng(5)
    if kind == "tied":
        values = rng.poisson(0.05, size=(8, 400)).astype(float)
        assert tie_fraction(values) > 0.99
    else:
        values = rng.standard_normal((8, 400))
        if kind == "constant_row":
            values[2] = 1.5
    order = np.argsort(values, axis=1, kind="stable")
    binning = BinningConfig(bins=20)
    for _ in range(20):
        idx = np.sort(rng.choice(400, size=280, replace=False))
        subsample = make_increment_panel(values[:, idx])
        want = represent(subsample, binning)
        assert np.array_equal(_ranks(_subsample_order(order, idx)), want.ranks)
        # the blends a run clusters from the filtered order equal the matrices
        # of the subsample panel, whichever parts its thetas weight
        for thetas in ((0.0,), (1.0,), (0.0, 0.5, 1.0)):
            (origin, width, bins), d1sq, d0sq = _parts(
                values[:, idx], partial(_subsample_order, order, idx), binning, thetas, False, 1,
            )
            matrices = distance_matrices(subsample, thetas, binning)
            assert [dm.theta for dm in matrices] == list(thetas)
            for theta, dm in zip(thetas, matrices):
                assert dm.meta["binning"] == {"origin": origin, "width": width, "bins": bins}
                assert _blend(d1sq, d0sq, theta).tobytes() == dm.values.tobytes()


# ---------------------------------------------------------------------------
# adjusted_rand
# ---------------------------------------------------------------------------

def test_ari_identical():
    assert adjusted_rand([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0


def test_ari_relabeled():
    assert adjusted_rand([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0


def test_ari_crossed_pairs():
    a, b = [0, 0, 1, 1], [0, 1, 0, 1]
    expected = pair_count_ari(a, b)
    assert expected == pytest.approx(-0.5, abs=1e-15)  # oracle fixes the value
    assert adjusted_rand(a, b) == pytest.approx(expected, abs=1e-12)


def test_ari_matches_pair_count_oracle(rng):
    for _ in range(30):
        n = int(rng.integers(4, 12))
        a = rng.integers(0, 3, size=n)
        b = rng.integers(0, 3, size=n)
        # both implementations share one degenerate convention, so plain
        # comparison is valid everywhere
        assert adjusted_rand(a, b) == pytest.approx(
            pair_count_ari(a.tolist(), b.tolist()), abs=1e-12
        )


def test_contingency_matches_counting_loop(rng):
    from rwclust.clustering import _contingency

    for _ in range(30):
        n = int(rng.integers(1, 15))
        a = rng.choice([-3, 0, 2, 7], size=n)
        b = rng.choice(["p", "q", "r"], size=n)
        rows, cols = sorted(set(a.tolist())), sorted(set(b.tolist()))
        expected = [[0] * len(cols) for _ in rows]
        for x, y in zip(a.tolist(), b.tolist()):
            expected[rows.index(x)][cols.index(y)] += 1
        assert _contingency(a, b).tolist() == expected


def test_ari_degenerate_partitions():
    assert adjusted_rand([0, 0, 0], [5, 5, 5]) == 1.0  # one big cluster each
    assert adjusted_rand([0, 1, 2], [2, 0, 1]) == 1.0  # all singletons each


def test_ari_handles_string_labels():
    assert adjusted_rand(np.array(["x", "x", "y"]), np.array([0, 0, 1])) == 1.0


def test_ari_errors():
    with pytest.raises(DimensionError):
        adjusted_rand([0, 1], [0, 1, 2])
    with pytest.raises(DimensionError):
        adjusted_rand([], [])


def test_ari_symmetric(rng):
    a = rng.integers(0, 4, size=20)
    b = rng.integers(0, 4, size=20)
    assert adjusted_rand(a, b) == pytest.approx(adjusted_rand(b, a), abs=1e-15)


def test_ari_exact_past_float_products():
    # from about 13,800 points the product of two pair counts passes 2**53,
    # and from about 77,000 it overflows int64; the expected index must
    # still round once, as exact integer division does
    def comb2(x):
        return x * (x - 1) // 2

    gen = np.random.default_rng(3)  # its draws include quotients a float product misrounds
    for _ in range(8):
        n = int(gen.integers(20_000, 100_000))
        a = gen.integers(0, 3, size=n)
        b = np.where(gen.random(n) < 0.5, a, gen.integers(0, 3, size=n))
        agree = sum(comb2(c) for c in Counter(zip(a.tolist(), b.tolist())).values())
        pairs_a = sum(comb2(c) for c in Counter(a.tolist()).values())
        pairs_b = sum(comb2(c) for c in Counter(b.tolist()).values())
        expected = pairs_a * pairs_b / comb2(n)
        top = (pairs_a + pairs_b) / 2.0
        assert adjusted_rand(a, b) == (agree - expected) / (top - expected)


def test_ari_memory_does_not_grow_with_cluster_count():
    # contingency cells are counted over the codes that occur, so the extra
    # memory is O(runs * n) even when K is n; a table of K^2 cells per pair
    # would take 3.2 GB for 20,000 singletons, and 6 MB for 20 runs at K 199
    n = 20_000
    singletons = np.arange(n)
    tracemalloc.start()
    try:
        assert adjusted_rand(singletons, np.random.default_rng(0).permutation(n)) == 1.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * n  # measured 72 bytes per point
    runs, n = 20, 200
    gen = np.random.default_rng(1)
    labels = np.stack([gen.permutation(n) % (n - 1) for _ in range(runs)])
    tracemalloc.start()
    try:
        _pairwise_ari(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * runs * n  # measured 53 bytes per label


def test_pairwise_ari_equals_pair_count_oracle(rng):
    # exact equality: both evaluate the same formula on the same integer pair
    # counts, so every value, and the mean and spread over them, must agree bit for bit
    cases = [
        np.array([[0, 1, 1, 2], [2, 2, 0, 0]]),  # two runs, one pair
        np.array([[0] * 5, [0] * 5, [0, 1, 2, 3, 4], [4, 3, 2, 1, 0]]),  # degenerate pairs
    ]
    for _ in range(25):
        runs, n = int(rng.integers(2, 26)), int(rng.integers(3, 41))
        k = int(rng.integers(1, n + 1))
        # a stride above 1 leaves label values unused
        labels = rng.integers(0, k, size=(runs, n)) * int(rng.integers(1, 4))
        labels[rng.integers(runs)] = 0  # one cluster
        labels[rng.integers(runs)] = rng.permutation(n)  # all singletons
        cases.append(labels)
    for labels in cases:
        got = _pairwise_ari(labels)
        want = [pair_count_ari(a, b) for a, b in itertools.combinations(labels.tolist(), 2)]
        assert got.tolist() == want
        assert np.mean(got) == np.mean(want)
        assert np.std(got) == np.std(want)


# ---------------------------------------------------------------------------
# minimal_matching
# ---------------------------------------------------------------------------

def test_matching_identical_up_to_relabeling():
    assert minimal_matching([0, 0, 1, 1], [0, 0, 1, 1]) == 0.0
    assert minimal_matching([0, 0, 1, 1], [1, 1, 0, 0]) == 0.0


def test_matching_crossed_pairs():
    # any pairing of the two 2-cluster partitions explains exactly 2 points
    assert minimal_matching([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5


def test_matching_uneven_cluster_counts():
    a, b = [0, 0, 0, 1], [0, 1, 2, 2]
    assert minimal_matching(a, b) == exhaustive_matching_distance(a, b) == 0.5


def test_matching_matches_exhaustive_oracle(rng):
    for _ in range(30):
        n = int(rng.integers(4, 12))
        a = rng.integers(0, 3, size=n)
        b = rng.integers(0, 4, size=n)
        assert minimal_matching(a, b) == pytest.approx(
            exhaustive_matching_distance(a.tolist(), b.tolist()), abs=1e-12
        )


def test_matching_symmetric_and_bounded(rng):
    for _ in range(10):
        a = rng.integers(0, 4, size=20)
        b = rng.integers(0, 4, size=20)
        d = minimal_matching(a, b)
        assert d == pytest.approx(minimal_matching(b, a), abs=1e-15)
        assert 0.0 <= d < 1.0


def test_matching_errors():
    with pytest.raises(DimensionError):
        minimal_matching([0, 1], [0, 1, 2])
    with pytest.raises(DimensionError):
        minimal_matching([], [])


# ---------------------------------------------------------------------------
# stability_select_k
# ---------------------------------------------------------------------------

def duplicated_template_panel(rng, n_templates=3, m=40):
    templates = rng.standard_normal((n_templates, m))
    rows = np.repeat(templates, 2, axis=0)
    return make_increment_panel(rows)


def test_stability_prefers_planted_k(rng):
    # duplicate pairs survive any observation subsample, so K=3 is always
    # recovered identically; K=2 depends on which templates look closest
    panel = duplicated_template_panel(rng)
    [report] = stability_select_k(
        panel,
        (1.0,),
        BinningConfig(bins=10),
        k_range=[2, 3, 4],
        runs=8,
        subsample_fraction=0.7,
        seed=3,
    )
    assert report.k_range == (2, 3, 4)
    assert report.scores[report.k_range.index(3)] == 1.0
    assert report.selected_k == 3
    assert report.dispersion[report.k_range.index(3)] == 0.0


def test_stability_minimal_matching_agreement(rng):
    # identical partitions score 1 under either agreement metric, so the
    # planted K wins here too
    panel = duplicated_template_panel(rng)
    [report] = stability_select_k(
        panel,
        (1.0,),
        BinningConfig(bins=10),
        k_range=[2, 3, 4],
        runs=6,
        subsample_fraction=0.7,
        seed=3,
        agreement="minimal_matching",
    )
    assert report.selected_k == 3
    assert report.scores[report.k_range.index(3)] == 1.0


def test_stability_identical_subsamples_score_one(rng):
    # force both runs onto the same observation subset by picking a seed
    # whose two per-run streams draw identical index sets (the documented
    # scheme derives run r's stream from (seed, r))
    m, m_sub = 6, 3

    def draws(seed):
        out = []
        for run in range(2):
            stream = np.random.default_rng(np.random.SeedSequence([seed, run]))
            out.append(tuple(np.sort(stream.choice(m, size=m_sub, replace=False)).tolist()))
        return out

    seed = next(s for s in range(5000) if len(set(draws(s))) == 1)
    panel = make_increment_panel(np.random.default_rng(0).standard_normal((5, m)))
    [report] = stability_select_k(
        panel,
        (0.5,),
        BinningConfig(bins=4),
        k_range=[2, 3],
        runs=2,
        subsample_fraction=0.5,
        seed=seed,
    )
    assert report.scores == (1.0, 1.0)
    assert report.selected_k == 2  # tie resolves to the smallest K


@pytest.mark.parametrize("method", ["average_linkage", "k_medoids"])
def test_stability_scores_follow_the_definition(method):
    # run r clusters the observations that SeedSequence([seed, r]) draws; each
    # K scores the mean and spread of the ARI over all run pairs. K runs to
    # n - 1, so most columns hold many small clusters
    n, m, runs, seed, fraction = 30, 50, 25, 9, 0.7
    gen = np.random.default_rng(17)
    values = gen.standard_normal((n, m)) * gen.uniform(0.5, 2.0, size=(n, 1))
    ids = tuple(f"s{i}" for i in range(n))
    theta, binning = 0.5, BinningConfig(bins=8)
    ks = list(range(2, n))
    [report] = stability_select_k(
        IncrementPanel(ids, values), (theta,), binning, ks,
        runs=runs, subsample_fraction=fraction, seed=seed, method=method,
    )
    m_sub = int(np.floor(fraction * m))
    partitions = []
    for run in range(runs):
        stream = np.random.default_rng(np.random.SeedSequence([seed, run]))
        idx = np.sort(stream.choice(m, size=m_sub, replace=False))
        [dm] = distance_matrices(IncrementPanel(ids, values[:, idx]), (theta,), binning)
        partitions.append([cluster(dm, k, method).labels.tolist() for k in ks])
    for col in range(len(ks)):
        aris = [pair_count_ari(a[col], b[col]) for a, b in itertools.combinations(partitions, 2)]
        assert report.scores[col] == np.mean(aris)
        assert report.dispersion[col] == np.std(aris)


def test_stability_deterministic(rng):
    panel = duplicated_template_panel(rng)
    kwargs = dict(
        k_range=[2, 3], runs=4, subsample_fraction=0.6, seed=11, method="complete_linkage"
    )
    [a] = stability_select_k(panel, (1.0,), BinningConfig(bins=8), **kwargs)
    [b] = stability_select_k(panel, (1.0,), BinningConfig(bins=8), **kwargs)
    assert a == b


def test_stability_works_with_k_medoids(rng):
    panel = duplicated_template_panel(rng)
    [report] = stability_select_k(
        panel,
        (1.0,),
        BinningConfig(bins=8),
        k_range=[2, 3],
        runs=4,
        seed=5,
        method="k_medoids",
    )
    assert report.selected_k in (2, 3)


def test_stability_parameter_checks(rng, monkeypatch):
    panel = make_increment_panel(rng.standard_normal((5, 20)))
    thetas, binning = (0.5,), BinningConfig(bins=5)
    with pytest.raises(ParameterError):
        stability_select_k(panel, thetas, binning, k_range=[2, 3], runs=1)
    with pytest.raises(ParameterError):
        stability_select_k(panel, thetas, binning, k_range=[2, 3], subsample_fraction=0.4)
    for fraction in (1.0, "0.7"):
        with pytest.raises(ParameterError, match="subsample fraction"):
            stability_select_k(panel, thetas, binning, k_range=[2, 3], subsample_fraction=fraction)
    with pytest.raises(ParameterError):
        stability_select_k(panel, thetas, binning, k_range=[])
    with pytest.raises(ParameterError):
        stability_select_k(panel, thetas, binning, k_range=[1, 2])
    with pytest.raises(ParameterError):
        stability_select_k(panel, thetas, binning, k_range=[2, 5])  # n-1 == 4
    # each K is an integer, listed once
    for k_range in ([2.7, 3], ["2", "3"], [True, 3]):
        with pytest.raises(ParameterError, match="must be an integer"):
            stability_select_k(panel, thetas, binning, k_range=k_range)
    with pytest.raises(ParameterError, match="lists 3 twice"):
        stability_select_k(panel, thetas, binning, k_range=[3, 2, 3])

    # a range is refused at its first K past n-1, without being read to its end
    def huge_range():
        for k in range(2, 10**10):
            assert k <= 5, "k_range was read past its first K out of bounds"
            yield k

    with pytest.raises(ParameterError, match=r"must lie in \[2, 4\], got 5"):
        stability_select_k(panel, thetas, binning, k_range=huge_range())
    with pytest.raises(ParameterError):
        stability_select_k(panel, thetas, binning, k_range=[2, 3], seed=-1)
    # runs, seed and threads are integers, and a bool is not one
    for setting in ("runs", "seed", "threads"):
        for value in (2.5, True):
            with pytest.raises(ParameterError, match=f"{setting} must be an integer"):
                stability_select_k(panel, thetas, binning, k_range=[2, 3], **{setting: value})
    [report] = stability_select_k(panel, thetas, binning, k_range=[2, 3], runs=np.int64(2),
                                  seed=np.int64(1), threads=np.int64(2))
    assert (type(report.runs), type(report.seed)) == (int, int)
    with pytest.raises(ParameterError):
        stability_select_k(panel, thetas, binning, k_range=[2, 3], agreement="rand")
    with pytest.raises(ParameterError):
        stability_select_k(panel, thetas, binning, k_range=[2, 3], method="ward")
    # refused before the call's stable sort, whichever distance parts theta weights
    stable_sorts = count_stable_sorts(monkeypatch)
    for theta in (0.0, 0.5, 1.0):
        with pytest.raises(ParameterError, match="threads"):
            stability_select_k(panel, (theta,), binning, k_range=[2, 3], threads=0)
    assert stable_sorts == []


@pytest.mark.parametrize("method, agreement, exact", [
    ("average_linkage", "ari", False),
    ("k_medoids", "minimal_matching", False),
    ("average_linkage", "ari", True),
], ids=["average-ari", "medoids-matching", "exact-norm"])
def test_stability_params_sequence_equals_single_calls(rng, method, agreement, exact):
    # runs outer, thetas inner: each run's stream is keyed by (seed, run), so
    # one pass over three thetas scores exactly as three separate calls. The
    # calls at theta 0 and 1 compute one distance part and the pass both, so
    # the tied and constant-row panels compare them where ties and exact zeros occur
    continuous = rng.standard_normal((9, 60))
    tied = rng.poisson(0.05, size=(9, 60)).astype(float)
    constant_row = rng.standard_normal((9, 60))
    constant_row[4] = -0.5
    thetas = (0.0, 0.5, 1.0)
    binning = BinningConfig(bins=8)
    kwargs = dict(k_range=[2, 3, 4], runs=5, seed=7, method=method, agreement=agreement,
                  exact_spearman_norm=exact)
    for values in (continuous, tied, constant_row):
        panel = make_increment_panel(values)
        reports = stability_select_k(panel, thetas, binning, **kwargs)
        singles = (stability_select_k(panel, (t,), binning, **kwargs)[0] for t in thetas)
        assert reports == tuple(singles)


def test_stability_params_sequence_checks(rng):
    panel = make_increment_panel(rng.standard_normal((5, 20)))
    binning = BinningConfig(bins=5)
    with pytest.raises(ParameterError):
        stability_select_k(panel, (), binning, k_range=[2, 3])
    with pytest.raises(ParameterError, match="theta"):
        stability_select_k(panel, (0.5, 1.5), binning, k_range=[2, 3])


def test_stability_builds_no_distance_matrix(rng, monkeypatch):
    # a run clusters the blends of its parts as arrays; only distance_matrices
    # wraps a blend in a DistanceMatrix, one per theta
    built = []
    post_init = DistanceMatrix.__post_init__

    def counted(self):
        built.append(self.theta)
        post_init(self)

    monkeypatch.setattr(DistanceMatrix, "__post_init__", counted)
    panel = make_increment_panel(rng.standard_normal((9, 60)))
    thetas = (0.0, 0.5, 1.0)
    binning = BinningConfig(bins=8)
    stability_select_k(panel, thetas, binning, k_range=[2, 3, 4], runs=5)
    assert built == []
    distance_matrices(panel, thetas, binning)
    assert built == list(thetas)


def test_stability_degenerate_subsample(rng):
    # 3 observations at fraction 0.5 leaves a single-column subsample
    panel = make_increment_panel(rng.standard_normal((5, 3)))
    with pytest.raises(DegenerateSampleError):
        stability_select_k(
            panel, (0.5,), BinningConfig(bins=3), k_range=[2, 3],
            subsample_fraction=0.5,
        )


def test_stability_report_validation():
    from rwclust import StabilityReport

    # 3, the maximizer; then 2, the smaller of two tied maximizers
    for k_range, scores, selected_k in (((2, 3), (0.5, 0.9), 3), ((2, 3), (0.9, 0.9), 2),
                                        ((4, 2, 3), (0.9, 0.1, 0.9), 3)):
        report = StabilityReport(k_range=k_range, scores=scores, dispersion=(0.0,) * len(scores),
                                 runs=4, seed=0, subsample_fraction=0.7)
        assert report.selected_k == selected_k
    with pytest.raises(ValidationError, match="must align"):
        StabilityReport(k_range=(2, 3), scores=(0.5,), dispersion=(0.0, 0.0),
                        runs=4, seed=0, subsample_fraction=0.7)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("exact", [False, True], ids=["plain-norm", "exact-norm"])
@pytest.mark.parametrize("fixed_k", [True, False], ids=["k3", "k_range"])
@pytest.mark.parametrize("thetas", [(0.5,), (0.0, 0.5, 1.0), (1.0,)],
                         ids=["theta0.5", "sweep", "theta1"])
@pytest.mark.parametrize("method", ["average_linkage", "complete_linkage", "k_medoids"])
def test_fit_equals_the_three_calls(method, thetas, fixed_k, exact):
    values = np.random.default_rng(21).standard_normal((9, 60))
    values[:3] += np.random.default_rng(22).standard_normal(60)  # one dependence block
    panel = make_increment_panel(values)
    binning = BinningConfig(bins=8)
    selection = dict(runs=5, subsample_fraction=0.6, seed=4, method=method,
                     exact_spearman_norm=exact)
    k = dict(k=3) if fixed_k else dict(k_range=range(2, 5))
    fitted = fit(panel, thetas, binning, **k, **selection)

    matrices = distance_matrices(panel, thetas, binning, exact_spearman_norm=exact)
    if fixed_k:
        reports = (None,) * len(thetas)
    else:
        reports = stability_select_k(panel, thetas, binning, k["k_range"], **selection)
    assert len(fitted) == len(thetas)
    for (dm, assignment, report), want_dm, want_report in zip(fitted, matrices, reports):
        assert dm.values.tobytes() == want_dm.values.tobytes()
        assert (dm.ids, dm.theta, dm.meta) == (want_dm.ids, want_dm.theta, want_dm.meta)
        assert report == want_report
        want = cluster(want_dm, 3 if fixed_k else want_report.selected_k, method)
        assert assignment.labels.tobytes() == want.labels.tobytes()
        assert (assignment.ids, assignment.k, assignment.method, assignment.theta) == \
            (want.ids, want.k, want.method, want.theta)


def _count_parts(monkeypatch) -> list:
    """Count the calls of `_parts` by the stability pass and by fit's full panel."""
    calls = []
    for module in (rwclust.clustering, rwclust.distance):
        def counted(*args, inner=module._parts, **kwargs):
            calls.append(args[0].shape)
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, "_parts", counted)
    return calls


def test_fit_checks_first_and_sorts_at_most_once(rng, monkeypatch):
    panel = make_increment_panel(rng.standard_normal((5, 20)))  # N = 5
    short = make_increment_panel(rng.standard_normal((5, 3)))  # 1 observation at 0.5
    binning = BinningConfig(bins=5)
    stable_sorts = count_stable_sorts(monkeypatch)
    parts = _count_parts(monkeypatch)
    refused = [
        (panel, {}), (panel, dict(k=3, k_range=[2, 3])),
        (panel, dict(k=1)), (panel, dict(k=6)), (panel, dict(k=2.5)),
        (panel, dict(k_range=range(2, 6))),  # past N - 1
        (panel, dict(k_range=[2, 3], runs=1)),
        (panel, dict(k_range=[2, 3], subsample_fraction=0.4)),
        (short, dict(k_range=[2, 3], subsample_fraction=0.5)),
    ]
    for k in (dict(k=3), dict(k_range=[2, 3])):
        refused += [(panel, dict(k, method="ward")), (panel, dict(k, thetas=(0.5, 1.5))),
                    (panel, dict(k, threads=0))]
    for which, kwargs in refused:
        thetas = kwargs.pop("thetas", (0.0, 0.5, 1.0))
        with pytest.raises(ParameterError):
            fit(which, thetas, binning, **kwargs)
    assert (stable_sorts, parts) == ([], [])

    # one sort serves the stability pass and the full panel; theta 0 never sorts
    for thetas, sorts in (((0.0, 0.5, 1.0), 1), ((1.0,), 1), ((0.0,), 0)):
        for k in (dict(k=3), dict(k_range=[2, 3])):
            stable_sorts.clear()
            parts.clear()
            fit(panel, thetas, binning, **k, runs=3)
            assert stable_sorts == [(5, 20)] * sorts, (thetas, k)
            assert parts[-1] == (5, 20) and len(parts) == (1 if "k" in k else 4)


def test_stability_hands_parts_c_contiguous_subsamples(rng, monkeypatch):
    # the subsample is taken row-major, so the grid's ravel copies nothing and
    # the binning's row blocks read contiguous memory
    panel = make_increment_panel(rng.standard_normal((6, 40)))
    seen = []
    parts = rwclust.clustering._parts

    def recorded(x, *args):
        seen.append((x.shape, x.flags.c_contiguous))
        return parts(x, *args)

    monkeypatch.setattr(rwclust.clustering, "_parts", recorded)
    stability_select_k(panel, (0.0, 0.5, 1.0), BinningConfig(bins=8), k_range=[2, 3], runs=4)
    assert seen == [((6, 28), True)] * 4


# ---------------------------------------------------------------------------
# cluster_summary
# ---------------------------------------------------------------------------

def test_summary_single_constant_series():
    panel = make_level_panel([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]], ids=("a", "b"))
    assignment = ClusterAssignment(("a", "b"), [0, 1])
    summary = cluster_summary(assignment, panel)
    row = next(r for r in summary.rows if r.size == 1 and r.mean == 5.0)
    assert (row.quantile_10, row.quantile_90) == (5.0, 5.0)


def test_summary_sizes_partition_the_panel(rng):
    panel = make_level_panel(rng.standard_normal((4, 6)))
    assignment = ClusterAssignment(panel.ids, [0, 0, 1, 1])
    summary = cluster_summary(assignment, panel)
    assert summary.total_size == 4
    assert sorted(r.size for r in summary.rows) == [2, 2]


def test_summary_rows_sorted_by_decreasing_mean(rng):
    panel = make_level_panel(rng.standard_normal((6, 10)) + np.arange(6)[:, None] * 3.0)
    assignment = ClusterAssignment(panel.ids, [0, 0, 1, 1, 2, 2])
    summary = cluster_summary(assignment, panel)
    means = [r.mean for r in summary.rows]
    assert means == sorted(means, reverse=True)
    for r in summary.rows:
        assert r.quantile_10 <= r.quantile_90


def test_summary_statistics_match_pooled_oracle(rng):
    panel = make_level_panel(rng.standard_normal((4, 8)))
    assignment = ClusterAssignment(panel.ids, [0, 1, 0, 1])
    summary = cluster_summary(assignment, panel)
    for label in range(2):
        members = [i for i, sid in enumerate(panel.ids) if sid in assignment.members(label)]
        pooled = panel.values[members].ravel()
        row = next(
            r for r in summary.rows
            if r.size == len(members) and r.mean == pytest.approx(pooled.mean(), abs=1e-12)
        )
        assert row.quantile_10 == pytest.approx(np.quantile(pooled, 0.1), abs=1e-12)
        assert row.quantile_90 == pytest.approx(np.quantile(pooled, 0.9), abs=1e-12)


def test_summary_rejects_unknown_ids(rng):
    panel = make_level_panel(rng.standard_normal((2, 4)), ids=("a", "b"))
    assignment = ClusterAssignment(("a", "zz"), [0, 1])
    with pytest.raises(ValidationError):
        cluster_summary(assignment, panel)


def test_summary_row_order_enforced():
    # rows come out by decreasing mean, equal means by cluster
    rows = (
        ClusterSummaryRow(cluster=2, mean=1.0, quantile_10=0.0, quantile_90=2.0, size=2),
        ClusterSummaryRow(cluster=0, mean=3.0, quantile_10=2.0, quantile_90=4.0, size=2),
        ClusterSummaryRow(cluster=1, mean=1.0, quantile_10=0.0, quantile_90=2.0, size=1),
    )
    assert [row.cluster for row in ClusterSummary(rows=rows).rows] == [0, 1, 2]
    with pytest.raises(ValidationError):
        ClusterSummary(
            rows=(
                ClusterSummaryRow(cluster=0, mean=1.0, quantile_10=3.0, quantile_90=2.0, size=1),
            )
        )
