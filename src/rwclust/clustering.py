"""Partitioning from a distance matrix, stability-based choice of K, summaries.

The distances define everything: hierarchical linkage (average or complete)
and a deterministic k-medoids work purely on the precomputed matrix. The
number of clusters is picked by resampling observations, reclustering each
subsample, and keeping the K whose partitions agree most (mean pairwise
adjusted Rand index by default, minimal-matching agreement as an option),
ties going to the smaller K. One resampling pass scores several thetas at
once: each subsample's theta-free distance parts are built once by its
blend walk, `distance._blends`, and each theta's blend of them is clustered
as a condensed vector, as `cluster` clusters a `DistanceMatrix`'s values;
only k-medoids expands a vector to the square matrix. A run's subsample and
parts live only in its walk, so a run hands the next one its labels alone.
Only the parts some theta weights are computed, so a pass at theta 0 builds
no ranks and one at theta 1 no histograms. A pass that needs ranks sorts
the panel once: a subsample's stable order is the full order with the
dropped observations filtered out. `fit` selects K by that pass, or takes a
fixed K, and clusters the full panel per theta; the pass hands its sort to
the full panel's ranks, so a fit sorts the panel at most once. Trees are cut
with a union-find that merges in scipy's `cut_tree` order, so equal merge
heights resolve as `cut_tree` resolves them. Each K's adjusted Rand
indices for all run pairs come from one vectorised pass per run, over the
pairs it opens; `adjusted_rand` is that pass applied to two partitions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from numbers import Real
from typing import Sequence

import numpy as np

from .distance import (
    DistanceMatrix,
    _blends,
    _check_thetas,
    _check_threads,
    _matrices,
    _weighted_parts,
)
from .errors import (
    DegenerateSampleError, DimensionError, ParameterError, ValidationError, _integer,
)
from .ingestion import IncrementPanel
from .representation import BinningConfig, _order, _subsample_order

CLUSTER_METHODS = ("average_linkage", "complete_linkage", "k_medoids")

_LINKAGE_NAME = {"average_linkage": "average", "complete_linkage": "complete"}


@dataclass(frozen=True)
class ClusterAssignment:
    """A partition of the panel's series into k nonempty clusters.

    Any labels, one per id, are stored canonically: clusters are numbered by
    decreasing size, ties broken by the smallest member id, so equal
    partitions always carry identical label arrays; k is their count.
    """

    ids: tuple[str, ...]
    labels: np.ndarray
    k: int = field(init=False)
    method: str = "external"
    theta: float = 0.5

    def __post_init__(self):
        if np.shape(self.labels) != (len(self.ids),):
            raise ValidationError("labels must align with ids")
        groups: dict = {}
        for i, lab in enumerate(np.asarray(self.labels).tolist()):
            groups.setdefault(lab, []).append(i)
        ordered = sorted(groups.values(), key=lambda m: (-len(m), min(self.ids[i] for i in m)))
        labels = np.empty(len(self.ids), dtype=np.int64)
        for new, members in enumerate(ordered):
            labels[members] = new
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "k", len(groups))

    def members(self, label: int) -> tuple[str, ...]:
        return tuple(i for i, l in zip(self.ids, self.labels) if l == label)


def _kmedoids_labels(d: np.ndarray, k: int) -> np.ndarray:
    """Alternating k-medoids on a distance matrix, fully deterministic.

    Build: first medoid is the medoid of the whole set, the rest are added
    greedily farthest-first; all ties resolve to the smallest index.
    """
    n = d.shape[0]
    medoids = [int(np.argmin(d.sum(axis=0)))]
    while len(medoids) < k:
        nearest = d[:, medoids].min(axis=1)
        nearest[medoids] = -1.0  # never re-pick a medoid
        medoids.append(int(np.argmax(nearest)))

    labels = np.empty(n, dtype=np.int64)
    for _ in range(200):  # alternation stops once the medoids repeat; 200 only bounds it
        labels = np.argmin(d[:, medoids], axis=1)
        labels[medoids] = np.arange(k)  # anchor each medoid to its own cluster
        new_medoids = []
        for j in range(k):
            members = np.where(labels == j)[0]
            within = d[np.ix_(members, members)].sum(axis=1)
            new_medoids.append(int(members[np.argmin(within)]))
        if new_medoids == medoids:
            break
        medoids = new_medoids
    labels = np.argmin(d[:, medoids], axis=1)
    labels[medoids] = np.arange(k)
    return labels


def _check_k(k, n: int) -> int:
    """`k` as an int; raises unless it is an integer in [2, n]."""
    k = _integer(k, "k")
    if not 2 <= k <= n:
        raise ParameterError(f"k must lie in [2, {n}], got {k}")
    return k


def _check_method(method: str) -> None:
    if method not in CLUSTER_METHODS:
        raise ParameterError(f"unknown method {method!r}; expected one of {CLUSTER_METHODS}")


def _cut(tree: np.ndarray, ks) -> np.ndarray:
    """Labels of the linkage `tree` cut into k clusters for each k of `ks`,
    one column per k, array-equal to scipy's cut_tree(tree, n_clusters=ks).

    Merges go in cut_tree's order: by height, and among equal heights the
    row that a right-child-first breadth-first walk from the root visits
    later goes first (a child before its parent). Labels are numbered by
    first appearance. Needs a monotone tree, as average and complete
    linkage give.
    """
    n = tree.shape[0] + 1
    children = tree[:, :2].astype(np.int64)
    visit = np.empty(n - 1, dtype=np.int64)
    queue = [2 * n - 2]
    for pos, node in enumerate(queue):  # the queue grows while it is walked
        if node >= n:
            visit[node - n] = pos
            queue.extend(children[node - n, ::-1].tolist())
    order = np.lexsort((-visit, tree[:, 2]))
    # parent[node] is the newest merge over node so far; pointer doubling
    # takes every leaf to the cluster it sits in after the merges applied
    parent = np.arange(2 * n - 1)
    labels = np.empty((n, len(ks)), dtype=np.int64)
    leaves = np.arange(n)
    done = 0
    for col in np.argsort(ks)[::-1]:
        rows = order[done:n - ks[col]]
        parent[children[rows]] = (n + rows)[:, None]
        done = n - ks[col]
        root = parent
        while not np.array_equal(nxt := root[root], root):
            root = nxt
        # each leaf's cluster is numbered by the cluster's first leaf: the
        # clusters whose first leaf comes no later, less one
        first = np.full(2 * n - 1, n)
        np.minimum.at(first, root[:n], leaves)
        f = first[root[:n]]
        labels[:, col] = np.cumsum(f == leaves)[f] - 1
    return labels


def _partitions(dists: np.ndarray, method: str, ks) -> np.ndarray:
    """Raw labels of the distances `dists`, a condensed vector in scipy's
    pair order, cut into k clusters for each k of `ks`, one column per k
    (one linkage tree serves every k, cut in scipy cut_tree's merge order,
    labels numbered as cut_tree numbers them). Linkage takes the vector as
    it is; k-medoids expands it to the square matrix, for `cluster` and
    stability resamples alike."""
    if method == "k_medoids":
        from scipy.spatial.distance import squareform  # loaded on first use, not by import rwclust

        square = squareform(dists, checks=False)
        return np.column_stack([_kmedoids_labels(square, k) for k in ks])
    # loaded on first use, not by import rwclust: synth, represent and distances cut no tree
    from scipy.cluster.hierarchy import linkage

    return _cut(linkage(dists, method=_LINKAGE_NAME[method]), ks)


def cluster(
    matrix: DistanceMatrix,
    k: int,
    method: str = "average_linkage",
) -> ClusterAssignment:
    """Partition the panel into k clusters from its distance matrix; k is an
    integer in [2, N].

    Every method is deterministic given its inputs; the k-medoids build step
    needs no randomness. Linkage clusters the matrix's condensed vector as it
    is; k-medoids expands it to the square.
    """
    _check_method(method)
    k = _check_k(k, matrix.n_series)
    labels = _partitions(matrix.values, method, [k])[:, 0]
    return ClusterAssignment(
        ids=matrix.ids,
        labels=labels,
        method=method,
        theta=matrix.theta,
    )


def _compressed(labels_a, labels_b) -> tuple[np.ndarray, np.ndarray]:
    """Both partitions with their labels renumbered 0, 1, ... in sorted order."""
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    if a.shape != b.shape:
        raise DimensionError(f"partitions differ in length: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] == 0:
        raise DimensionError("cannot compare empty partitions")
    return np.unique(a, return_inverse=True)[1], np.unique(b, return_inverse=True)[1]


def _contingency(labels_a, labels_b) -> np.ndarray:
    ia, ib = _compressed(labels_a, labels_b)
    cols = ib.max() + 1
    return np.bincount(ia * cols + ib, minlength=(ia.max() + 1) * cols).reshape(-1, cols)


def _comb2(x):
    return x * (x - 1) // 2


def _pairwise_ari(labels: np.ndarray) -> np.ndarray:
    """Adjusted Rand index of every pair of rows of `labels`, an R x n array
    of labels in 0..K-1, in itertools.combinations order.

    Pairs are grouped by their first row a: each point's contingency cell
    against every later row b is coded as (b - a - 1, label in a, label in
    b), and one np.unique counts the cells of all those pairs. The extra
    memory is O(R * n), whatever K is.
    """
    runs, n = labels.shape
    k = int(labels.max()) + 1
    agree = []
    for a in range(runs - 1):
        later = labels[a + 1:]
        codes = (np.arange(later.shape[0])[:, None] * k + labels[a]) * k + later
        cells, counts = np.unique(codes, return_counts=True)
        # integer sums below 2**53, so the float weights add exactly
        agree.append(
            np.bincount(cells // (k * k), weights=_comb2(counts), minlength=later.shape[0])
        )
    sizes = np.bincount((np.arange(runs)[:, None] * k + labels).ravel(), minlength=runs * k)
    pairs = _comb2(sizes).reshape(runs, k).sum(axis=1)
    first, second = np.triu_indices(runs, 1)
    # pa * pb / total with Python ints, which round the exact quotient once:
    # the products pass 2**53 from about 13,800 points and overflow int64
    # from about 77,000. total is 0 only for n = 1, where every count is 0
    total = max(_comb2(n), 1)
    expected = np.array([
        pa * pb / total for pa, pb in zip(pairs[first].tolist(), pairs[second].tolist())
    ])
    top = (pairs[first] + pairs[second]) / 2.0
    # top == expected only when both partitions are degenerate and identical
    return np.divide(
        np.concatenate(agree) - expected, top - expected,
        out=np.ones(first.size), where=top != expected,
    )


def adjusted_rand(labels_a, labels_b) -> float:
    """Chance-corrected Rand index; 1 iff the partitions agree up to relabeling."""
    return float(_pairwise_ari(np.stack(_compressed(labels_a, labels_b)))[0])


def minimal_matching(labels_a, labels_b) -> float:
    """Share of points left unexplained by the best cluster-to-cluster matching.

    Pairs up clusters across the two partitions so as to cover as many points
    as possible (rectangular assignment on the contingency table); the
    distance is the uncovered fraction. 0 iff the partitions agree up to
    relabeling. Unlike the adjusted Rand index it is not chance-corrected.
    """
    from scipy.optimize import linear_sum_assignment  # loaded on first use, not by import rwclust

    table = _contingency(labels_a, labels_b)
    rows, cols = linear_sum_assignment(table, maximize=True)
    matched = int(table[rows, cols].sum())
    n = int(table.sum())
    return float((n - matched) / n)


def _read_k_range(k_range, n: int) -> list[int]:
    """The K values of `k_range`, sorted; each is checked as it is read, so
    a range is refused at its first K outside [2, n - 1] without being listed."""
    ks = set()
    for k in k_range:
        k = _integer(k, "a K of k_range")
        if not 2 <= k <= n - 1:
            raise ParameterError(f"k_range must lie in [2, {n - 1}], got {k}")
        if k in ks:
            raise ParameterError(f"k_range lists {k} twice")
        ks.add(k)
    if not ks:
        raise ParameterError("k_range must not be empty")
    return sorted(ks)


def _check_resampling(runs: int, subsample_fraction: float, seed: int) -> tuple[int, int]:
    """`runs` and `seed` as ints; raises unless stability_select_k's
    resampling settings are in range."""
    runs, seed = _integer(runs, "runs"), _integer(seed, "seed")
    if runs < 2:
        raise ParameterError(f"runs must be >= 2, got {runs}")
    if not (isinstance(subsample_fraction, Real) and 0.5 <= subsample_fraction < 1.0):
        raise ParameterError(f"subsample fraction must lie in [0.5, 1), got {subsample_fraction}")
    if seed < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    return runs, seed


def _pairwise_matching(labels: np.ndarray) -> np.ndarray:
    """1 - minimal_matching of every pair of rows of `labels`, in
    itertools.combinations order."""
    first, second = np.triu_indices(len(labels), 1)
    return np.array([1.0 - minimal_matching(labels[a], labels[b]) for a, b in zip(first, second)])


# agreement of every pair of runs, from one K column's runs x n label array:
# 1 iff the two partitions match up to relabeling
_AGREEMENT = {
    "ari": _pairwise_ari,
    "minimal_matching": _pairwise_matching,
}


@dataclass(frozen=True)
class StabilityReport:
    """Per-K agreement scores from resampled clustering; selected_k is the smallest top-scoring K."""

    k_range: tuple[int, ...]
    scores: tuple[float, ...]
    dispersion: tuple[float, ...]
    selected_k: int = field(init=False)
    runs: int
    seed: int
    subsample_fraction: float

    def __post_init__(self):
        if not (len(self.k_range) == len(self.scores) == len(self.dispersion)):
            raise ValidationError("k_range, scores, and dispersion must align")
        best = max(self.scores)
        object.__setattr__(self, "selected_k",
                           min(k for k, s in zip(self.k_range, self.scores) if s == best))


def stability_select_k(
    panel: IncrementPanel,
    thetas: Sequence[float],
    binning: BinningConfig,
    k_range,
    runs: int = 20,
    subsample_fraction: float = 0.7,
    seed: int = 0,
    method: str = "average_linkage",
    threads: int = 1,
    agreement: str = "ari",
    exact_spearman_norm: bool = False,
) -> tuple[StabilityReport, ...]:
    """Pick the cluster count whose partitions replicate best under resampling.

    `k_range` holds the candidate K values, distinct integers in [2, N - 1].
    Draws `runs` observation subsamples (over the time axis, the series set
    stays fixed). Each subsample's theta-free distance parts are computed
    once, under the d1 normalization `exact_spearman_norm` picks; for every
    theta of `thetas` they are blended at that theta and clustered. A part
    is computed only when some theta weights it: the rank part when a theta
    is above 0, the histogram part when one is below 1, so a call at theta
    0 never sorts the panel. Otherwise the panel is sorted once, and each
    subsample's ranks come from that sort with the dropped observations
    filtered out. Every K is scored by the mean
    pairwise agreement between the partitions of the runs: adjusted Rand
    index by default, or 1 - minimal_matching with
    agreement="minimal_matching". The adjusted Rand indices of one K for
    all run pairs come from one vectorised pass per run, over its pairs
    with every later run; minimal matching solves one assignment per run
    pair. Each run's random stream derives from (seed, run index), so
    results do not depend on scheduling. Returns one report per theta, in
    the order of `thetas`; each is the report a call with that theta alone
    would give.
    """
    return _stability_pass(panel, thetas, binning, k_range, runs, subsample_fraction, seed,
                           method, threads, agreement, exact_spearman_norm)[0]


def _stability_pass(panel, thetas, binning, k_range, runs, subsample_fraction, seed, method,
                    threads, agreement, exact_spearman_norm):
    """`stability_select_k`'s reports, and a one-item list that holds the
    stable order of the whole panel (None when no theta weights ranks), so
    that a caller can pop it and leave the list the order's only owner."""
    thetas = _check_thetas(thetas)
    n, m = panel.n_series, panel.n_obs
    runs, seed = _check_resampling(runs, subsample_fraction, seed)
    threads = _check_threads(threads)
    ks = _read_k_range(k_range, n)
    _check_method(method)
    if agreement not in _AGREEMENT:
        raise ParameterError(f"unknown agreement {agreement!r}; expected one of {tuple(_AGREEMENT)}")
    m_sub = int(np.floor(subsample_fraction * m))
    if m_sub < 2:
        raise DegenerateSampleError(
            f"subsample of {m_sub} observations is too small to represent"
        )

    # the one sort of the call, made only when some theta weights the rank part
    order = _order(panel.values) if _weighted_parts(thetas)[0] else None
    partitions = [[] for _ in thetas]  # per theta, one n x len(ks) label array per run
    for run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence([seed, run]))
        idx = np.sort(rng.choice(m, size=m_sub, replace=False))
        # np.take keeps the subsample C-contiguous, where values[:, idx] is
        # column-major, so the grid and the row-blocked binning read it in
        # order. Only the walk holds the subsample and the parts, so they die
        # within the run, which hands the next run its labels alone
        walk = _blends(np.take(panel.values, idx, axis=1), binning,
                       partial(_subsample_order, order, idx), thetas, exact_spearman_norm, threads)
        next(walk)
        # labels lie below n, so int32 halves what the runs hold until scoring
        cuts = [_partitions(blend, method, ks).astype(np.int32) for blend in walk]
        for runs_of_t, labels in zip(partitions, cuts):
            runs_of_t.append(labels)

    reports = []
    for runs_of_t in partitions:
        scores, spreads = [], []
        for col in range(len(ks)):
            agreements = _AGREEMENT[agreement](np.stack([labels[:, col] for labels in runs_of_t]))
            scores.append(float(np.mean(agreements)))
            spreads.append(float(np.std(agreements)))
        reports.append(StabilityReport(
            k_range=tuple(ks),
            scores=tuple(scores),
            dispersion=tuple(spreads),
            runs=runs,
            seed=seed,
            subsample_fraction=subsample_fraction,
        ))
    return tuple(reports), [order]


def fit(panel: IncrementPanel, thetas: Sequence[float], binning: BinningConfig, k=None,
        k_range=None, runs: int = 20, subsample_fraction: float = 0.7, seed: int = 0,
        method: str = "average_linkage", threads: int = 1, agreement: str = "ari",
        exact_spearman_norm: bool = False,
        ) -> tuple[tuple[DistanceMatrix, ClusterAssignment, StabilityReport | None], ...]:
    """Cluster the panel at a fixed K, or at the K stability selection picks, per theta.

    Takes exactly one of `k`, an integer in [2, N], and `k_range`; the other
    keywords are `stability_select_k`'s, and a fixed `k` leaves `runs`,
    `subsample_fraction`, `seed` and `agreement` unused. Returns, per theta
    of `thetas`, the distance matrix, its partition into the K and the
    stability report (None for a fixed K): what `distance_matrices`,
    `stability_select_k` and `cluster` give when called in turn. Every
    setting, K included, is checked before the panel is sorted, and it is
    sorted at most once: the stability pass hands its order to the full
    panel's ranks.
    """
    if (k is None) == (k_range is None):
        raise ParameterError("fit takes exactly one of k and k_range")
    thetas = _check_thetas(thetas)
    if k_range is None:
        threads = _check_threads(threads)
        _check_method(method)
        ks = (_check_k(k, panel.n_series),) * len(thetas)
        reports, order = (None,) * len(thetas), None
    else:
        reports, orders = _stability_pass(panel, thetas, binning, k_range, runs,
                                          subsample_fraction, seed, method, threads,
                                          agreement, exact_spearman_norm)
        ks = tuple(report.selected_k for report in reports)
        order = orders.pop  # the order dies in the full panel's _ranks
    matrices = _matrices(panel, thetas, binning, exact_spearman_norm, threads, order)
    return tuple((matrix, cluster(matrix, k, method), report)
                 for matrix, k, report in zip(matrices, ks, reports))


@dataclass(frozen=True)
class ClusterSummaryRow:
    cluster: int
    mean: float
    quantile_10: float
    quantile_90: float
    size: int


@dataclass(frozen=True)
class ClusterSummary:
    """Per-cluster pooled-observation statistics, rows sorted by (-mean, cluster)."""

    rows: tuple[ClusterSummaryRow, ...]

    def __post_init__(self):
        for row in self.rows:
            if row.quantile_10 > row.quantile_90:
                raise ValidationError(f"cluster {row.cluster}: quantile_10 > quantile_90")
        object.__setattr__(self, "rows", tuple(sorted(self.rows, key=lambda r: (-r.mean, r.cluster))))

    @property
    def total_size(self) -> int:
        return sum(row.size for row in self.rows)


def cluster_summary(assignment: ClusterAssignment, panel) -> ClusterSummary:
    """Pool each cluster's member observations and report mean, 10%/90% quantiles, size.

    `panel` may hold levels or increments; quantiles use linear interpolation
    between order statistics. Size counts member series.
    """
    panel_ids = {sid: i for i, sid in enumerate(panel.ids)}
    missing = [sid for sid in assignment.ids if sid not in panel_ids]
    if missing:
        raise ValidationError(f"assignment ids not in panel: {', '.join(missing)}")
    rows = []
    for label in range(assignment.k):
        members = [panel_ids[sid] for sid in assignment.members(label)]
        pooled = panel.values[members].ravel()
        q10, q90 = np.quantile(pooled, [0.1, 0.9])
        rows.append(
            ClusterSummaryRow(
                cluster=label,
                mean=float(pooled.mean()),
                quantile_10=float(q10),
                quantile_90=float(q90),
                size=len(members),
            )
        )
    return ClusterSummary(rows=rows)
