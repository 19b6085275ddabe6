"""Blended dependence/distribution distances between represented series.

For two series with rank vectors rx, ry (length M) and histogram masses
px, py on a shared grid, the squared empirical components are

    dep. part:   d1^2 = 3 / (M^2 (M-1)) * sum_i (rx[i] - ry[i])^2
    dist. part:  d0^2 = 1/2 * sum_k (sqrt(px[k]) - sqrt(py[k]))^2

and the blend is d_theta = sqrt(theta * d1^2 + (1-theta) * d0^2) for
theta in [0, 1]. d0 is the Hellinger distance between the binned margins,
bounded by 1; d1 is a rank-correlation distance whose square reaches
(M+1)/M under the normalization above. The optional exact Spearman
normalization 3 / (M (M^2-1)) caps d1 at 1 instead. For 0 < theta < 1 the
blend is a metric on the representation; at the endpoints only the
separation axiom is lost.

The pairwise kernel works on the N x M rank matrix and the N x B mass
matrix in two parts, and stores each as a condensed vector of the
N (N-1) / 2 pairs i < j in scipy's order (row 0's pairs, then row 1's, ...),
as every blend and `DistanceMatrix` is stored; only k-medoids expands a
vector to the N x N square, and the CLI's writers take one row at a time.
Both parts fill their vector by one walk, `_upper_pairs`, over row blocks
of the upper triangle (each block of rows against every row from the
block's first on), each block scaled and copied into its rows' slices:

- Ranks, by the Gram identity. Every rank row is a permutation of 1..M, so
  sum_i (rx[i] - ry[i])^2 = 2 S - 2 rx.ry with S = M (M+1) (2M+1) / 6. A
  block's inner products rx.ry come from float64 matrix products per chunk
  of columns, with chunks narrow enough (chunk * M^2 < 2^53) that every
  partial sum BLAS forms is an integer below 2^53, so each is exact
  whatever the summation order; chunks are accumulated in int64. The rank
  sums are therefore exact integers, identical for any BLAS thread count
  or block split, for M up to 3 024 616, past which S leaves int64 and the
  kernel refuses the panel. Every panel with M up to about 2 * 10^5 is one
  chunk. The rank blocks run on the calling thread.
- Masses, by sequential sums over occupied bins. The Hellinger part takes
  the square roots of the bins that hold mass in some series (about half of
  the 101 default bins on a typical panel), and each block is scipy's
  compiled `cdist(..., "sqeuclidean")`. Each entry is the sequential sum, in
  bin order, of (sqrt(px[k]) - sqrt(py[k]))^2, then halved: the bits of the
  scalar loop `s += d * d` over the bins, for any block size and any
  `threads` split of the blocks. Dropping the bins that are empty in every
  series is exact, since each adds +0.0 to a nonnegative sum. The Gram
  form 1 - sum sqrt(px py) is not used: it loses the exact zero of
  identical pairs.

Neither part depends on theta. `_parts` computes the grid and both squared
parts of an N x M value matrix once, and `_blend`, the one place a theta
meets the parts, takes an element-wise square root per theta; the last
theta's blend is written over the parts, with the same bits, so a call at
one theta holds two condensed vectors, not four. Only
`_matrices`, behind `distance_matrices(panel, thetas, binning)` and
`clustering.fit`, wraps its blends in a `DistanceMatrix`, each as it is;
`fit` hands it the stability pass's sort of the panel. A stability resample
clusters `_blend` of its subsample's `_parts` without the wrapper. A
condensed blend stands for a symmetric matrix with a zero diagonal by
construction, and the exact integer Gram sums keep it nonnegative and
within the entry bound.

A blend at theta weights d1^2 only when theta > 0 and d0^2 only when
theta < 1 (`_weighted_parts`), and only the parts that some theta weights
are built: at theta 0 no rank matrix (and no sort), at theta 1 no
histogram. `_parts` composes the helpers that `represent` composes, so the
parts it builds come from the same bits as a representation's. It checks
none of them, since they are a permutation and a histogram per row by
construction; `distance_matrices`, `stability_select_k` and `fit` check
their settings, `threads` included, once per call before anything is built.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from numbers import Real
from typing import Any, Callable, Sequence

import numpy as np

from .errors import ParameterError, ValidationError, _integer
from .ingestion import IncrementPanel
from .representation import BinningConfig, _masses, _order, _ranks, shared_grid

BOUND_TOL = 1e-9  # slack on the theoretical entry bound, covers sqrt rounding


def _check_thetas(thetas: Sequence[float]) -> tuple[float, ...]:
    """`thetas` as a tuple; raises unless it is a nonempty sequence of real
    numbers, each in [0, 1]; a bool is not a theta."""
    if not isinstance(thetas, Iterable):
        raise ParameterError(f"thetas must be a sequence of numbers, got {thetas!r}")
    thetas = tuple(thetas)
    if not thetas:
        raise ParameterError("thetas must hold at least one theta")
    for theta in thetas:
        if isinstance(theta, bool) or not isinstance(theta, Real):
            raise ParameterError(f"theta must be a real number, got {theta!r}")
        if not 0.0 <= theta <= 1.0:
            raise ParameterError(f"theta must lie in [0, 1], got {theta}")
    return thetas


@dataclass(frozen=True)
class DistanceMatrix:
    """Blended distances over a panel, one per pair of series.

    `values` is the condensed vector of the N (N-1) / 2 pairs i < j in
    scipy's order: the pair (i, j) sits at i (2N - i - 1) / 2 + j - i - 1.
    `scipy.spatial.distance.squareform(values)` gives the symmetric N x N
    matrix with its zero diagonal.
    """

    ids: tuple[str, ...]
    values: np.ndarray
    theta: float
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        pairs = len(self.ids) * (len(self.ids) - 1) // 2
        if v.shape != (pairs,):
            raise ValidationError(f"expected a condensed vector of {pairs} pairs, got shape {v.shape}")
        if not (v >= 0).all():  # NaN too
            raise ValidationError("distances must be nonnegative")
        bound = self.entry_bound()
        if bound is not None and float(v.max(initial=0.0)) > bound + BOUND_TOL:
            raise ValidationError(f"distance {v.max()!r} exceeds the bound {bound!r}")
        v.setflags(write=False)

    def entry_bound(self) -> float | None:
        """Largest possible entry given theta, M, and the d1 normalization."""
        m = self.meta.get("m")
        if m is None:
            return None
        d1_max_sq = 1.0 if self.meta.get("exact_spearman_norm") else (m + 1) / m
        return float(np.sqrt(self.theta * d1_max_sq + (1.0 - self.theta)))

    @property
    def n_series(self) -> int:
        return len(self.ids)


# pair sums per row block of the rank Gram products: 2 MB of float64, with
# rows enough that BLAS runs near its full speed
_GRAM_CELLS = 1 << 18

# pair sums per row block of the Hellinger part: 512 KB of float64, the
# block `cdist` writes before its rows are copied into the condensed vector
_HELLINGER_CELLS = 1 << 16

# below this many rows the Hellinger blocks run on the calling thread: a
# panel has too few blocks to share, the first holding most of the pairs
# (2 threads on 2 vCPUs, 500 increments: 5.0 -> 5.0 ms at 300 rows, then
# 11.6 -> 6.5 ms at 500, 32 -> 21 ms at 1000, 131 -> 78 ms at 2000)
_POOL_MIN_ROWS = 500


def _row_start(i: int, n: int) -> int:
    """Position of the pair (i, i + 1) in the condensed vector of n points,
    scipy's order: row i's pairs (i, j > i) follow those of rows 0..i-1."""
    return i * (2 * n - i - 1) // 2


def _square_rows(values: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """The rows of the symmetric n x n matrix with a zero diagonal whose
    condensed vector is `values`, one at a time in one buffer: each row is
    overwritten by the next, so a reader holds n values, not n^2."""
    starts = _row_start(np.arange(n), n)
    row = np.empty(n)
    for i in range(n):
        # the pair (j, i) of a row j < i sits at _row_start(j, n) + i - j - 1
        row[:i] = values[starts[:i] + i - 1 - np.arange(i)]
        row[i] = 0.0
        row[i + 1 :] = values[starts[i] : starts[i] + n - i - 1]
        yield row


def _upper_pairs(n: int, cells: int, block: Callable[[int, int], np.ndarray],
                 threads: int) -> np.ndarray:
    """The condensed vector of n points from `block(lo, hi)`, the values of
    rows lo..hi-1 against rows lo..n-1, at most `cells` of them per block
    unless a block is one row. `threads` splits the blocks from
    `_POOL_MIN_ROWS` points on; each block fills only its own rows' pairs."""
    out = np.empty(n * (n - 1) // 2)
    rows = max(1, cells // n)

    def fill(lo: int) -> None:
        hi = min(lo + rows, n - 1)
        sq = block(lo, hi)
        for r, i in enumerate(range(lo, hi)):
            start = _row_start(i, n)
            out[start : start + n - i - 1] = sq[r, r + 1 :]

    blocks = range(0, n - 1, rows)
    threads = min(threads, len(blocks))  # more workers than blocks would idle
    if threads <= 1 or n < _POOL_MIN_ROWS:
        for lo in blocks:
            fill(lo)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, blocks))
    return out


def _rank_sums(ranks: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Exact sum_i (r_a[i] - r_b[i])^2 of rows a in lo..hi-1 against rows
    b in lo..N-1 of an N x M permutation matrix (of ints or floats), as an
    int64 array of (hi - lo) x (N - lo) sums. M is at most 3 024 616."""
    n, m = ranks.shape
    s = m * (m + 1) * (2 * m + 1) // 6  # sum of squares of 1..M, bounds every entry below
    chunk = max(1, (2**53 - 1) // (m * m))
    sums = np.zeros((hi - lo, n - lo), dtype=np.int64)
    gram = np.empty((hi - lo, n - lo))
    for c in range(0, m, chunk):
        cols = np.asarray(ranks[:, c : c + chunk], dtype=float)  # float ranks: no copy
        rb = cols[lo:hi]
        # the square on the diagonal (one symmetric product, as BLAS takes
        # rb @ rb.T) beside the rest
        np.matmul(rb, rb.T, out=gram[:, : hi - lo])
        np.matmul(rb, cols[hi:].T, out=gram[:, hi - lo :])
        # the exact integer products are cast on the way into the int64 sum
        np.add(sums, gram, out=sums, dtype=np.int64, casting="unsafe")
    np.subtract(s, sums, out=sums)
    sums *= 2
    return sums


def _weighted_parts(thetas) -> tuple[bool, bool]:
    """Which squared parts blends at `thetas` weight, as (d1^2, d0^2).

    theta > 0 needs d1^2 and theta < 1 needs d0^2; a part no theta weights
    is never computed, so a call at theta 0 never sorts its panel.
    """
    return any(t > 0.0 for t in thetas), any(t < 1.0 for t in thetas)


def _d1sq(ranks: np.ndarray, exact_spearman_norm: bool) -> np.ndarray:
    """The scaled rank part d1^2 of every pair of rows of an N x M
    permutation matrix, as a condensed vector; raises for M beyond 3 024 616."""
    n, m = ranks.shape
    if m * (m + 1) * (2 * m + 1) // 6 > np.iinfo(np.int64).max:
        raise ValidationError(f"series of {m} increments are too long for exact int64 rank sums")
    factor = 3.0 / (m * (m * m - 1)) if exact_spearman_norm else 3.0 / (m * m * (m - 1))
    return _upper_pairs(n, _GRAM_CELLS, lambda lo, hi: _rank_sums(ranks, lo, hi) * factor, 1)


def _d0sq(masses: np.ndarray, threads: int) -> np.ndarray:
    """The Hellinger part d0^2 of every pair of rows of an N x B mass
    matrix, as a condensed vector."""
    from scipy.spatial.distance import cdist  # loaded on first use, not by import rwclust

    a = masses[:, masses.any(axis=0)]  # the occupied bins, as a copy
    np.sqrt(a, out=a)

    def block(lo: int, hi: int) -> np.ndarray:
        return 0.5 * cdist(a[lo:hi], a[lo:], "sqeuclidean")

    return _upper_pairs(a.shape[0], _HELLINGER_CELLS, block, threads)


def _check_threads(threads: int) -> int:
    """`threads` as an int; raises unless it is an integer >= 1."""
    threads = _integer(threads, "threads")
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    return threads


def _blend(d1sq, d0sq, theta: float, consume: bool = False) -> np.ndarray:
    """The condensed distances at `theta` from the squared parts.

    A part that no theta weights enters as the scalar 0.0, which gives the
    same bits as the computed part times the zero weight, since 0.0 * d is
    +0.0 for every finite d >= 0. With `consume` the blend is written over
    the parts, which hold garbage afterwards: the last blend of a set of
    parts allocates nothing.
    """
    if consume:
        # the same element operations in the same order, so the same bits (a
        # scalar part is rebound, an array scaled in place); IEEE addition
        # commutes, so the sum may land in either part. It lands in the
        # Hellinger part when there is one: summing into the rank part, which
        # is allocated before the rank matrix is freed, left a 1000 x 1000
        # pipeline's ru_maxrss 7 MB higher in 2 of 3 benchmark runs (108.6 MB
        # against 101.4)
        d1sq *= theta
        d0sq *= 1.0 - theta
        out, other = (d0sq, d1sq) if isinstance(d0sq, np.ndarray) else (d1sq, d0sq)
        out += other
        return np.sqrt(out, out=out)
    # summed and rooted in place, so a blend holds two condensed arrays at
    # most besides the parts, whether or not numpy elides temporaries
    out = theta * d1sq
    out += (1.0 - theta) * d0sq
    return np.sqrt(out, out=out)


def _parts(
    x: np.ndarray,
    order: Callable[[], np.ndarray],
    binning: BinningConfig,
    thetas: tuple[float, ...],
    exact_spearman_norm: bool,
    threads: int,
) -> tuple[tuple[float, float, int], Any, Any]:
    """The grid and the squared parts (d1^2, d0^2) of the N x M values `x`,
    computing only the parts that `thetas` weight; a part no theta weights
    is the scalar 0.0, which `_blend` takes as it takes an array.

    `order()` gives the stable argsort of x's rows and is called only for
    the rank part. The grid is built at every theta, so its errors do not
    depend on which parts are computed. The callers check `thetas` and
    `threads`.
    """
    needs_d1sq, needs_d0sq = _weighted_parts(thetas)
    grid = shared_grid(x, binning)
    d1sq = d0sq = 0.0
    if needs_d1sq:
        ranks = _ranks(order(), float)  # exact, and BLAS takes them without a copy
        d1sq = _d1sq(ranks, exact_spearman_norm)
        del ranks  # freed before the histogram is built
    if needs_d0sq:
        d0sq = _d0sq(_masses(x, grid), threads)
    return grid, d1sq, d0sq


def distance_matrices(
    panel: IncrementPanel,
    thetas: Sequence[float],
    binning: BinningConfig,
    exact_spearman_norm: bool = False,
    threads: int = 1,
) -> tuple[DistanceMatrix, ...]:
    """The panel's distance matrix at each theta of `thetas`, in their order.

    The theta-free parts are computed once for all thetas, and only those
    that some theta weights. `exact_spearman_norm` picks the d1
    normalization; `threads` splits the Hellinger row blocks of a panel of
    at least 500 series, and results do not depend on it.
    """
    thetas = _check_thetas(thetas)
    threads = _check_threads(threads)
    return _matrices(panel, thetas, binning, exact_spearman_norm, threads)


def _matrices(panel, thetas, binning, exact_spearman_norm, threads, order=None):
    """`distance_matrices` past its checks; `order` replaces the panel's own sort in `_parts`."""
    x = panel.values
    (origin, width, nbins), d1sq, d0sq = _parts(
        x, order or (lambda: _order(x)), binning, thetas, exact_spearman_norm, threads,
    )
    # each matrix gets its own meta dict, so editing one leaves the others
    # alone; the last blend is written over the parts, so a call at one
    # theta holds the two parts and nothing more
    last = len(thetas) - 1
    return tuple(
        DistanceMatrix(panel.ids, _blend(d1sq, d0sq, theta, t == last), theta, meta={
            "m": x.shape[1],
            "binning": {"origin": origin, "width": width, "bins": nbins},
            "exact_spearman_norm": exact_spearman_norm,
        })
        for t, theta in enumerate(thetas)
    )
