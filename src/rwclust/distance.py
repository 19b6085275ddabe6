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

The pairwise matrix kernel works on the N x M rank matrix and the N x B
mass matrix in two parts:

- Ranks, by the Gram identity. Every rank row is a permutation of 1..M, so
  sum_i (rx[i] - ry[i])^2 = 2 S - 2 rx.ry with S = M (M+1) (2M+1) / 6. The
  inner products rx.ry come from one float64 matrix product per chunk of
  columns, with chunks narrow enough (chunk * M^2 < 2^53) that every partial
  sum BLAS forms is an integer below 2^53, so each is exact whatever the
  summation order; chunks are accumulated in int64. The rank sums are
  therefore exact integers, identical for any BLAS thread count, for M up
  to 3 024 616, past which S leaves int64 and the kernel refuses the
  panel. Every panel with M up to about 2 * 10^5 is one chunk.
- Masses, by direct differences. The Hellinger part differences sqrt-mass
  rows (B, about 100, is much smaller than M) over the upper triangle, row
  by row, and mirrors; each entry has a fixed reduction order, so results
  are bit-identical for any `threads` split of those rows. The Gram form
  1 - sum sqrt(px py) is not used: it loses the exact zero of identical
  pairs.

Neither part depends on theta. `distance_components` computes both, scaled,
as a `DistanceComponents`, and its `blend(theta)` forms the matrix for one
theta with an element-wise square root, so a theta sweep pays for the two
kernels once. `distance_matrix` is that blend at a single theta.
"""
from __future__ import annotations

import copy
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ParameterError, ValidationError
from .representation import NonParamRepresentation

BOUND_TOL = 1e-9  # slack on the theoretical entry bound, covers sqrt rounding


@dataclass(frozen=True)
class DistanceParams:
    """Blend weight theta plus the d1 normalization switch."""

    theta: float = 0.5
    exact_spearman_norm: bool = False

    def __post_init__(self):
        _check_theta(self.theta)


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta <= 1.0:
        raise ParameterError(f"theta must lie in [0, 1], got {theta}")


def _d1_factor(m: int, exact_spearman_norm: bool) -> float:
    if exact_spearman_norm:
        return 3.0 / (m * (m * m - 1))
    return 3.0 / (m * m * (m - 1))


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric zero-diagonal matrix of blended distances over a panel."""

    ids: tuple[str, ...]
    values: np.ndarray
    theta: float
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        n = len(self.ids)
        if v.shape != (n, n):
            raise ValidationError(f"expected a {n}x{n} matrix, got {v.shape}")
        if not np.array_equal(v, v.T):
            raise ValidationError("distance matrix must be exactly symmetric")
        if (np.diag(v) != 0.0).any():
            raise ValidationError("distance matrix diagonal must be exactly zero")
        if (v < 0).any():
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


def _pairwise_sq_rows(a: np.ndarray, out: np.ndarray, rows: range) -> None:
    # upper triangle only: row i against all j > i, fixed per-row reduction order
    for i in rows:
        if i + 1 < a.shape[0]:
            d = a[i + 1 :] - a[i]
            out[i, i + 1 :] = (d * d).sum(axis=1)


def _pairwise_sq(a: np.ndarray, threads: int) -> np.ndarray:
    n = a.shape[0]
    out = np.zeros((n, n))
    threads = min(threads, n)  # more workers than rows would only get empty chunks
    if threads <= 1 or n < 4:
        _pairwise_sq_rows(a, out, range(n))
    else:
        chunks = [range(i, n, threads) for i in range(threads)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda r: _pairwise_sq_rows(a, out, r), chunks))
    return out + out.T


def _rank_sq_sums(ranks: np.ndarray) -> np.ndarray:
    """Exact sum_i (r_a[i] - r_b[i])^2 for every pair of rows of an N x M permutation matrix."""
    m = ranks.shape[1]
    s = m * (m + 1) * (2 * m + 1) // 6  # sum of squares of 1..M, bounds every entry below
    if s > np.iinfo(np.int64).max:
        raise ValidationError(f"series of {m} increments are too long for exact int64 rank sums")
    chunk = max(1, (2**53 - 1) // (m * m))
    gram = np.zeros((ranks.shape[0],) * 2, dtype=np.int64)
    for lo in range(0, m, chunk):
        block = ranks[:, lo : lo + chunk].astype(float)
        gram += (block @ block.T).astype(np.int64)
    return 2 * (s - gram)


@dataclass(frozen=True)
class DistanceComponents:
    """The theta-free squared parts of every pair of a panel: d1sq holds the
    scaled rank part d1^2, d0sq the Hellinger part d0^2 (both N x N)."""

    ids: tuple[str, ...]
    d1sq: np.ndarray
    d0sq: np.ndarray
    meta: dict[str, Any]

    def blend(self, theta: float) -> DistanceMatrix:
        """The distance matrix at `theta` in [0, 1], with a meta dict of its own."""
        _check_theta(theta)
        values = np.sqrt(theta * self.d1sq + (1.0 - theta) * self.d0sq)
        return DistanceMatrix(ids=self.ids, values=values, theta=theta, meta=copy.deepcopy(self.meta))


def distance_components(
    rep: NonParamRepresentation,
    exact_spearman_norm: bool = False,
    threads: int = 1,
) -> DistanceComponents:
    """Both squared parts of every pair of the represented panel, ready to blend.

    `threads` splits the Hellinger rows; results do not depend on it.
    """
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    d1sq = _rank_sq_sums(rep.ranks) * _d1_factor(rep.m, exact_spearman_norm)
    d0sq = _pairwise_sq(np.sqrt(rep.masses), threads) * 0.5
    origin, width, nbins = rep.grid
    meta = {
        "m": rep.m,
        "binning": {"origin": origin, "width": width, "bins": nbins},
        "exact_spearman_norm": exact_spearman_norm,
    }
    return DistanceComponents(ids=rep.ids, d1sq=d1sq, d0sq=d0sq, meta=meta)


def distance_matrix(
    rep: NonParamRepresentation,
    params: DistanceParams = DistanceParams(),
    threads: int = 1,
) -> DistanceMatrix:
    """All-pairs blended distance over a represented panel.

    Entry (i, j) is d_theta of rows i and j as the module docstring defines
    it. `threads` splits the Hellinger rows; results do not depend on it.
    """
    return distance_components(rep, params.exact_spearman_norm, threads).blend(params.theta)
