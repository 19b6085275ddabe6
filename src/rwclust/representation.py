"""Nonparametric representation of increment series.

Each series is projected onto two components that together lose no sample
information: a bijective rank vector (the joint-dependence part, invariant
under strictly increasing transforms) and a histogram of per-bin probability
masses on a grid shared by the whole panel (the marginal-distribution part).
For a series X_1..X_M the two are specified as

    rank[i]   = #{k : X_k < X_i, or X_k == X_i and k <= i}
    masses[b] = #{i : X_i falls in bin b of the grid} / M

Ties go to the earlier observation, so every rank vector is a permutation
of {1,...,M}; `_order` is the one place that rule is stated, as a stable
sort. `_bin_index` states which bin a value falls in.

The matrix helpers work in row blocks of at most `_BLOCK_CELLS` values, so
their temporaries do not grow with the panel: `_order` tie-checks, `_ranks`
writes each block's ranks by one flat scatter, and `_masses` bins and
counts. A stability resample's rows come from the full panel's order by
`_subsample_order`, and its values are taken row-major, as the blocks read
them. `_bin_index` floors by an integer cast and tests its edge snap only
on the few quotients near an edge.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import BinningRangeError, ParameterError, ValidationError, _integer
from .ingestion import IncrementPanel

MASS_TOL = 1e-12  # allowed deviation of histogram masses from sum 1

# quotients this close (relative) to a bin's right edge count to the next bin,
# so the same data binned on an affinely remapped grid lands identically
EDGE_TOL = 16 * np.finfo(float).eps

BIN_RULES = ("count", "width", "fd")

# most bins a shared grid may hold inside the pooled range; a finer grid would
# need n_series * bins masses, so it is refused before anything is allocated
MAX_BINS = 1_000_000

# values (or counts) `_masses` bins, `_order` tie-checks and `_ranks` writes
# per row block: each temporary of `_bin_index`, of the tie check or of the
# rank scatter is then at most 128 KB, whatever N x M is
_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class BinningConfig:
    """Histogram smoothing rule for the shared grid.

    rule "count": bins of width span/bins over the pooled range (default).
    rule "width": fixed bin width, the only rule that takes one.
    rule "fd": Freedman-Diaconis width from the pooled sample.
    """

    rule: str = "count"
    bins: int = 100
    width: float | None = None

    def __post_init__(self):
        if self.rule not in BIN_RULES:
            raise ParameterError(f"unknown bin rule {self.rule!r}; expected one of {BIN_RULES}")
        # fd falls back to the count and width records it, so every rule checks it
        object.__setattr__(self, "bins", _integer(self.bins, "bin count"))
        if not 1 <= self.bins <= MAX_BINS:
            raise ParameterError(f"bin count must lie in [1, {MAX_BINS}], got {self.bins}")
        if self.width is not None and self.rule != "width":
            raise ParameterError(f"a bin width is used by the width rule only, not by {self.rule!r}")
        if self.rule == "width" and (isinstance(self.width, bool)
                                     or not (isinstance(self.width, Real) and 0 < self.width < np.inf)):
            raise ParameterError(f"bin width must be a finite number > 0, got {self.width!r}")


@dataclass(frozen=True)
class NonParamRepresentation:
    """Rank and mass matrices for a whole panel, on one shared grid.

    Row i of `ranks` (N x M, a permutation of 1..M) and row i of `masses`
    (N x B, per-bin probabilities on the grid starting at `origin` with bins
    of `width`) represent series `ids[i]`.
    """

    ids: tuple[str, ...]
    ranks: np.ndarray
    masses: np.ndarray
    origin: float
    width: float

    def __post_init__(self):
        r = np.asarray(self.ranks, dtype=np.int64)
        p = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "ranks", r)
        object.__setattr__(self, "masses", p)
        n = len(self.ids)
        if n == 0 or r.ndim != 2 or p.ndim != 2 or r.shape[0] != n or p.shape[0] != n:
            raise ValidationError("ids, rank rows, and mass rows must have equal nonzero length")
        m = r.shape[1]
        if m < 2:
            raise ValidationError("every rank row must have at least 2 entries")
        # with every entry in 1..M, a row is a permutation iff no value repeats;
        # offsetting each row by i*M counts all rows in one bincount
        if r.min() < 1 or r.max() > m or (
            np.bincount((r - 1 + m * np.arange(n)[:, None]).ravel(), minlength=n * m) != 1
        ).any():
            raise ValidationError("every rank row must be a permutation of 1..M")
        if not np.isfinite(self.origin):
            raise ValidationError("grid origin must be finite")
        if not self.width > 0:
            raise ValidationError(f"bin width must be > 0, got {self.width}")
        if p.shape[1] < 1:
            raise ValidationError("masses must have at least one bin")
        if (p < 0).any():
            raise ValidationError("masses must be nonnegative")
        sums = p.sum(axis=1)
        bad = sums[np.abs(sums - 1.0) > MASS_TOL]
        if bad.size:
            raise ValidationError(f"masses must sum to 1 within {MASS_TOL}, got {bad[0]!r}")
        r.setflags(write=False)
        p.setflags(write=False)

    @property
    def n_series(self) -> int:
        return len(self.ids)

    @property
    def m(self) -> int:
        return self.ranks.shape[1]

    @property
    def grid(self) -> tuple[float, float, int]:
        return (self.origin, self.width, self.masses.shape[1])


def _bin_index(x: np.ndarray, origin: float, width: float, bin_count: int) -> np.ndarray:
    """Bin of every value of x (any shape) on the half-open grid [origin, origin + bin_count*width).

    Bin k holds origin + k*width <= x < origin + (k+1)*width, with one float
    concession: a value whose bin quotient sits within EDGE_TOL (relative)
    below an edge counts to the bin right of that edge. Without the snap,
    rescaling data and grid together could move edge-sitting values (the
    pooled extremes in particular) across a bin boundary.
    Raises BinningRangeError, naming the first value in x's order, if any
    value falls off the grid; the caller owns the grid and must widen it.
    The range test reads x twice and allocates nothing, and the snap is
    tested only on the quotients within twice the largest tolerance of the
    next edge, where every snapping quotient lies. So the temporaries are two
    float arrays, one int and one bool array of x's shape, and a few arrays
    the size of those near-edge quotients; `_masses` keeps that shape small
    by binning in row blocks.
    """
    hi = origin + bin_count * width
    x_max = x.max(initial=-np.inf)
    if not (x.min(initial=np.inf) >= origin and x_max < hi):  # NaN fails too
        bad = x[~((x >= origin) & (x < hi))][0]
        raise BinningRangeError(f"observation {bad!r} outside grid [{origin!r}, {hi!r})")
    q = x - origin
    q /= width  # >= 0: every x passed the range test and width > 0
    idx = q.astype(np.int64)  # the floor, as q >= 0
    # a quotient snaps when 1 - (q - floor(q)) <= EDGE_TOL * max(q, 1); q is
    # at most the block's largest quotient, so a snapping fraction lies
    # within that tolerance of 1, and twice it leaves room for rounding
    q_max = (x_max - origin) / width
    near = q - idx >= 1.0 - 2.0 * EDGE_TOL * max(q_max, 1.0)
    if near.any():
        qn = q[near]
        idx[near] += 1.0 - (qn - np.floor(qn)) <= EDGE_TOL * np.maximum(qn, 1.0)
    # the snap (or the division itself) can nudge an in-range value onto the
    # right edge of the padded grid
    np.minimum(idx, bin_count - 1, out=idx)
    return idx


def shared_grid(values, config: BinningConfig) -> tuple[float, float, int]:
    """Build one (origin, width, bin_count) grid covering all pooled values.

    The grid starts at the pooled minimum and gains one extra bin past the
    pooled maximum so every observation lies inside the half-open range.
    Widths too small to advance the origin in floating point are widened to
    the smallest workable value; an fd width that would give more than
    MAX_BINS bins falls back to the count rule, and a fixed width that would
    is a ParameterError (BinningConfig caps the bin count itself). A pooled
    range whose span overflows float64 is a BinningRangeError.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValidationError("cannot build a grid from no values")
    lo = float(v.min())
    hi = float(v.max())
    span = hi - lo
    if not np.isfinite(span):  # no grid over it could place a value in float64
        raise BinningRangeError(f"pooled range [{lo!r}, {hi!r}] is too wide for float64")

    if config.rule == "count":
        width = span / config.bins if span > 0.0 else 1.0
    elif config.rule == "fd":
        q75, q25 = np.quantile(v, [0.75, 0.25])
        width = 2.0 * float(q75 - q25) / v.size ** (1.0 / 3.0)
        if width <= 0.0 or (span > 0.0 and span / width > MAX_BINS):
            return shared_grid(v, BinningConfig(rule="count", bins=config.bins))
    else:
        width = float(config.width)
        if span / width > MAX_BINS:
            raise ParameterError(
                f"bin width {width!r} gives more than {MAX_BINS} bins over the range {span!r}"
            )

    # float guard: the width must actually move the origin
    if width <= 0.0:
        width = float(np.finfo(float).tiny)
    while not lo + width > lo:
        width *= 2.0

    if span == 0.0:
        count = 1
    elif config.rule == "count":
        count = config.bins + 1
    else:
        count = int(np.floor(span / width)) + 1
    # the grid is half-open, so it must end strictly past the pooled max
    while not hi < lo + count * width:
        count += 1
    return (lo, width, count)


def represent(panel: IncrementPanel, binning: BinningConfig = BinningConfig()) -> NonParamRepresentation:
    """Project every series of a panel onto (ranks, shared-grid density).

    Row for row, the result follows the rank and histogram definitions of
    this module on the grid `shared_grid` builds from the pooled values: the
    ranks of `_order`'s stable sort keep the arrival-order tie rule, and one offset
    bincount histograms all rows (`_masses`). Distance calls that need one
    part only compose the same helpers without building a representation.
    """
    x = panel.values
    grid = shared_grid(x, binning)
    # the sort is a temporary of _ranks, freed before the histogram is built
    ranks = _ranks(_order(x))
    return NonParamRepresentation(
        ids=panel.ids, ranks=ranks, masses=_masses(x, grid), origin=grid[0], width=grid[1]
    )


def _order(x: np.ndarray) -> np.ndarray:
    """The stable argsort of every row of x: equal values keep their arrival order.

    A row whose values all differ has one sorting permutation, so numpy's
    faster default argsort (SIMD where numpy has it) gives it; only a row
    with equal neighbours once sorted (-0.0 == 0.0 counts) takes the stable
    sort. The tie check sorts the values in row blocks of at most
    _BLOCK_CELLS, so its temporaries do not grow with N.
    """
    n, m = x.shape
    order = np.empty((n, m), dtype=np.intp)
    rows = max(1, _BLOCK_CELLS // m)
    for lo in range(0, n, rows):
        block, out = x[lo : lo + rows], order[lo : lo + rows]
        s = np.sort(block, axis=1)
        tied = (s[:, 1:] == s[:, :-1]).any(axis=1)
        out[~tied] = np.argsort(block[~tied], axis=1)
        out[tied] = np.argsort(block[tied], axis=1, kind="stable")
    return order


def _subsample_order(order: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The stable row order of the panel's observations at the sorted indices
    `idx`, given `order`, the `_order` of the whole panel.

    Dropping the other columns from `order` keeps a stable order, because
    `idx` is sorted; each kept column is then renumbered to its place in idx.
    """
    keep = np.zeros(order.shape[1], dtype=bool)
    keep[idx] = True
    # int32 halves the result; the rank part takes M up to 3 024 616
    # (`distance._d1sq`), so every order it accepts fits
    place = np.cumsum(keep, dtype=np.int32) - 1
    # on the flat order, with take and compress: a 2-D boolean mask would
    # build a row and a column index of every kept entry first
    flat = order.reshape(-1)
    return place.take(flat.compress(keep.take(flat))).reshape(order.shape[0], idx.size)


def _ranks(order: np.ndarray, dtype=np.int64) -> np.ndarray:
    """The N x M rank matrix, of `dtype`, of the values whose rows `order` sorts stably.

    Rows are written in blocks of at most _BLOCK_CELLS ranks (one row at
    least), each block by one flat scatter of the ranks 1..M repeated per row.
    """
    n, m = order.shape
    ranks = np.empty((n, m), dtype=dtype)
    flat = ranks.reshape(-1)
    rows = max(1, _BLOCK_CELLS // m)
    values = np.tile(np.arange(1, m + 1, dtype=dtype), rows)
    offsets = m * np.arange(rows)[:, None]
    cells = np.empty((rows, m), dtype=np.intp)  # the block's flat positions
    for lo in range(0, n, rows):
        block = order[lo : lo + rows]
        k = len(block)
        np.add(block, offsets[:k] + lo * m, out=cells[:k])
        flat[cells[:k].reshape(-1)] = values[: k * m]
    return ranks


def _masses(x: np.ndarray, grid: tuple[float, float, int]) -> np.ndarray:
    """The N x B histogram masses of the rows of the N x M values `x` on `grid`.

    Rows are binned and counted in blocks of at most _BLOCK_CELLS values or
    counts (one row at least), so the temporaries do not grow with N; a
    value off the grid raises in the block that holds it, which names the
    first such value of x.
    """
    n, m = x.shape
    origin, width, nbins = grid
    masses = np.empty((n, nbins))
    rows = max(1, _BLOCK_CELLS // max(m, nbins))
    for lo in range(0, n, rows):
        block = x[lo : lo + rows]
        idx = _bin_index(block, origin, width, nbins)
        idx += nbins * np.arange(len(block))[:, None]
        masses[lo : lo + rows] = np.bincount(
            idx.ravel(), minlength=len(block) * nbins
        ).reshape(-1, nbins)
    masses /= m
    return masses
