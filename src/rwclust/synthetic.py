"""Ground-truth panel generation for validating the clustering pipeline.

Panels are built from a one-factor-per-block latent Gaussian field: block b
shares a factor F_b, series n in block b draws Z_n = sqrt(rho)*F_b +
sqrt(1-rho)*eps_n with i.i.d. standard normal eps. The whole field is one
N x M matrix: eps is a single N x M draw whose row i is series i, and every
series' Z is formed in one expression from its block's rho. Each series'
marginal is then swapped to its distribution group's family through the
probability integral transform (scipy.special's normal CDF and Student-t
quantile, the Laplace quantile in closed form), one call per group,
standardized to unit variance and multiplied by the group scale.
Dependence structure (the copula) and marginal shape are therefore
controlled independently: rank-based clustering sees only the blocks,
histogram-based clustering only the families.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .clustering import ClusterAssignment, adjusted_rand
from .errors import ParameterError, ValidationError
from .ingestion import SeriesPanel

FAMILIES = ("gaussian", "student_t", "laplace")

RECOVERY_TARGETS = ("dependence", "distribution", "product")

# cap on n_series * (m_obs + 1) panel levels, checked before anything is
# allocated; the largest benchmark panel has 10**6
MAX_CELLS = 10**8

# open-interval clamp for the uniform scores; keeps ppf finite in the far tails
_U_LO = np.nextafter(0.0, 1.0)
_U_HI = np.nextafter(1.0, 0.0)


def _require_int(name: str, value) -> None:
    """Raise unless `value` is an integer; a bool or a float such as 2.0 is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _check_cells(n_series: int, m_obs: int) -> None:
    """Raise unless an n_series x (m_obs + 1) panel of levels is within MAX_CELLS."""
    if n_series * (m_obs + 1) > MAX_CELLS:
        raise ParameterError(
            f"{n_series} series of {m_obs + 1} levels exceed the cap of {MAX_CELLS} panel cells"
        )


@dataclass(frozen=True)
class CorrelationBlock:
    """A group of series sharing one latent factor with loading sqrt(rho)."""

    size: int
    rho: float

    def __post_init__(self):
        _require_int("block size", self.size)
        if self.size < 1:
            raise ValidationError(f"block size must be >= 1, got {self.size}")
        if not 0.0 <= self.rho < 1.0:
            raise ValidationError(f"intra-block correlation must lie in [0, 1), got {self.rho}")


@dataclass(frozen=True)
class DistributionGroup:
    """A marginal family (unit variance before scaling) and its scale."""

    family: str
    scale: float = 1.0
    df: float | None = None  # student_t only; needs a finite df > 2 for finite variance

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if not 0 < self.scale < np.inf:
            raise ValidationError(f"scale must be > 0 and finite, got {self.scale}")
        if self.family == "student_t":
            # the unit-variance factor sqrt((df - 2) / df) is NaN at df = inf
            if self.df is None or not 2 < self.df < np.inf:
                raise ValidationError(f"student_t needs a finite df > 2, got {self.df}")
        elif self.df is not None:
            raise ValidationError(f"family {self.family!r} takes no df")


@dataclass(frozen=True)
class SyntheticSpec:
    """Blueprint for a synthetic panel: blocks x distribution groups.

    Without explicit `distribution_labels`, groups are assigned by the
    cross-product rule: each block is split contiguously into near-equal
    parts, one per group, so every block subdivides into every family.
    """

    n_series: int
    m_obs: int
    blocks: tuple[CorrelationBlock, ...]
    groups: tuple[DistributionGroup, ...]
    seed: int = 0
    distribution_labels: tuple[int, ...] | None = None

    def __post_init__(self):
        for name in ("n_series", "m_obs", "seed"):
            _require_int(name, getattr(self, name))
        if self.m_obs < 2:
            raise ValidationError(f"need at least 2 increments per series, got {self.m_obs}")
        if not self.blocks or not self.groups:
            raise ValidationError("need at least one block and one distribution group")
        if sum(b.size for b in self.blocks) != self.n_series:
            raise ValidationError(
                f"block sizes sum to {sum(b.size for b in self.blocks)}, expected {self.n_series}"
            )
        _check_cells(self.n_series, self.m_obs)
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if self.distribution_labels is not None:
            lab = self.distribution_labels
            if len(lab) != self.n_series:
                raise ValidationError("distribution_labels must cover every series")
            for g in lab:
                _require_int("a distribution label", g)
            if any(not 0 <= g < len(self.groups) for g in lab):
                raise ValidationError("distribution_labels must index into groups")


@dataclass(frozen=True)
class GroundTruth:
    """Planted labels: block membership, family membership, and their product,
    the distinct (dependence, distribution) pairs numbered lexicographically."""

    ids: tuple[str, ...]
    dependence_labels: np.ndarray
    distribution_labels: np.ndarray
    product_labels: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("dependence_labels", "distribution_labels"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            if arr.shape != (len(self.ids),):
                raise ValidationError(f"{name} must align with ids")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        pairs = np.stack([self.dependence_labels, self.distribution_labels])
        product = np.unique(pairs, axis=1, return_inverse=True)[1].reshape(-1)
        product.setflags(write=False)
        object.__setattr__(self, "product_labels", product)


def _swap_margin(z: np.ndarray, group: DistributionGroup) -> np.ndarray:
    """Map a standard normal sample to the group's standardized family."""
    if group.family == "gaussian":
        x = z
    else:
        u = np.clip(special.ndtr(z), _U_LO, _U_HI)
        if group.family == "student_t":
            x = special.stdtrit(group.df, u) * np.sqrt((group.df - 2.0) / group.df)
        else:  # laplace: variance 2*b^2, so b = 1/sqrt(2)
            x = np.where(u > 0.5, -np.log(2 * (1 - u)), np.log(2 * u)) * (1.0 / np.sqrt(2.0))
    return x * group.scale


def _assign_groups(spec: SyntheticSpec) -> np.ndarray:
    if spec.distribution_labels is not None:
        return np.asarray(spec.distribution_labels, dtype=np.int64)
    labels = np.empty(spec.n_series, dtype=np.int64)
    start = 0
    for block in spec.blocks:
        members = np.arange(start, start + block.size)
        for g, chunk in enumerate(np.array_split(members, len(spec.groups))):
            labels[chunk] = g
        start += block.size
    return labels


def generate_panel(spec: SyntheticSpec) -> tuple[SeriesPanel, GroundTruth]:
    """Draw one panel of random walks matching the spec, plus its planted truth.

    The seed's stream gives the block factors, then one N x M standard normal
    draw whose row i is series i. Levels start at 0 and cumulate the
    increments, bit for bit the same for the same spec; ParameterError if a
    scale overflows them."""
    n, m = spec.n_series, spec.m_obs
    dep = np.repeat(np.arange(len(spec.blocks)), [b.size for b in spec.blocks])
    dist = _assign_groups(spec)

    rng = np.random.default_rng(spec.seed)
    factors = rng.standard_normal((len(spec.blocks), m))
    rho = np.array([b.rho for b in spec.blocks], dtype=float)[dep, None]
    z = np.sqrt(rho) * factors[dep] + np.sqrt(1.0 - rho) * rng.standard_normal((n, m))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        for g, group in enumerate(spec.groups):
            z[dist == g] = _swap_margin(z[dist == g], group)
        levels = np.concatenate([np.zeros((n, 1)), np.cumsum(z, axis=1)], axis=1)
    if not np.isfinite(levels).all():
        raise ParameterError(f"scales {[g.scale for g in spec.groups]} overflow the panel levels")

    id_width = len(str(n - 1)) if n > 1 else 1
    t_width = len(str(m))
    ids = tuple(f"s{i:0{id_width}d}" for i in range(n))
    index = tuple(f"t{j:0{t_width}d}" for j in range(m + 1))
    panel = SeriesPanel(ids=ids, index=index, values=levels)
    truth = GroundTruth(ids=ids, dependence_labels=dep, distribution_labels=dist)
    return panel, truth


def score_recovery(assignment: ClusterAssignment, truth: GroundTruth, which: str) -> float:
    """Adjusted Rand index of a clustering against one of the planted label sets."""
    if which not in RECOVERY_TARGETS:
        raise ParameterError(f"unknown target {which!r}; expected one of {RECOVERY_TARGETS}")
    pos = {sid: i for i, sid in enumerate(truth.ids)}
    missing = [sid for sid in assignment.ids if sid not in pos]
    if missing or len(assignment.ids) != len(truth.ids):
        raise ValidationError("assignment and truth must cover the same ids")
    wanted = getattr(truth, f"{which}_labels")
    aligned = wanted[[pos[sid] for sid in assignment.ids]]
    return adjusted_rand(assignment.labels, aligned)
