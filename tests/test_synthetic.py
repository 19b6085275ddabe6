"""Ground-truth generator: reproducibility, calibration, and recovery scoring."""
from __future__ import annotations

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.spatial.distance import squareform

import rwclust
from rwclust import (
    BinningConfig,
    ClusterAssignment,
    CorrelationBlock,
    DistributionGroup,
    GroundTruth,
    IncrementPanel,
    ParameterError,
    SyntheticSpec,
    ValidationError,
    distance_matrices,
    generate_panel,
    score_recovery,
    to_increments,
)
from rwclust.synthetic import _U_HI, _U_LO, MAX_CELLS, _swap_margin


def spec_one_block(n, m, rho, groups, seed=0, labels=None):
    return SyntheticSpec(
        n_series=n,
        m_obs=m,
        blocks=(CorrelationBlock(size=n, rho=rho),),
        groups=groups,
        seed=seed,
        distribution_labels=labels,
    )


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_block_sizes_must_sum():
    with pytest.raises(ValidationError):
        SyntheticSpec(
            n_series=5,
            m_obs=10,
            blocks=(CorrelationBlock(size=2, rho=0.5),),
            groups=(DistributionGroup("gaussian"),),
        )


def test_negative_seed_refused():
    with pytest.raises(ValidationError, match="seed must be nonnegative"):
        SyntheticSpec(
            n_series=2,
            m_obs=10,
            blocks=(CorrelationBlock(size=2, rho=0.5),),
            groups=(DistributionGroup("gaussian"),),
            seed=-1,
        )


def test_correlation_bounds():
    with pytest.raises(ValidationError):
        CorrelationBlock(size=2, rho=1.0)
    with pytest.raises(ValidationError):
        CorrelationBlock(size=2, rho=-0.1)
    with pytest.raises(ValidationError):
        CorrelationBlock(size=0, rho=0.5)


def test_family_validation():
    with pytest.raises(ValidationError):
        DistributionGroup("cauchy")
    with pytest.raises(ValidationError):
        DistributionGroup("student_t")  # df required
    with pytest.raises(ValidationError):
        DistributionGroup("student_t", df=2.0)  # variance would be infinite
    with pytest.raises(ValidationError, match="df"):
        DistributionGroup("student_t", df=float("inf"))  # the unit-variance factor is NaN
    with pytest.raises(ValidationError):
        DistributionGroup("gaussian", df=5.0)  # df is meaningless here
    for scale in (0.0, np.inf, np.nan):
        with pytest.raises(ValidationError):
            DistributionGroup("laplace", scale=scale)


@pytest.mark.parametrize("field, value", [
    ("n_series", 2.0), ("m_obs", 5.5), ("m_obs", True), ("seed", 1.5), ("seed", False),
    ("size", 2.0), ("size", True), ("label", 0.5), ("label", True),
])
def test_integer_fields_refuse_bools_and_floats(field, value):
    fields = {"n_series": 2, "m_obs": 5, "seed": 0, "size": 2, "label": 0}
    fields[field] = value
    with pytest.raises(ValidationError, match="must be an integer"):
        SyntheticSpec(
            n_series=fields["n_series"],
            m_obs=fields["m_obs"],
            blocks=(CorrelationBlock(size=fields["size"], rho=0.5),),
            groups=(DistributionGroup("gaussian"),),
            seed=fields["seed"],
            distribution_labels=(0, fields["label"]),
        )


def test_cell_cap_is_exact():
    # builds the specs only: generating a panel at the cap would allocate gigabytes
    def spec(n, m):
        return SyntheticSpec(n_series=n, m_obs=m, blocks=(CorrelationBlock(size=n, rho=0.0),),
                             groups=(DistributionGroup("gaussian"),))
    assert MAX_CELLS == 10**8
    spec(4, MAX_CELLS // 4 - 1)  # exactly MAX_CELLS levels
    spec(1, MAX_CELLS - 1)
    for n, m in ((4, MAX_CELLS // 4), (1, MAX_CELLS), (MAX_CELLS // 3 + 1, 2), (1, 10**20)):
        with pytest.raises(ParameterError, match="cap"):
            spec(n, m)


def test_distribution_labels_validation():
    with pytest.raises(ValidationError):
        spec_one_block(3, 10, 0.5, (DistributionGroup("gaussian"),), labels=(0, 0))
    with pytest.raises(ValidationError):
        spec_one_block(3, 10, 0.5, (DistributionGroup("gaussian"),), labels=(0, 0, 1))


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_panel_shape_and_start():
    spec = spec_one_block(3, 50, 0.4, (DistributionGroup("gaussian"),))
    panel, truth = generate_panel(spec)
    assert panel.n_series == 3
    assert panel.n_obs == 51  # levels carry one extra point
    assert np.array_equal(panel.values[:, 0], np.zeros(3))
    assert truth.ids == panel.ids
    assert sorted(panel.index) == list(panel.index)  # labels sort as time


def test_bit_reproducibility():
    spec = spec_one_block(4, 200, 0.6, (DistributionGroup("laplace"),), seed=9)
    a, _ = generate_panel(spec)
    b, _ = generate_panel(spec)
    assert np.array_equal(a.values, b.values)
    assert a.ids == b.ids and a.index == b.index


def test_different_seeds_differ():
    groups = (DistributionGroup("gaussian"),)
    a, _ = generate_panel(spec_one_block(2, 100, 0.0, groups, seed=1))
    b, _ = generate_panel(spec_one_block(2, 100, 0.0, groups, seed=2))
    assert not np.array_equal(a.values, b.values)


def test_variance_normalization():
    # every family is standardized before scaling, so increment variance
    # should track scale^2; the draw is fixed because a Monte-Carlo check at
    # 1% needs a specific sample (heavy t tails make the estimate noisy)
    spec = SyntheticSpec(
        n_series=4,
        m_obs=100_000,
        blocks=(CorrelationBlock(size=4, rho=0.0),),
        groups=(
            DistributionGroup("gaussian"),
            DistributionGroup("student_t", df=3.0),
            DistributionGroup("laplace"),
            DistributionGroup("gaussian", scale=2.5),
        ),
        seed=15,
        distribution_labels=(0, 1, 2, 3),
    )
    panel, _ = generate_panel(spec)
    inc = to_increments(panel)
    for row, target in zip(inc.values, [1.0, 1.0, 1.0, 6.25]):
        assert abs(row.var(ddof=1) / target - 1.0) < 0.01


def test_independent_series_rank_distance_near_half():
    # Monte-Carlo oracle: squared rank distance between independent series
    # concentrates at 1/2
    oracle_rng = np.random.default_rng(77)
    noise = oracle_rng.standard_normal((40, 5000))
    independent = IncrementPanel(ids=tuple(f"s{i}" for i in range(40)), values=noise)
    [d1] = distance_matrices(independent, (1.0,), BinningConfig())
    d1sq = squareform(d1.values) ** 2
    draws = [d1sq[2 * k, 2 * k + 1] for k in range(20)]
    assert abs(np.mean(draws) - 0.5) < 0.01

    spec = spec_one_block(4, 5000, 0.0, (DistributionGroup("gaussian"),), seed=2)
    panel, _ = generate_panel(spec)
    [d1] = distance_matrices(to_increments(panel), (1.0,), BinningConfig(bins=100))
    d1sq = squareform(d1.values) ** 2
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(d1sq[i, j] - 0.5) < 0.05


def test_tight_block_rank_distance_near_zero():
    spec = spec_one_block(2, 5000, 0.99, (DistributionGroup("gaussian"),), seed=3)
    panel, _ = generate_panel(spec)
    [d1] = distance_matrices(to_increments(panel), (1.0,), BinningConfig())
    assert d1.values[0] ** 2 < 0.05  # the pair (0, 1)


def test_same_family_histograms_close():
    spec = spec_one_block(4, 5000, 0.0, (DistributionGroup("student_t", df=3.0),), seed=4)
    panel, _ = generate_panel(spec)
    [d0] = distance_matrices(to_increments(panel), (0.0,), BinningConfig(bins=100))
    d0 = squareform(d0.values)
    for i in range(4):
        for j in range(i + 1, 4):
            assert d0[i, j] < 0.1


def test_product_labels_refine_both():
    spec = SyntheticSpec(
        n_series=12,
        m_obs=10,
        blocks=(CorrelationBlock(size=6, rho=0.5), CorrelationBlock(size=6, rho=0.5)),
        groups=(DistributionGroup("gaussian"), DistributionGroup("laplace")),
    )
    _, truth = generate_panel(spec)
    assert len(np.unique(truth.product_labels)) == 4
    for p in np.unique(truth.product_labels):
        members = truth.product_labels == p
        assert len(np.unique(truth.dependence_labels[members])) == 1
        assert len(np.unique(truth.distribution_labels[members])) == 1
    # the distinct (dependence, distribution) pairs, numbered in lexicographic order
    truth = GroundTruth(ids=("a", "b", "c", "d", "e"), dependence_labels=[1, 0, 1, 0, 1],
                        distribution_labels=[0, 2, 2, 0, 0])
    assert truth.product_labels.tolist() == [2, 1, 3, 0, 2]
    assert not truth.product_labels.flags.writeable
    with pytest.raises(ValidationError, match="dependence_labels must align with ids"):
        GroundTruth(ids=("a", "b"), dependence_labels=[0], distribution_labels=[0, 1])


def test_default_group_assignment_splits_blocks():
    spec = SyntheticSpec(
        n_series=8,
        m_obs=10,
        blocks=(CorrelationBlock(size=4, rho=0.5), CorrelationBlock(size=4, rho=0.5)),
        groups=(DistributionGroup("gaussian"), DistributionGroup("laplace")),
    )
    _, truth = generate_panel(spec)
    assert truth.distribution_labels.tolist() == [0, 0, 1, 1, 0, 0, 1, 1]
    assert truth.dependence_labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]


def test_explicit_labels_respected():
    labels = (1, 0, 1, 0)
    spec = spec_one_block(
        4, 10, 0.3,
        (DistributionGroup("gaussian"), DistributionGroup("laplace")),
        labels=labels,
    )
    _, truth = generate_panel(spec)
    assert truth.distribution_labels.tolist() == list(labels)


def test_overflowing_scale_raises_without_warnings():
    spec = spec_one_block(2, 5, 0.5, (DistributionGroup("gaussian", scale=1e308),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="1e\\+308"):
            generate_panel(spec)


# ---------------------------------------------------------------------------
# reference: scipy.stats margins and one draw per series
# ---------------------------------------------------------------------------

def reference_margin(z, group):
    """The margin swap through the scipy.stats distributions."""
    if group.family == "gaussian":
        x = z
    else:
        u = np.clip(stats.norm.cdf(z), _U_LO, _U_HI)
        if group.family == "student_t":
            x = stats.t.ppf(u, group.df) * np.sqrt((group.df - 2.0) / group.df)
        else:
            x = stats.laplace.ppf(u, scale=1.0 / np.sqrt(2.0))
    return x * group.scale


def reference_levels(spec, truth):
    """The panel levels drawn one series at a time through reference_margin."""
    n, m = spec.n_series, spec.m_obs
    dep, dist = truth.dependence_labels, truth.distribution_labels
    rng = np.random.default_rng(spec.seed)
    factors = rng.standard_normal((len(spec.blocks), m))
    increments = np.empty((n, m))
    for i in range(n):
        rho = spec.blocks[dep[i]].rho
        z = np.sqrt(rho) * factors[dep[i]] + np.sqrt(1.0 - rho) * rng.standard_normal(m)
        increments[i] = reference_margin(z, spec.groups[dist[i]])
    return np.concatenate([np.zeros((n, 1)), np.cumsum(increments, axis=1)], axis=1)


_GROUPS = (
    DistributionGroup("gaussian"),
    DistributionGroup("gaussian", scale=2.5),
    DistributionGroup("student_t", df=2.5),
    DistributionGroup("student_t", scale=1e-3, df=3.0),
    DistributionGroup("student_t", scale=7.0, df=30.0),
    DistributionGroup("laplace"),
    DistributionGroup("laplace", scale=0.5),
)


@pytest.mark.parametrize("group", _GROUPS, ids=lambda g: f"{g.family}-{g.df}-{g.scale}")
def test_margin_matches_scipy_stats_bit_for_bit(group):
    tails = [0.0, -0.0, 1e-300, -1e-300, 1e-17, -1e-17, 1.0, -1.0, 8.3, -8.3, 40.0, -40.0]
    z = np.concatenate([tails, np.random.default_rng(3).standard_normal(500)])
    for sample in (z, z.reshape(4, -1)):
        assert _swap_margin(sample, group).tobytes() == reference_margin(sample, group).tobytes()


@pytest.mark.parametrize("spec", [
    SyntheticSpec(
        n_series=12, m_obs=300, seed=11,
        blocks=(CorrelationBlock(5, 0.9), CorrelationBlock(3, 0.0), CorrelationBlock(4, 0.4)),
        groups=_GROUPS[::2],
    ),
    SyntheticSpec(
        n_series=7, m_obs=40, seed=5,
        blocks=(CorrelationBlock(3, 0.7), CorrelationBlock(4, 0.2)),
        groups=_GROUPS[1::2],
        distribution_labels=(2, 0, 1, 2, 2, 0, 1),
    ),
    spec_one_block(1, 2, 0.5, (DistributionGroup("student_t", df=4.0),)),
], ids=["mixed-rho", "explicit-labels", "1x1-m2"])
def test_panel_matches_per_series_reference_bit_for_bit(spec):
    panel, truth = generate_panel(spec)
    assert panel.values.tobytes() == reference_levels(spec, truth).tobytes()


def test_import_leaves_scipy_stats_unloaded():
    src = str(Path(rwclust.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, rwclust; print(*(name in sys.modules for name in "
         "('scipy.stats', 'scipy.optimize', 'scipy.cluster', 'scipy.spatial', 'orjson')))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False False False False"


# ---------------------------------------------------------------------------
# score_recovery
# ---------------------------------------------------------------------------

def make_truth(n, dep):
    ids = tuple(f"s{i}" for i in range(n))
    dep = np.asarray(dep)
    return GroundTruth(
        ids=ids,
        dependence_labels=dep,
        distribution_labels=np.zeros(n, dtype=np.int64),
    )


def test_perfect_recovery_scores_one():
    truth = make_truth(4, [0, 0, 1, 1])
    assignment = ClusterAssignment(truth.ids, [5, 5, 9, 9])
    assert score_recovery(assignment, truth, "dependence") == 1.0


def test_recovery_aligns_by_id():
    truth = make_truth(4, [0, 0, 1, 1])
    # same partition, ids presented in reverse order
    assignment = ClusterAssignment(("s3", "s2", "s1", "s0"), [0, 0, 1, 1])
    assert score_recovery(assignment, truth, "dependence") == 1.0


def test_random_labels_score_near_zero():
    rng = np.random.default_rng(21)
    truth = make_truth(100, rng.integers(0, 4, size=100))
    assignment = ClusterAssignment(truth.ids, rng.integers(0, 4, size=100))
    assert abs(score_recovery(assignment, truth, "dependence")) < 0.1


def test_distribution_vs_product_is_coarser():
    spec = SyntheticSpec(
        n_series=8,
        m_obs=10,
        blocks=(CorrelationBlock(size=4, rho=0.5), CorrelationBlock(size=4, rho=0.5)),
        groups=(DistributionGroup("gaussian"), DistributionGroup("laplace")),
    )
    _, truth = generate_panel(spec)
    assignment = ClusterAssignment(truth.ids, truth.distribution_labels)
    assert score_recovery(assignment, truth, "distribution") == 1.0
    assert score_recovery(assignment, truth, "product") < 1.0


def test_recovery_target_validation():
    truth = make_truth(4, [0, 0, 1, 1])
    assignment = ClusterAssignment(truth.ids, [0, 0, 1, 1])
    with pytest.raises(ParameterError):
        score_recovery(assignment, truth, "color")
    with pytest.raises(ValidationError):
        score_recovery(
            ClusterAssignment(("s0", "zz"), [0, 1]), truth, "dependence"
        )
