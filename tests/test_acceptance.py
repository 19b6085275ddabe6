"""Acceptance gate: the eight shipped guarantees, each reported on one line.

Every test prints "ACCEPTANCE <n> (<what>): PASS|FAIL" on the real stdout so
the verdicts survive pytest's capture, then asserts. Tolerances and budgets
are part of the contract and must not be loosened here.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.spatial.distance import squareform

from rwclust import (
    BinningConfig,
    CorrelationBlock,
    DistributionGroup,
    IncrementPanel,
    SyntheticSpec,
    cluster,
    cluster_summary,
    distance_matrices,
    generate_panel,
    score_recovery,
    stability_select_k,
    to_increments,
)
from rwclust.cli import main as cli_main
from rwclust.distance import _d0sq, _d1sq

from conftest import blends_over


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_handle(capfd):
    # report() must suspend capture from inside the test call phase; a
    # fixture-scoped disabled() block is re-enabled once the call starts
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(number: int, what: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number} ({what}): {verdict}"
    if detail and not ok:
        line += f"  [{detail}]"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def random_masses(rng, bins):
    v = rng.random(bins) + 1e-3
    return v / v.sum()


def matrix_parts(rank_rows, mass_rows):
    """The shipped kernels' squared parts (d1^2, d0^2) of the series given by
    their rank and mass rows, expanded from condensed vectors to square matrices."""
    return (squareform(_d1sq(np.stack(rank_rows), False)),
            squareform(_d0sq(np.stack(mass_rows), 1)))


def panel_of(rows):
    return IncrementPanel(ids=tuple(f"s{i}" for i in range(len(rows))), values=np.asarray(rows))


@pytest.fixture(scope="module")
def reference_spec():
    # the frozen validation panel: 4 dependence blocks x 2 marginal families
    return SyntheticSpec(
        n_series=40,
        m_obs=2000,
        blocks=tuple(CorrelationBlock(size=10, rho=0.7) for _ in range(4)),
        groups=(
            DistributionGroup("gaussian"),
            DistributionGroup("student_t", df=3.0),
        ),
        seed=0,
    )


@pytest.fixture(scope="module")
def reference_panel(reference_spec):
    panel, truth = generate_panel(reference_spec)
    return panel, truth, to_increments(panel)


def test_criterion_1_estimator_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_d1 = 0.0
    worst_d0 = 0.0
    for _ in range(200):
        m = int(rng.integers(10, 51))
        ra = rng.permutation(m) + 1
        rb = rng.permutation(m) + 1
        bins = int(rng.integers(1, 40))
        pa = random_masses(rng, bins)
        pb = random_masses(rng, bins)
        d1sq, d0sq = matrix_parts([ra, rb], [pa, pb])

        naive = 0.0
        for i in range(m):
            naive += float(ra[i] - rb[i]) ** 2
        naive = math.sqrt(3.0 * naive / (m * m * (m - 1)))
        worst_d1 = max(worst_d1, abs(math.sqrt(d1sq[0, 1]) - naive))

        acc = 0.0
        for k in range(bins):
            acc += (math.sqrt(pa[k]) - math.sqrt(pb[k])) ** 2
        worst_d0 = max(worst_d0, abs(math.sqrt(d0sq[0, 1]) - math.sqrt(0.5 * acc)))
    elapsed = time.perf_counter() - start
    ok = worst_d1 <= 1e-12 and worst_d0 <= 1e-12 and elapsed < 5.0
    report(
        1, "rank and histogram distances match naive loops",
        ok, f"d1 err {worst_d1:.2e}, d0 err {worst_d0:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_metric_properties():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_slack = -np.inf
    symmetric = True
    self_zero = True
    for _ in range(1000):
        m = int(rng.integers(5, 30))
        bins = int(rng.integers(2, 15))
        x, y, z = ((rng.permutation(m) + 1, random_masses(rng, bins)) for _ in range(3))
        # rows x, y, z, x: pair (0, 1) differences y - x, pair (1, 3) x - y,
        # and pair (0, 3) compares two separate copies of x
        rows = (x, y, z, x)
        [v] = blends_over(*matrix_parts([r for r, _ in rows], [p for _, p in rows]), (0.5,))
        dxy, dyz, dxz = v[0, 1], v[1, 2], v[0, 2]
        worst_slack = max(
            worst_slack, dxy - (dxz + dyz), dxz - (dxy + dyz), dyz - (dxy + dxz)
        )
        symmetric &= v[0, 1] == v[1, 3]
        self_zero &= v[0, 3] == 0.0
    elapsed = time.perf_counter() - start
    ok = worst_slack <= 1e-12 and symmetric and self_zero and elapsed < 10.0
    report(
        2, "blend at theta=0.5 is symmetric, zero on self, triangle holds",
        ok, f"slack {worst_slack:.2e}, sym {symmetric}, self0 {self_zero}, {elapsed:.2f}s",
    )


def test_criterion_3_spearman_consistency():
    rng = np.random.default_rng(303)
    m = 500
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(m)
        # mix in correlation so the pairs span the whole dependence range
        w = rng.uniform(-1.0, 1.0)
        y = w * x + math.sqrt(max(1.0 - w * w, 1e-12)) * rng.standard_normal(m)
        # the theta 1 matrix is sqrt(d1^2) bit for bit
        [d1] = distance_matrices(panel_of([x, y]), (1.0,), BinningConfig())
        d1sq = d1.values[0] ** 2  # the pair (0, 1)
        rho = stats.spearmanr(x, y).statistic
        worst = max(worst, abs(d1sq - (1.0 - rho) / 2.0))
    ok = worst <= 1e-2
    report(3, "squared rank distance tracks (1 - spearman)/2", ok, f"max gap {worst:.2e}")


def test_criterion_4_monotone_invariance():
    rng = np.random.default_rng(404)
    binning = BinningConfig(bins=20)
    exp_exact = True
    affine_exact = True
    for _ in range(50):
        values = rng.standard_normal((5, 60))
        # the theta 1 matrix holds the rank part alone, theta 0 the histogram part
        d1_before, d0_before = distance_matrices(panel_of(values), (1.0, 0.0), binning)

        # strictly increasing map on one series leaves every rank distance alone
        bumped = values.copy()
        bumped[2] = np.exp(bumped[2])
        [d1_after] = distance_matrices(panel_of(bumped), (1.0,), binning)
        exp_exact &= np.array_equal(d1_before.values, d1_after.values)

        # affine map of the data, represented on the grid its own pooled
        # values give, leaves every histogram distance alone
        [d0_mapped] = distance_matrices(panel_of(3.0 * values + 7.0), (0.0,), binning)
        affine_exact &= np.array_equal(d0_before.values, d0_mapped.values)
    ok = exp_exact and affine_exact
    report(
        4, "monotone maps leave the matched component unchanged",
        ok, f"exp-on-ranks exact {exp_exact}, affine-on-histograms exact {affine_exact}",
    )


def test_criterion_5_synthetic_recovery(reference_panel):
    panel, truth, inc = reference_panel
    start = time.perf_counter()
    targets = ((1.0, 4, "dependence"), (0.0, 2, "distribution"), (0.5, 8, "product"))
    matrices = distance_matrices(inc, [theta for theta, _, _ in targets], BinningConfig(bins=100))
    scores = {}
    for (theta, k, target), dm in zip(targets, matrices):
        assignment = cluster(dm, k, "average_linkage")
        scores[(theta, target)] = score_recovery(assignment, truth, target)
    elapsed = time.perf_counter() - start
    ok = all(s >= 0.9 for s in scores.values()) and elapsed < 60.0
    report(
        5, "planted blocks, families, and their product are recovered",
        ok, f"scores {scores}, {elapsed:.1f}s",
    )


def test_criterion_6_stability_selection(reference_panel):
    _, _, inc = reference_panel
    start = time.perf_counter()
    hits = {}
    for theta, want in ((1.0, 4), (0.0, 2)):
        selected = []
        for seed in range(10):
            [outcome] = stability_select_k(
                inc,
                (theta,),
                BinningConfig(bins=100),
                k_range=range(2, 7),
                runs=20,
                subsample_fraction=0.7,
                seed=seed,
            )
            selected.append(outcome.selected_k)
        hits[theta] = sum(1 for s in selected if s == want)
    elapsed = time.perf_counter() - start
    ok = hits[1.0] >= 8 and hits[0.0] >= 8 and elapsed < 300.0
    report(
        6, "resampling stability picks the planted cluster counts",
        ok, f"hits {hits} of 10, {elapsed:.1f}s",
    )


def test_criterion_7_summary_contract(reference_panel):
    panel, _, inc = reference_panel
    fits = ((1.0, 4), (0.0, 2), (0.5, 8))
    matrices = distance_matrices(inc, [theta for theta, _ in fits], BinningConfig(bins=100))
    ok = True
    detail = []
    for (theta, k), dm in zip(fits, matrices):
        summary = cluster_summary(cluster(dm, k, "average_linkage"), panel)
        sizes_ok = summary.total_size == panel.n_series
        quant_ok = all(r.quantile_10 <= r.quantile_90 for r in summary.rows)
        means = [r.mean for r in summary.rows]
        order_ok = all(means[i] >= means[i + 1] for i in range(len(means) - 1))
        ok &= sizes_ok and quant_ok and order_ok
        detail.append(f"theta={theta}: sizes {sizes_ok}, quantiles {quant_ok}, order {order_ok}")
    # size bookkeeping also holds for a fixed larger reference partition
    ok &= sum((13, 89, 169, 79, 161, 90, 57)) == 658
    report(7, "summary rows partition the panel and are well ordered", ok, "; ".join(detail))


def test_criterion_8_pipeline_determinism(reference_panel, tmp_path):
    panel, _, _ = reference_panel
    source = tmp_path / "panel.csv"
    lines = ["t," + ",".join(panel.ids)]
    for j, label in enumerate(panel.index):
        lines.append(label + "," + ",".join(repr(float(v)) for v in panel.values[:, j]))
    source.write_text("\n".join(lines) + "\n", encoding="utf-8")

    digests = []
    artifacts = ("distance_matrix.csv", "assignment.json", "summary.csv", "observations.csv")
    for name, threads in (("run1", "1"), ("run2", "8")):
        out_dir = tmp_path / name
        code = cli_main([
            "pipeline", "--input", str(source), "--theta", "0.5", "--k", "8",
            "--seed", "0", "--threads", threads,
            "--output-dir", str(out_dir), "--quiet",
        ])
        assert code == 0
        digests.append(tuple((out_dir / a).read_bytes() for a in artifacts))
    ok = digests[0] == digests[1]
    report(8, "pipeline artifacts are byte-identical across reruns and thread counts", ok)


def test_acceptance_provenance(reference_panel, tmp_path):
    # not one of the eight numbered guarantees, but closes the loop: every
    # artifact written above must embed config + version
    panel, _, _ = reference_panel
    source = tmp_path / "panel.csv"
    lines = ["t," + ",".join(panel.ids)]
    for j, label in enumerate(panel.index):
        lines.append(label + "," + ",".join(repr(float(v)) for v in panel.values[:, j]))
    source.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out_dir = tmp_path / "prov"
    code = cli_main([
        "pipeline", "--input", str(source), "--theta", "1", "--k", "4",
        "--output-dir", str(out_dir), "--quiet",
    ])
    assert code == 0
    payload = json.loads((out_dir / "assignment.json").read_text())
    assert payload["version"]
    assert payload["config"]["theta"] == 1.0
    first_line = (out_dir / "distance_matrix.csv").read_text().splitlines()[0]
    assert json.loads(first_line[2:])["version"] == payload["version"]
