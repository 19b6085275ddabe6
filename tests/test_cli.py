"""End-to-end command-line behavior: subcommands, exit codes, artifacts."""
from __future__ import annotations

import contextlib
import csv
import gc
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import squareform

import rwclust
import rwclust.cli
from rwclust import (
    BinningConfig,
    ClusterAssignment,
    CorrelationBlock,
    DimensionError,
    DistanceMatrix,
    DistributionGroup,
    GroundTruth,
    IncrementPanel,
    SyntheticSpec,
    cluster_summary,
    distance_matrices,
    generate_panel,
    load_panel,
    score_recovery,
    to_increments,
)
from rwclust.cli import _panel_csv, _repr_row, main

from conftest import count_stable_sorts, write_csv


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def synth_panel(tmp_path_factory):
    """A small generated panel with three tight dependence blocks."""
    prefix = tmp_path_factory.mktemp("synth") / "panel"
    code = main([
        "synth", "--blocks", "3x4", "--rho", "0.95", "--dists", "gaussian",
        "--m", "300", "--seed", "5", "--output-prefix", str(prefix), "--quiet",
    ])
    assert code == 0
    return prefix.with_suffix(".csv"), prefix.parent / "panel_truth.json"


def load_truth(path):
    raw = json.loads(path.read_text())
    return GroundTruth(
        ids=tuple(raw["ids"]),
        dependence_labels=np.array(raw["dependence_labels"]),
        distribution_labels=np.array(raw["distribution_labels"]),
    )


# ---------------------------------------------------------------------------
# synth + pipeline round trip
# ---------------------------------------------------------------------------

def test_synth_writes_panel_and_truth(synth_panel):
    csv_path, truth_path = synth_panel
    assert csv_path.exists() and truth_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header.split(",")[0] == "t"
    truth = json.loads(truth_path.read_text())
    assert truth["version"]
    assert len(truth["ids"]) == 12


def test_pipeline_recovers_planted_blocks(synth_panel, tmp_path, capsys):
    csv_path, truth_path = synth_panel
    out_dir = tmp_path / "arts"
    code, _, _ = run([
        "pipeline", "--input", str(csv_path), "--theta", "1", "--k", "3",
        "--output-dir", str(out_dir), "--quiet",
    ], capsys)
    assert code == 0
    payload = json.loads((out_dir / "assignment.json").read_text())
    truth = load_truth(truth_path)
    assignment = ClusterAssignment(
        tuple(payload["labels"]), [payload["labels"][sid] for sid in payload["labels"]]
    )
    assert score_recovery(assignment, truth, "dependence") == 1.0
    # artifact inventory
    for name in ("distance_matrix.csv", "summary.csv", "observations.csv"):
        assert (out_dir / name).exists()


def test_pipeline_summaries_partition_n(synth_panel, tmp_path, capsys):
    csv_path, _ = synth_panel
    sizes = {}
    for theta in ("0", "1"):
        out_dir = tmp_path / f"t{theta}"
        code, _, _ = run([
            "pipeline", "--input", str(csv_path), "--theta", theta, "--k", "3",
            "--output-dir", str(out_dir), "--quiet",
        ], capsys)
        assert code == 0
        payload = json.loads((out_dir / "assignment.json").read_text())
        sizes[theta] = sum(row["size"] for row in payload["summary"])
    assert sizes == {"0": 12, "1": 12}


def test_summaries_pool_the_clustered_increments(synth_panel, tmp_path, capsys):
    # a levels file and its differenced twin under --already-increments are
    # clustered alike, and their summaries describe those same increments
    csv_path, _ = synth_panel
    inc = to_increments(load_panel(str(csv_path)))
    inc_path = write_csv(tmp_path / "increments.csv", _reference_csv(
        ["t", *inc.ids], [f"t{j:04d}" for j in range(inc.n_obs)], inc.values.T))
    results = {}
    for name, path, flags in (("levels", str(csv_path), ()),
                              ("increments", inc_path, ("--already-increments",))):
        out_dir = tmp_path / name
        code, _, _ = run(["pipeline", "--input", path, *flags, "--k-range", "2..4",
                          "--stability-runs", "3", "--output-dir", str(out_dir), "--quiet"],
                         capsys)
        assert code == 0
        code, out, _ = run(["cluster", "--input", path, *flags, "--k", "3", "--summary",
                            "--quiet"], capsys)
        assert code == 0
        payload = json.loads((out_dir / "assignment.json").read_text())
        results[name] = (
            (out_dir / "summary.csv").read_text().split("\n", 1)[1],
            {key: payload[key] for key in ("labels", "stability", "summary")},
            json.loads(out)["summary"],
        )
    assert results["levels"] == results["increments"]
    _, payload, _ = results["levels"]
    labels = payload["labels"]
    assignment = ClusterAssignment(inc.ids, [labels[sid] for sid in inc.ids])
    assert payload["summary"] == [asdict(row) for row in cluster_summary(assignment, inc).rows]


def test_pipeline_stability_artifact(synth_panel, tmp_path, capsys):
    csv_path, _ = synth_panel
    out_dir = tmp_path / "stab"
    code, _, _ = run([
        "pipeline", "--input", str(csv_path), "--theta", "1", "--k-range", "2..4",
        "--stability-runs", "6", "--output-dir", str(out_dir), "--quiet",
    ], capsys)
    assert code == 0
    stab = json.loads((out_dir / "stability.json").read_text())
    assert stab["stability"]["k_range"] == [2, 3, 4]
    assert stab["stability"]["selected_k"] == 3  # three tight blocks
    payload = json.loads((out_dir / "assignment.json").read_text())
    assert payload["k"] == 3
    assert payload["stability"]["selected_k"] == 3


def test_theta_sweep_writes_crosstab(synth_panel, tmp_path, capsys):
    csv_path, _ = synth_panel
    out_dir = tmp_path / "sweep"
    code, _, _ = run([
        "pipeline", "--input", str(csv_path), "--theta-sweep", "--k", "3",
        "--output-dir", str(out_dir), "--quiet",
    ], capsys)
    assert code == 0
    for suffix in ("_theta0", "_theta0.5", "_theta1"):
        assert (out_dir / f"assignment{suffix}.json").exists()
    cross = json.loads((out_dir / "crosstab.json").read_text())
    table = np.array(cross["tables"]["theta0.5_vs_theta1"])
    assert table.sum() == 12
    assert table.shape == (3, 3)
    # --theta-sweep is --theta 0,0.5,1
    listed = tmp_path / "listed"
    code, _, _ = run(["pipeline", "--input", str(csv_path), "--theta", "0,0.5,1", "--k", "3",
                      "--output-dir", str(listed), "--quiet"], capsys)
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == sorted(p.name for p in listed.iterdir())
    for name in names:
        assert (listed / name).read_bytes() == (out_dir / name).read_bytes(), name


def test_sweep_crosstab_counts_series_by_label_pair(synth_panel, tmp_path, capsys):
    csv_path, _ = synth_panel
    code, _, _ = run([
        "pipeline", "--input", str(csv_path), "--theta-sweep", "--k", "3", "--method", "medoids",
        "--output-dir", str(tmp_path), "--quiet",
    ], capsys)
    assert code == 0
    labels = {t: json.loads((tmp_path / f"assignment_theta{t}.json").read_text())["labels"]
              for t in ("0", "0.5", "1")}
    tables = json.loads((tmp_path / "crosstab.json").read_text())["tables"]
    for other in ("0", "1"):
        expected = np.zeros((3, 3), dtype=int)
        for sid, lab in labels["0.5"].items():
            expected[lab, labels[other][sid]] += 1
        assert tables[f"theta0.5_vs_theta{other}"] == expected.tolist()


def test_pipeline_byte_idempotent_across_threads(synth_panel, tmp_path, capsys):
    csv_path, _ = synth_panel
    # a fixed K, and a sweep whose stability runs split their Hellinger rows too
    for case, flags in (("k", ("--theta", "0.5", "--k", "3")),
                        ("sweep", ("--theta-sweep", "--k-range", "2..4", "--stability-runs", "3"))):
        outs = []
        for threads in ("1", "8"):
            out_dir = tmp_path / case / threads
            code, _, _ = run([
                "pipeline", "--input", str(csv_path), *flags,
                "--threads", threads, "--output-dir", str(out_dir), "--quiet",
            ], capsys)
            assert code == 0
            outs.append(out_dir)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        if case == "sweep":
            assert {"crosstab.json", "stability_theta0.json", "stability_theta0.5.json",
                    "stability_theta1.json"} <= set(names)
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("k_flags", [("--k", "3"), ("--k-range", "2..4", "--stability-runs", "3")],
                         ids=["k", "k-range"])
def test_sweep_artifacts_match_single_theta_runs(synth_panel, tmp_path, capsys, k_flags):
    csv_path, _ = synth_panel
    base = ["pipeline", "--input", str(csv_path), *k_flags, "--quiet"]
    sweep = tmp_path / "sweep"
    code, _, _ = run([*base, "--theta-sweep", "--output-dir", str(sweep)], capsys)
    assert code == 0
    for theta in ("0", "0.5", "1"):
        single = tmp_path / theta
        code, _, _ = run([*base, "--theta", theta, "--output-dir", str(single)], capsys)
        assert code == 0
        names = sorted(p.name for p in single.iterdir())
        assert ("stability.json" in names) == (k_flags[0] == "--k-range")
        for name in names:
            stem, ext = name.split(".")
            swept = sweep / f"{stem}_theta{theta}.{ext}"
            assert swept.read_bytes() == (single / name).read_bytes(), swept.name
        # the distances subcommand's matrix, below its own provenance line
        code, out, _ = run(["distances", "--input", str(csv_path), "--theta", theta, "--quiet"],
                           capsys)
        assert code == 0
        swept = (sweep / f"distance_matrix_theta{theta}.csv").read_text()
        assert out.split("\n", 1)[1] == swept.split("\n", 1)[1]


def test_theta_list_artifacts_match_single_theta_runs(synth_panel, tmp_path, capsys, monkeypatch):
    # one fit serves every listed theta: the panel is loaded once and sorted
    # once, and each theta writes a single-theta run's bytes under a
    # _theta<T> suffix. crosstab.json tables each theta strictly between the
    # smallest and the largest against both
    csv_path, _ = synth_panel
    base = ["pipeline", "--input", str(csv_path), "--k-range", "2..6", "--stability-runs", "5",
            "--quiet"]
    loads, loaded = [], rwclust.cli.load_panel
    monkeypatch.setattr(rwclust.cli, "load_panel",
                        lambda *args, **kwargs: loads.append(args) or loaded(*args, **kwargs))
    stable_sorts = count_stable_sorts(monkeypatch)
    listed = tmp_path / "listed"
    code, _, _ = run([*base, "--theta", "0,0.1,0.3,1", "--output-dir", str(listed)], capsys)
    assert code == 0
    assert len(loads) == 1 and stable_sorts == [(12, 300)]
    names = {"crosstab.json"}
    for theta in ("0", "0.1", "0.3", "1"):
        single = tmp_path / theta
        code, _, _ = run([*base, "--theta", theta, "--output-dir", str(single)], capsys)
        assert code == 0
        for path in single.iterdir():
            stem, ext = path.name.split(".")
            names.add(f"{stem}_theta{theta}.{ext}")
            assert (listed / f"{stem}_theta{theta}.{ext}").read_bytes() == path.read_bytes()
    assert {p.name for p in listed.iterdir()} == names

    labels = {t: json.loads((listed / f"assignment_theta{t}.json").read_text())["labels"]
              for t in ("0", "0.1", "0.3", "1")}
    expected = {}
    for inner, end in itertools.product(("0.1", "0.3"), ("0", "1")):
        table = np.zeros((max(labels[inner].values()) + 1, max(labels[end].values()) + 1), dtype=int)
        for sid, lab in labels[inner].items():
            table[lab, labels[end][sid]] += 1
        expected[f"theta{inner}_vs_theta{end}"] = table.tolist()
    cross = json.loads((listed / "crosstab.json").read_text())
    assert cross["tables"] == expected and cross["config"]["theta"] == "sweep"

    # two thetas have none between them: suffixed artifacts, no crosstab
    ends = tmp_path / "ends"
    code, _, _ = run([*base, "--theta", "1,0", "--output-dir", str(ends)], capsys)
    assert code == 0
    assert {p.name for p in ends.iterdir()} == {
        name for name in names if name.endswith(("_theta0.json", "_theta0.csv",
                                                 "_theta1.json", "_theta1.csv"))}


def test_minus_zero_theta_is_theta_zero(synth_panel, tmp_path, capsys):
    # -0 names and records theta 0: pipeline --theta=-0,1 writes the bytes of
    # --theta 0,1 under the same names, and stability --theta=-0 prints theta 0's
    csv_path, _ = synth_panel
    base = ["--input", str(csv_path), "--k-range", "2..3", "--stability-runs", "3", "--quiet"]
    outputs = []
    for thetas in ("0,1", "-0,1"):
        out_dir = tmp_path / thetas
        code, _, _ = run(["pipeline", *base, f"--theta={thetas}", "--output-dir", str(out_dir)], capsys)
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert outputs[1] == outputs[0] and "assignment_theta0.json" in outputs[0]
    printed = [run(["stability", *base, f"--theta={theta}"], capsys) for theta in ("0", "-0")]
    assert printed[1] == printed[0] and printed[0][0] == 0
    assert json.loads(printed[0][1])["config"]["theta"] == 0.0


# the steps that build distance parts, as (counter, module, function): the
# grid, then each part's representation and kernel. The grid and the ranks
# are counted both where `represent` and where the distance module call them
_PART_STEPS = (
    ("grid", rwclust.distance, "shared_grid"),
    ("grid", rwclust.representation, "shared_grid"),
    ("rank", rwclust.distance, "_ranks"),
    ("rank", rwclust.representation, "_ranks"),
    ("rank_kernel", rwclust.distance, "_d1sq"),
    ("hellinger", rwclust.representation, "_bin_index"),
    ("hellinger_kernel", rwclust.distance, "_d0sq"),
)


def _counting(calls: dict, key: str, inner):
    def counted(*args, **kwargs):
        calls[key] += 1
        return inner(*args, **kwargs)
    return counted


def _count_part_steps(monkeypatch, calls: dict) -> list:
    """Count the calls of every step of _PART_STEPS into `calls`, and return
    the list that collects the shape of every stable sort."""
    for key, module, name in _PART_STEPS:
        calls.setdefault(key, 0)
        monkeypatch.setattr(module, name, _counting(calls, key, getattr(module, name)))
    return count_stable_sorts(monkeypatch)


def _part_calls(weighted, per_part: int) -> dict:
    """`per_part` calls of each step of a weighted part, none of the others."""
    return {step: per_part if step.split("_")[0] in weighted else 0
            for step in ("rank", "rank_kernel", "hellinger", "hellinger_kernel")}


@pytest.mark.parametrize("theta_flags, weighted", [
    (("--theta-sweep",), ("rank", "hellinger")),
    (("--theta", "0"), ("hellinger",)),
    (("--theta", "1"), ("rank",)),
], ids=["sweep", "theta0", "theta1"])
def test_sweep_represents_and_runs_the_kernel_once_per_run(synth_panel, tmp_path, capsys,
                                                           monkeypatch, theta_flags, weighted):
    # one stability pass serves all three thetas: one grid, and one of each
    # weighted part's representation and kernel, per resample run, plus one
    # for the full panel. A part no theta weights is never built: theta 0
    # does not sort or rank, theta 1 does not bin. The pass sorts the panel
    # at most once, its runs derive their orders from that sort, and fit
    # hands the same order to the full panel's ranks
    calls = {"stability": 0}
    stable_sorts = _count_part_steps(monkeypatch, calls)
    monkeypatch.setattr(rwclust.clustering, "_stability_pass",
                        _counting(calls, "stability", rwclust.clustering._stability_pass))
    csv_path, _ = synth_panel
    code, _, _ = run(["pipeline", "--input", str(csv_path), *theta_flags, "--k-range", "2..3",
                      "--stability-runs", "3", "--output-dir", str(tmp_path), "--quiet"], capsys)
    assert code == 0
    assert calls == {"grid": 4, **_part_calls(weighted, 4), "stability": 1}
    # one sort of the whole panel of 12 series x 300 increments serves the
    # stability pass and the full-panel ranks
    assert stable_sorts == [(12, 300)] * ("rank" in weighted)


@pytest.mark.parametrize("theta, weighted", [
    ("0", ("hellinger",)),
    ("0.5", ("rank", "hellinger")),
    ("1", ("rank",)),
], ids=["theta0", "theta0.5", "theta1"])
def test_distances_represents_and_runs_the_kernel_once(synth_panel, capsys, monkeypatch,
                                                       theta, weighted):
    # distances builds its parts as the other subcommands do: one grid, and
    # one representation and kernel of each part its theta weights, so theta
    # 0 does not sort or rank and theta 1 does not bin
    calls = {}
    stable_sorts = _count_part_steps(monkeypatch, calls)
    csv_path, _ = synth_panel
    code, _, _ = run(["distances", "--input", str(csv_path), "--theta", theta, "--quiet"], capsys)
    assert code == 0
    assert calls == {"grid": 1, **_part_calls(weighted, 1)}
    assert stable_sorts == [(12, 300)] * ("rank" in weighted)


def test_subcommand_config_matches_pipeline(synth_panel, tmp_path, capsys):
    csv_path, _ = synth_panel
    ingest = ["--input", str(csv_path), "--bin-width", "0.5", "--quiet"]
    theta = ["--theta", "1", "--exact-spearman-norm"]
    select = ["--k-range", "2..4", "--method", "complete", "--stability-runs", "3",
              "--subsample", "0.6", "--seed", "4"]
    out_dir = tmp_path / "pipe"
    code, _, _ = run(["pipeline", *ingest, *theta, *select, "--output-dir", str(out_dir)], capsys)
    assert code == 0
    pipeline = json.loads((out_dir / "assignment.json").read_text())["config"]
    assert (pipeline["bin_rule"], pipeline["method"]) == ("width", "complete_linkage")
    for argv in (["represent", *ingest],
                 ["distances", *ingest, *theta, "--format", "json"],
                 ["cluster", *ingest, *theta, *select],
                 ["stability", *ingest, *theta, *select]):
        code, out, _ = run(argv, capsys)
        assert code == 0
        config = json.loads(out)["config"]
        assert config == {key: pipeline[key] for key in config}, argv[0]


def _check_observations(path, assignment_path, n_obs):
    rows = list(csv.reader(path.read_text().splitlines()))
    labels = json.loads(assignment_path.read_text())["labels"]
    assert rows[0] == ["series_id", "cluster", "n_obs"]
    body = rows[1:]
    assert [r[0] for r in body] == list(labels)  # every id once, in panel order
    assert all(int(r[1]) == labels[r[0]] for r in body)
    assert all(int(r[2]) == n_obs for r in body)


def test_observations_one_row_per_series(synth_panel, tmp_path, capsys):
    csv_path, _ = synth_panel
    n_obs = len(csv_path.read_text().splitlines()) - 1  # levels per series
    single, sweep = tmp_path / "single", tmp_path / "sweep"
    code, _, _ = run([
        "pipeline", "--input", str(csv_path), "--theta", "0.5", "--k", "3",
        "--output-dir", str(single), "--quiet",
    ], capsys)
    assert code == 0
    _check_observations(single / "observations.csv", single / "assignment.json", n_obs)
    code, _, _ = run([
        "pipeline", "--input", str(csv_path), "--theta-sweep", "--k", "3",
        "--output-dir", str(sweep), "--quiet",
    ], capsys)
    assert code == 0
    written = sorted(sweep.glob("observations_theta*.csv"))
    assert len(written) == 3
    for path in written:
        suffix = path.stem[len("observations"):]
        _check_observations(path, sweep / f"assignment{suffix}.json", n_obs)

    # the differenced twin under --already-increments: n_obs counts its rows
    inc = to_increments(load_panel(str(csv_path)))
    twin = write_csv(tmp_path / "increments.csv", _reference_csv(
        ["t", *inc.ids], [f"t{j:04d}" for j in range(inc.n_obs)], inc.values.T))
    code, _, _ = run(["pipeline", "--input", twin, "--already-increments", "--k", "3",
                      "--output-dir", str(tmp_path / "twin"), "--quiet"], capsys)
    assert code == 0
    _check_observations(tmp_path / "twin" / "observations.csv",
                        tmp_path / "twin" / "assignment.json", n_obs - 1)

    # one gappy series dropped: only the kept series, each with the levels' row count
    header, *rows = csv_path.read_text().splitlines()
    rows[7] = rows[7].rsplit(",", 1)[0] + ","  # a gap in the last series
    gappy = write_csv(tmp_path / "gappy.csv", "\n".join([header, *rows]) + "\n")
    code, _, _ = run(["pipeline", "--input", gappy, "--missing", "drop-series", "--k", "3",
                      "--output-dir", str(tmp_path / "dropped"), "--quiet"], capsys)
    assert code == 0
    _check_observations(tmp_path / "dropped" / "observations.csv",
                        tmp_path / "dropped" / "assignment.json", n_obs)
    listed = (tmp_path / "dropped" / "observations.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in listed] == header.split(",")[1:-1]


@pytest.mark.parametrize("flags", [
    ["distances"],
    ["cluster", "--k", "3"],
    ["pipeline", "--k", "3"],
    ["pipeline", "--theta-sweep", "--k-range", "2..3", "--stability-runs", "2"],
], ids=["distances", "cluster", "pipeline", "sweep"])
def test_levels_are_freed_before_distances(synth_panel, tmp_path, capsys, monkeypatch, flags):
    # the subcommands keep the increments they cluster, not the levels they
    # were differenced from: no level panel is alive while distances are
    # built, by distance_matrices or by fit
    levels, checked = [], []
    loaded = rwclust.cli.load_panel

    def load_panel_watched(*args, **kwargs):
        panel = loaded(*args, **kwargs)
        levels.extend([weakref.ref(panel), weakref.ref(panel.values)])
        return panel

    def freed_first(name):
        inner = getattr(rwclust.cli, name)

        def checked_call(*args, **kwargs):
            gc.collect()
            assert levels and all(ref() is None for ref in levels), "the levels are still alive"
            checked.append(name)
            return inner(*args, **kwargs)
        monkeypatch.setattr(rwclust.cli, name, checked_call)

    monkeypatch.setattr(rwclust.cli, "load_panel", load_panel_watched)
    freed_first("distance_matrices")
    freed_first("fit")
    csv_path, _ = synth_panel
    where = ["--output-dir", str(tmp_path)] if flags[0] == "pipeline" else []
    code, _, err = run([*flags, "--input", str(csv_path), *where, "--quiet"], capsys)
    assert (code, err) == (0, "")
    assert checked == ["distance_matrices" if flags[0] == "distances" else "fit"]


# ids that csv.writer has to quote, plus one with a space it leaves alone
ODD_IDS = ("a,b", 'say "hi"', "two words", "plain")


def _reference_csv(header, labels, matrix) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for label, row in zip(labels, matrix):
        writer.writerow([label, *(repr(float(v)) for v in row)])
    return buf.getvalue()


def _read_back(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [r[0] for r in rows[1:]], np.array([[float(v) for v in r[1:]] for r in rows[1:]])


@pytest.mark.parametrize("theta", ["0", "0.5", "1"], ids=["theta0", "theta0.5", "theta1"])
def test_distance_csv_matches_csv_writer_reference(tmp_path, capsys, theta):
    # the CLI writes the bytes of the library route the README shows
    spec = SyntheticSpec(
        n_series=4, m_obs=60, blocks=(CorrelationBlock(size=4, rho=0.5),),
        groups=(DistributionGroup(family="gaussian"),), seed=2,
    )
    panel, _ = generate_panel(spec)
    text = _reference_csv(["t", *ODD_IDS], panel.index, panel.values.T)
    source = write_csv(tmp_path / "odd.csv", text)
    out_file = tmp_path / "dm.csv"
    code, _, _ = run(["distances", "--input", source, "--theta", theta, "--output", str(out_file),
                      "--quiet"], capsys)
    assert code == 0

    [dm] = distance_matrices(to_increments(load_panel(source)), (float(theta),), BinningConfig())
    comment, body = out_file.read_text().split("\n", 1)
    assert comment.startswith("# {")
    square = squareform(dm.values)
    assert body == _reference_csv(["id", *ODD_IDS], ODD_IDS, square)
    header, ids, values = _read_back(body)
    assert header == ["id", *ODD_IDS] and ids == list(ODD_IDS)
    assert np.array_equal(values, square)


@pytest.mark.parametrize("theta", ["0", "0.5", "1"], ids=["theta0", "theta0.5", "theta1"])
def test_mirrored_distance_csv_matches_reference(tmp_path, capsys, theta):
    # a 60-series matrix written row by row equals the reference, whose rows
    # below the diagonal repeat the bits of the rows above
    spec = SyntheticSpec(
        n_series=60, m_obs=80, blocks=(CorrelationBlock(size=20, rho=0.6),) * 3,
        groups=(DistributionGroup(family="gaussian"), DistributionGroup(family="student_t", df=3.0)),
        seed=5,
    )
    panel, _ = generate_panel(spec)
    source = tmp_path / "p.csv"
    with open(source, "w", encoding="utf-8") as f:
        _panel_csv(f, panel)
    out_file = tmp_path / "dm.csv"
    code, _, _ = run(["distances", "--input", str(source), "--theta", theta, "--output", str(out_file),
                      "--quiet"], capsys)
    assert code == 0
    [dm] = distance_matrices(to_increments(load_panel(source)), (float(theta),), BinningConfig())
    assert out_file.read_text().split("\n", 1)[1] == _reference_csv(["id", *dm.ids], dm.ids,
                                                                     squareform(dm.values))


def test_synth_csv_matches_csv_writer_reference(tmp_path, capsys):
    spec = SyntheticSpec(
        n_series=4, m_obs=40, blocks=(CorrelationBlock(size=2, rho=0.3),) * 2,
        groups=(DistributionGroup(family="student_t", df=3.0),), seed=8,
    )
    panel, _ = generate_panel(spec)
    odd = type(panel)(ids=ODD_IDS, index=panel.index, values=panel.values)
    buf = io.StringIO()
    _panel_csv(buf, odd)
    text = buf.getvalue()
    assert text == _reference_csv(["t", *ODD_IDS], panel.index, panel.values.T)
    header, labels, values = _read_back(text)
    assert header == ["t", *ODD_IDS] and labels == list(panel.index)
    assert np.array_equal(values, panel.values.T)

    prefix = tmp_path / "synth"
    code, _, _ = run([
        "synth", "--blocks", "2x2", "--rho", "0.3", "--dists", "student_t:3",
        "--m", "40", "--seed", "8", "--output-prefix", str(prefix), "--quiet",
    ], capsys)
    assert code == 0
    assert prefix.with_suffix(".csv").read_text() == _reference_csv(
        ["t", *panel.ids], panel.index, panel.values.T)


def _nextafter(v: float, *towards: float) -> list[float]:
    return [float(np.nextafter(v, t)) for t in towards]


# the ends of the range orjson writes as repr does, with their neighbours,
# subnormals and signed zeros, and integers up to 1e16
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, *_nextafter(2.2250738585072014e-308, 0.0),
    1e-5, 1e-4, *_nextafter(1e-4, 0.0, 1.0), 1e16, *_nextafter(1e16, 0.0, np.inf),
    1.0, 12345.0, 1e15, 2.0**53, 2.0**53 + 2, 9999999999999998.0, 0.1, 1 / 3,
]
_EDGE_FLOATS += [-v for v in _EDGE_FLOATS]


def _assert_repr_row(values) -> None:
    row = np.array(values, dtype=np.float64)
    expected = ",".join(map(repr, row.tolist()))
    assert _repr_row(row) == expected
    # a column of a wider array is not C-contiguous
    assert _repr_row(np.stack([row, row], axis=1)[:, 0]) == expected


@pytest.mark.parametrize("value", _EDGE_FLOATS, ids=repr)
def test_repr_row_matches_repr_at_range_edges(value):
    _assert_repr_row([value])
    _assert_repr_row([0.5, value, -1234.25, 0.0])


# rows mostly inside the range, with values drawn near its ends, and rows of any floats
_NEAR_RANGE = st.one_of(st.floats(1e-4, 1e16, exclude_max=True), st.floats(1e-6, 1e-3),
                        st.floats(1e15, 1e17), st.sampled_from([0.0, 1.0]))
_NEAR_RANGE_ROW = st.lists(st.one_of(_NEAR_RANGE, _NEAR_RANGE.map(lambda v: -v)), max_size=12)
_ANY_ROW = st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS),
                              st.integers(-10**16, 10**16).map(float)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(values=st.one_of(_NEAR_RANGE_ROW, _ANY_ROW))
def test_repr_row_matches_repr(values):
    _assert_repr_row(values)


def test_distance_csv_rows_below_1e4_match_reference(tmp_path, capsys):
    # two series whose ranks differ by one adjacent swap are about 2.7e-5
    # apart at theta 1, so their rows are formatted by repr; the third is far
    m = 2000
    rng = np.random.default_rng(3)
    a = rng.permutation(m) + 1.0
    b = a.copy()
    i, j = np.flatnonzero(a == 1000.0)[0], np.flatnonzero(a == 1001.0)[0]
    b[i], b[j] = a[j], a[i]
    values = np.stack([a, b, rng.permutation(m) + 1.0])
    ids = ["a", "b", "c"]
    source = write_csv(tmp_path / "inc.csv", _reference_csv(
        ["t", *ids], [f"t{k:04d}" for k in range(m)], values.T))
    out_file = tmp_path / "dm.csv"
    code, _, _ = run(["distances", "--input", source, "--already-increments", "--theta", "1",
                      "--output", str(out_file), "--quiet"], capsys)
    assert code == 0
    panel = load_panel(source)
    [dm] = distance_matrices(IncrementPanel(panel.ids, panel.values), (1.0,), BinningConfig())
    assert 0 < dm.values[0] < 1e-4 < dm.values[1]  # the pairs (0, 1) and (0, 2)
    assert out_file.read_text().split("\n", 1)[1] == _reference_csv(["id", *ids], ids,
                                                                     squareform(dm.values))


def test_synth_csv_with_tiny_scale_matches_reference(tmp_path, capsys):
    # the levels of a 1e-6 scale panel lie below 1e-4, where repr formats them
    spec = SyntheticSpec(
        n_series=4, m_obs=40, blocks=(CorrelationBlock(size=2, rho=0.3),) * 2,
        groups=(DistributionGroup(family="gaussian", scale=1e-6),), seed=8,
    )
    panel, _ = generate_panel(spec)
    assert (np.abs(panel.values) < 1e-4).all() and panel.values.any()
    prefix = tmp_path / "tiny"
    code, _, _ = run([
        "synth", "--blocks", "2x2", "--rho", "0.3", "--dists", "gaussian", "--scales", "1e-6",
        "--m", "40", "--seed", "8", "--output-prefix", str(prefix), "--quiet",
    ], capsys)
    assert code == 0
    assert prefix.with_suffix(".csv").read_text() == _reference_csv(
        ["t", *panel.ids], panel.index, panel.values.T)


# ---------------------------------------------------------------------------
# single-step subcommands
# ---------------------------------------------------------------------------

def test_represent_stdout(synth_panel, capsys):
    csv_path, _ = synth_panel
    code, out, _ = run(["represent", "--input", str(csv_path), "--quiet"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["series"]) == 12
    first = payload["series"][0]
    assert sorted(first["ranks"]) == list(range(1, 301))
    assert abs(sum(first["density"]["masses"]) - 1.0) <= 1e-9


def test_distances_csv_round_trip(synth_panel, tmp_path, capsys):
    csv_path, _ = synth_panel
    out_file = tmp_path / "dm.csv"
    code, _, _ = run([
        "distances", "--input", str(csv_path), "--theta", "0.5",
        "--output", str(out_file), "--quiet",
    ], capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# {")  # provenance comment
    header = lines[1].split(",")
    assert header[0] == "id" and len(header) == 13
    values = np.array([[float(x) for x in ln.split(",")[1:]] for ln in lines[2:]])
    assert values.shape == (12, 12)
    assert np.array_equal(values, values.T)
    assert np.array_equal(np.diag(values), np.zeros(12))


def test_distances_json_format(synth_panel, capsys):
    csv_path, _ = synth_panel
    code, out, _ = run([
        "distances", "--input", str(csv_path), "--format", "json", "--quiet",
    ], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"]["theta"] == 0.5
    assert len(payload["matrix"]["values"]) == 12
    # the rows of the square that the library's condensed vector stands for
    [dm] = distance_matrices(to_increments(load_panel(csv_path)), (0.5,), BinningConfig())
    assert payload["matrix"]["values"] == squareform(dm.values).tolist()


def test_matrix_writers_add_memory_linear_in_n(rng):
    # the CSV writer formats one row of the square at a time from the
    # condensed vector, so past it writing N = 1200 series adds O(N) bytes,
    # where the N x N square took 11.5 MB
    n = 1200
    ids = tuple(f"s{i}" for i in range(n))
    dm = DistanceMatrix(ids=ids, values=rng.random(n * (n - 1) // 2), theta=0.5)
    small = DistanceMatrix(ids=ids[:3], values=rng.random(3), theta=0.5)
    with open(os.devnull, "w") as f:
        rwclust.cli._matrix_csv(f, small, {})  # orjson loads outside the trace
        tracemalloc.start()
        try:
            rwclust.cli._matrix_csv(f, dm, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 64 * n * 8


def test_cluster_subcommand_with_summary(synth_panel, capsys):
    csv_path, _ = synth_panel
    code, out, _ = run([
        "cluster", "--input", str(csv_path), "--k", "3", "--summary",
        "--method", "medoids", "--quiet",
    ], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 3
    assert payload["method"] == "k_medoids"
    assert sum(row["size"] for row in payload["summary"]) == 12
    assert set(payload["labels"].values()) == {0, 1, 2}


def test_stability_subcommand(synth_panel, capsys):
    csv_path, _ = synth_panel
    code, out, _ = run([
        "stability", "--input", str(csv_path), "--k-range", "2..4",
        "--stability-runs", "5", "--quiet",
    ], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["stability"]["runs"] == 5
    assert len(payload["stability"]["scores"]) == 3


def test_synth_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "n_series": 4,
        "m_obs": 50,
        "blocks": [{"size": 2, "rho": 0.5}, {"size": 2, "rho": 0.0}],
        "groups": [{"family": "student_t", "df": 4.0}],
        "seed": 3,
    }))
    prefix = tmp_path / "out" / "p"
    code, _, _ = run([
        "synth", "--spec", str(spec_path), "--output-prefix", str(prefix), "--quiet",
    ], capsys)
    assert code == 0
    truth = json.loads((tmp_path / "out" / "p_truth.json").read_text())
    assert truth["dependence_labels"] == [0, 0, 1, 1]


# ---------------------------------------------------------------------------
# exit codes and diagnostics
# ---------------------------------------------------------------------------

def test_malformed_csv_exits_2(tmp_path, capsys):
    path = write_csv(tmp_path / "bad.csv", "t,A\nt1,1\nt2,zap\nt3,3\n")
    code, _, err = run(["distances", "--input", path, "--quiet"], capsys)
    assert code == 2
    assert "zap" in err


def test_header_only_csv_exits_2(tmp_path, capsys):
    path = write_csv(tmp_path / "empty.csv", "t,A,B\n")
    code, _, err = run(["pipeline", "--input", path, "--k", "2",
                        "--output-dir", str(tmp_path / "out"), "--quiet"], capsys)
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("rwclust: error:") and err.count("\n") == 1
    assert "at least 3 observations" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(["distances", "--input", "no/such/file.csv", "--quiet"], capsys)
    assert code == 2
    assert err


def test_bad_theta_exits_3(synth_panel, capsys):
    csv_path, _ = synth_panel
    code, _, err = run([
        "distances", "--input", str(csv_path), "--theta", "2.0", "--quiet",
    ], capsys)
    assert code == 3
    assert "theta" in err


def test_missing_k_exits_3(synth_panel, capsys):
    csv_path, _ = synth_panel
    code, _, _ = run(["cluster", "--input", str(csv_path), "--quiet"], capsys)
    assert code == 3


def test_bad_k_range_syntax_exits_3(synth_panel, capsys):
    csv_path, _ = synth_panel
    code, _, _ = run([
        "stability", "--input", str(csv_path), "--k-range", "4", "--quiet",
    ], capsys)
    assert code == 3


def test_unknown_subcommand_exits_3(capsys):
    code, _, _ = run(["transmogrify"], capsys)
    assert code == 3


def test_synth_without_spec_or_blocks_exits_3(capsys):
    code, _, err = run(["synth", "--quiet"], capsys)
    assert code == 3
    assert "blocks" in err


@pytest.mark.parametrize("text, reason", [
    ('{"n_series": 4}', "missing the key 'blocks'"),
    ("[1, 2]", "malformed"),
    ('{"n_series": 4,', "not valid JSON"),
    ('{"n_series": 4, "m_obs": 50, "blocks": [{"size": 4, "rho": 1.5}],'
     ' "groups": [{"family": "gaussian"}]}', "intra-block correlation"),
    ('{"n_series": 2, "m_obs": 5.5, "blocks": [{"size": 2, "rho": 0.5}],'
     ' "groups": [{"family": "gaussian"}]}', "m_obs must be an integer"),
    ('{"n_series": 2, "m_obs": 5, "blocks": [{"size": 2.0, "rho": 0.5}],'
     ' "groups": [{"family": "gaussian"}]}', "block size must be an integer"),
    ('{"n_series": 2, "m_obs": 5, "blocks": [{"size": 2, "rho": 0.5}],'
     ' "groups": [{"family": "gaussian"}], "seed": 1.5}', "seed must be an integer"),
    ('{"n_series": 2, "m_obs": 5, "blocks": [{"size": 2, "rho": 0.5}],'
     ' "groups": [{"family": "gaussian"}, {"family": "laplace"}],'
     ' "distribution_labels": [0, 0.5]}', "label must be an integer"),
], ids=["missing-key", "not-an-object", "bad-json", "bad-value", "m-float", "size-float",
        "seed-float", "label-float"])
def test_synth_bad_spec_exits_3(tmp_path, capsys, text, reason):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    code, _, err = run(["synth", "--spec", str(spec_path), "--quiet"], capsys)
    assert code == 3
    assert "Traceback" not in err
    assert err.startswith("rwclust: error:") and err.count("\n") == 1
    assert reason in err


_HUGE = "99999999999999999999"


@pytest.mark.parametrize("argv, reason", [
    (["--blocks", "2x3", "--m", _HUGE], "cap of 100000000 panel cells"),
    (["--blocks", f"1x{_HUGE}"], "cap of 100000000 panel cells"),
    (["--blocks", f"{_HUGE}x1"], "cap of 100000000 panel cells"),
    (["--blocks", "1x2", "--m", "5", "--scales", "inf"], "scale must be > 0 and finite"),
    (["--blocks", "1x2", "--m", "5", "--scales", "1e308"], "scales [1e+308] overflow"),
    (["--blocks", "1x2", "--m", "1"], "need at least 2 increments per series, got 1"),
    (["--blocks", "0x5"], "need at least one block and one distribution group"),
    (["--blocks", "1,,2"], "cannot parse blocks '1,,2'"),
    (["--blocks", "1x2", "--dists", "student_t:abc"],
     "cannot parse degrees of freedom in 'student_t:abc'"),
    (["--blocks", "2x2", "--rho", "0.5,0.5,0.5"], "3 rho values for 2 blocks"),
    (["--blocks", "1x2", "--dists", "gaussian,laplace", "--scales", "1,2,3"],
     "3 scales for 2 distribution groups"),
], ids=["m-huge", "block-size-huge", "block-count-huge", "scale-inf", "scale-overflows", "m-1",
        "no-blocks", "blocks-unparsable", "df-unparsable", "rho-count", "scales-count"])
def test_synth_bad_size_or_scale_exits_3(tmp_path, capsys, argv, reason):
    # refused before any file is written, without a traceback or numpy warnings
    code, out, err = run(["synth", *argv, "--output-prefix", str(tmp_path / "out" / "p"),
                          "--quiet"], capsys)
    assert code == 3
    assert out == "" and not (tmp_path / "out").exists()
    assert err.startswith("rwclust: error:") and err.count("\n") == 1
    assert reason in err


@pytest.mark.parametrize("flag", ["--rho", "--scales"], ids=["rho", "scales"])
def test_synth_unparsable_number_list_exits_3(capsys, flag):
    code, _, err = run(["synth", "--blocks", "2x4", flag, "abc", "--quiet"], capsys)
    assert code == 3
    assert err.startswith("rwclust: error:") and err.count("\n") == 1
    assert flag in err


def test_absurd_bin_width_exits_3(synth_panel, capsys):
    # theta 1 weights no histogram, yet its grid is built and checked
    csv_path, _ = synth_panel
    commands = (["represent"], ["stability", "--theta", "1", "--k-range", "2..3"],
                ["cluster", "--theta", "1", "--k", "2"])
    for argv, width in itertools.product(commands, ("1e-300", "inf")):
        # too many bins; one bin and a non-JSON Infinity
        code, out, err = run([
            *argv, "--input", str(csv_path), "--bin-width", width, "--quiet",
        ], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("rwclust: error:") and err.count("\n") == 1
        assert "bin width" in err


@pytest.mark.parametrize("threads", ["0", "-4"])
@pytest.mark.parametrize("argv", [
    ["represent"], ["distances"], ["cluster", "--k", "2"], ["stability", "--k-range", "2..3"],
    ["pipeline", "--k", "2"], ["synth", "--blocks", "2x4"],
], ids=lambda argv: argv[0])
def test_threads_below_1_exits_3_before_io(tmp_path, capsys, argv, threads):
    # the input does not exist and synth would write into tmp_path, so any
    # I/O before the check shows as exit 2 or as a written file
    where = ["--output-prefix", str(tmp_path / "p")] if argv[0] == "synth" else [
        "--input", str(tmp_path / "absent.csv")]
    code, out, err = run([*argv, *where, "--threads", threads, "--quiet"], capsys)
    assert code == 3
    assert out == "" and list(tmp_path.iterdir()) == []
    assert err.startswith("rwclust: error:") and err.count("\n") == 1
    assert "--threads" in err


# each subcommand with its K settled, so that only the setting under test is bad
_FIXED = {"represent": ["represent"], "distances": ["distances"], "cluster": ["cluster", "--k", "2"],
          "stability": ["stability", "--k-range", "2..3"], "pipeline": ["pipeline", "--k", "2"]}
_SELECTING = {c: [c, "--k-range", "2..3"] for c in ("cluster", "stability", "pipeline")}
_BAD_SETTINGS = [
    *((f"theta-{c}", [*_FIXED[c], "--theta", "2"], "theta") for c in list(_FIXED)[1:]),
    *((f"bins-{c}", [*argv, "--bins", "0"], "bin count") for c, argv in _FIXED.items()),
    # fd falls back to the bin count and width records it, so both check it too
    *((f"bins-fd-{c}", [*argv, "--bin-rule", "fd", "--bins", "0"], "bin count")
      for c, argv in _FIXED.items()),
    *((f"bins-width-{c}", [*argv, "--bin-width", "0.5", "--bins", "-5"], "bin count")
      for c, argv in _FIXED.items()),
    *((f"bin-width-{c}", [*argv, "--bin-rule", "count", "--bin-width", "0.1"], "width rule only")
      for c, argv in _FIXED.items()),
    ("no-k-cluster", ["cluster"], "--k-range"),
    ("no-k-pipeline", ["pipeline", "--theta-sweep"], "--k-range"),
    ("theta-repeated", [*_FIXED["pipeline"], "--theta", "0.5,0.5"], "--theta lists 0.5 twice"),
    # two thetas that would write to one _theta<T> name
    ("theta-same-suffix", [*_FIXED["pipeline"], "--theta", "0.1234561,0.1234562"],
     "--theta lists 0.123456 twice"),
    ("theta-signed-zero", [*_FIXED["pipeline"], "--theta=-0,0"], "--theta lists 0 twice"),
    ("theta-list-range", [*_FIXED["pipeline"], "--theta", "0,1.5"],
     "theta must lie in [0, 1], got 1.5"),
    ("theta-list-unparsable", [*_FIXED["pipeline"], "--theta", "0,,1"],
     "cannot parse --theta '0,,1'"),
    ("theta-and-sweep", [*_FIXED["pipeline"], "--theta", "0.5", "--theta-sweep"],
     "argument --theta-sweep: not allowed with argument --theta"),
    *((f"theta-list-{c}", [*_FIXED[c], "--theta", "0,1"],
       "argument --theta: invalid float value: '0,1'") for c in ("distances", "cluster", "stability")),
    *((f"runs-{c}", [*argv, "--stability-runs", "1"], "runs") for c, argv in _SELECTING.items()),
    *((f"subsample-{c}", [*argv, "--subsample", "0.3"], "subsample")
      for c, argv in _SELECTING.items()),
    ("seed-stability", [*_SELECTING["stability"], "--seed", "-1"], "seed"),
    *((f"k-1-{c}", [c, "--k", "1"], "--k must be at least 2") for c in ("cluster", "pipeline")),
    *((f"k-range-1-{c}", [c, "--k-range", "1..3"], "--k-range must start at 2")
      for c in _SELECTING),
    *((f"k-range-empty-{c}", [c, "--k-range", "5..3"], "empty range '5..3'") for c in _SELECTING),
]


@pytest.mark.parametrize("argv, reason", [case[1:] for case in _BAD_SETTINGS],
                         ids=[case[0] for case in _BAD_SETTINGS])
def test_bad_setting_exits_3_before_io(tmp_path, capsys, argv, reason):
    # as with --threads: a missing input and an empty directory show any I/O
    where = ["--input", str(tmp_path / "absent.csv")]
    if argv[0] == "pipeline":
        where += ["--output-dir", str(tmp_path / "out")]
    code, out, err = run([*argv, *where, "--quiet"], capsys)
    assert code == 3
    assert out == "" and list(tmp_path.iterdir()) == []
    assert err.startswith("rwclust: error:") and err.count("\n") == 1
    assert reason in err


# a pooled range whose span overflows float64: one cell at 1e308 and one at
# -1e308, at the same time, so every stability subsample holds both or neither
_OVERFLOW_CASES = [("represent", None), *itertools.product(
    ("distances", "cluster", "stability", "pipeline"), ("0", "0.5", "1"))]


@pytest.mark.parametrize("command, theta", _OVERFLOW_CASES,
                         ids=[c if t is None else f"{c}-theta{t}" for c, t in _OVERFLOW_CASES])
def test_overflowing_range_exits_2_at_every_theta(tmp_path, capsys, command, theta):
    values = np.random.default_rng(3).standard_normal((40, 6))
    values[20, 1], values[20, 4] = 1e308, -1e308
    text = _reference_csv(["t", *(f"s{i}" for i in range(6))],
                          [f"t{j:02d}" for j in range(40)], values)
    argv = [*_FIXED[command], "--input", write_csv(tmp_path / "wide.csv", text),
            "--already-increments", "--quiet"]
    argv += [] if theta is None else ["--theta", theta]
    argv += ["--output-dir", str(tmp_path / "out")] if command == "pipeline" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would add stderr lines
        code, out, err = run(argv, capsys)
    assert code == 2
    assert out == "" and not (tmp_path / "out").exists()
    assert err.startswith("rwclust: error:") and err.count("\n") == 1
    assert "too wide for float64" in err


@pytest.mark.parametrize("argv", [
    ["pipeline", "--k", "50"], ["pipeline", "--k-range", "2..20"], ["cluster", "--k", "50"],
], ids=["k", "k-range", "cluster-k"])
def test_k_beyond_the_panel_leaves_no_output_dir(synth_panel, tmp_path, capsys, monkeypatch,
                                                 argv):
    # the 12-series panel takes K up to 12 and a K range up to 11; that is
    # known once the panel is read, so it is refused before any grid, sort or
    # distance part is built, and the directory is made after the fit
    calls = {}
    stable_sorts = _count_part_steps(monkeypatch, calls)
    csv_path, _ = synth_panel
    out = tmp_path / "out"
    where = ["--output-dir", str(out)] if argv[0] == "pipeline" else ["--output", str(out)]
    code, _, err = run([*argv, "--input", str(csv_path), *where, "--quiet"], capsys)
    assert code == 3
    assert err.count("\n") == 1
    if "--k" in argv:
        assert err == "rwclust: error: k must lie in [2, 12], got 50\n"
    assert not out.exists()
    assert calls == dict.fromkeys(calls, 0) and stable_sorts == []


@pytest.mark.parametrize("command", ["stability", "pipeline"])
def test_subsample_too_small_for_the_panel_exits_3(tmp_path, capsys, command):
    # 3 levels give 2 increments, and half of them is 1 observation
    csv_path = tmp_path / "three.csv"
    csv_path.write_text("t,a,b,c\n1,1,2,3\n2,2,3,5\n3,4,4,4\n")
    out = tmp_path / "out"
    where = ["--output-dir", str(out)] if command == "pipeline" else ["--output", str(out)]
    code, stdout, err = run([command, "--input", str(csv_path), "--k-range", "2..2",
                             "--subsample", "0.5", *where, "--quiet"], capsys)
    assert code == 3
    assert stdout == ""
    assert err == "rwclust: error: subsample of 1 observations is too small to represent\n"
    assert not out.exists()


def test_k_range_beyond_the_panel_names_its_bounds(synth_panel, capsys):
    csv_path, _ = synth_panel
    code, out, err = run(["stability", "--input", str(csv_path), "--k-range", "2..1000000",
                          "--quiet"], capsys)
    assert code == 3
    assert out == ""
    assert err == "rwclust: error: k_range must lie in [2, 11], got 2..1000000\n"


@pytest.mark.parametrize("command", ["stability", "cluster", "pipeline"])
def test_huge_k_range_is_refused_right_after_loading(synth_panel, tmp_path, capsys, monkeypatch,
                                                     command):
    # the range's end is checked against the panel before stability selection
    # (stability_select_k, or fit for cluster and pipeline) would spell the
    # range out, so even 10^10 candidates end in one line
    selected = []

    def no_selection(*args, **kwargs):
        selected.append(kwargs["k_range"])
        raise AssertionError("stability selection got a K range")

    monkeypatch.setattr(rwclust.cli, "stability_select_k", no_selection)
    monkeypatch.setattr(rwclust.cli, "fit", no_selection)
    csv_path, _ = synth_panel
    out = tmp_path / "out"
    where = ["--output-dir", str(out)] if command == "pipeline" else ["--output", str(out)]
    code, stdout, err = run([command, "--input", str(csv_path), "--k-range", "2..10000000000",
                             *where, "--quiet"], capsys)
    assert code == 3
    assert stdout == ""
    assert err == "rwclust: error: k_range must lie in [2, 11], got 2..10000000000\n"
    assert not out.exists()
    assert selected == []
    # the guard sits on the command's route: a range the panel takes reaches it
    with pytest.raises(AssertionError, match="got a K range"):
        main([command, "--input", str(csv_path), "--k-range", "2..11", *where, "--quiet"])
    assert selected == [range(2, 12)]



# ---------------------------------------------------------------------------
# exit-code fuzz
# ---------------------------------------------------------------------------

# inputs that every subcommand must refuse while loading, whatever its flags
_BAD_INPUTS = {
    "empty.csv": b"",
    "header_only.csv": b"t,A,B\n",
    "garbage.csv": b"t,A,B\nt1,1,zap\nt2,2,3\nt3,3,4\n",
    "two_rows.csv": b"t,A,B\nt1,1,2\nt2,2,3\n",
    "unordered.csv": b"t,A,B\nt2,1,2\nt1,2,3\nt3,3,4\n",
    "duplicate_ids.csv": b"t,A,A\nt1,1,2\nt2,2,3\nt3,3,4\n",
    "blank_line.csv": b"t,A,B\nt1,1,2\n\nt2,2,3\nt3,3,4\n",
    "not_utf8.csv": b"t,A,B\nt1,\xff,2\nt2,2,3\nt3,3,4\n",
    "long_row.csv": b"t,A\nt1,1,2\nt2,2\nt3,3\n",
}
_SPECS = {"spec_ok.json": b'{"n_series": 2, "m_obs": 5, "blocks": [{"size": 2, "rho": 0.5}],'
                          b' "groups": [{"family": "gaussian"}]}',
          "spec_list.json": b"[1, 2]", "spec_empty.json": b"", "spec_not_utf8.json": b'{"\xff": 1}',
          "spec_float_sizes.json": b'{"n_series": 2.0, "m_obs": 5.0, "blocks": [{"size": 2.0,'
                                   b' "rho": 0.5}], "groups": [{"family": "gaussian"}]}'}

_GARBAGE = st.sampled_from(["", "abc", "nan", "inf", "-inf", "1e308", "-1e308",
                            "99999999999999999999", "1_0", "+2", "0x1", "1.5", "-1", "0"])
_NUMBER = _GARBAGE | st.integers(-10**12, 10**12).map(str) | st.floats().map(repr)

# flag -> (valid values, a strategy that may draw bad ones); --bins stays at
# most 10^4 and synth's panels are tiny or over the cell cap, which is refused
# before anything is allocated, so no example allocates much
_COMMON = {"--seed": (("0", "7"), _NUMBER),
           "--threads": (("1", "2"), st.sampled_from(["0", "-1", "abc", "+2"]))}
_INGEST = {
    **_COMMON,
    "--missing": (("reject", "drop-series"), st.just("skip")),
    "--date-format": (("%Y", "%", "t%d"), st.just("%Y")),
    "--bins": (("5", "100"), _GARBAGE | st.integers(-10**4, 10**4).map(str)),
    "--bin-width": (("0.5",), _NUMBER),
    "--bin-rule": (("count", "width", "fd"), st.just("magic")),
}
_THETA = {"--theta": (("0", "0.5", "1"), _NUMBER)}
_SELECT = {"--method": (("average", "complete", "medoids"), st.just("ward")),
           "--stability-runs": (("2", "5"), _NUMBER), "--subsample": (("0.5", "0.7"), _NUMBER)}
_K_RANGE = (("2..4",), st.sampled_from(["4..2", "1..3", "2..999", "abc", "2..", "0..0"]))
_K = {"--k": (("2", "3"), _NUMBER), "--k-range": _K_RANGE}
_VALUE_FLAGS = {
    "represent": _INGEST,
    "distances": {**_INGEST, **_THETA, "--format": (("csv", "json"), st.just("xml"))},
    "cluster": {**_INGEST, **_THETA, **_SELECT, **_K},
    "stability": {**_INGEST, **_THETA, **_SELECT, "--k-range": _K_RANGE},
    "pipeline": {**_INGEST, **_THETA, **_SELECT, **_K},
    "synth": {
        **_COMMON,
        "--blocks": (("2x3", "3,2"), st.sampled_from(["0x2", "2x0", "abc", "", "1,,2", "-1x2",
                                                      "1x99999999999999999999"])),
        "--rho": (("0.5", "0.5,0.2"), _NUMBER),
        "--dists": (("gaussian", "student_t:3,laplace"), st.sampled_from(
            ["student_t:2", "student_t:abc", "cauchy", "gaussian:3", ""])),
        "--scales": (("2", "1,2"), _NUMBER),
        "--m": (("5", "20"), st.sampled_from(["", "abc", "nan", "1.5", "1e3", "+2",
                                              "99999999999999999999"])
                | st.integers(-3, 1).map(str)),
        "--spec": (("spec_ok.json",), st.sampled_from(["absent.json", *list(_SPECS)[1:]])),
    },
}
_SWITCHES = {
    "represent": ["--already-increments"],
    "distances": ["--already-increments", "--exact-spearman-norm"],
    "cluster": ["--already-increments", "--exact-spearman-norm", "--summary"],
    "stability": ["--already-increments", "--exact-spearman-norm"],
    "pipeline": ["--already-increments", "--exact-spearman-norm", "--theta-sweep"],
    "synth": [],
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, content in {**_BAD_INPUTS, **_SPECS}.items():
        (root / name).write_bytes(content)
    return root


@given(st.sampled_from(sorted(_VALUE_FLAGS)), st.data())
@settings(max_examples=400, deadline=None)
def test_every_failure_exits_2_or_3_with_one_line(fuzz_dir, command, data):
    argv = [command]
    valid_only = data.draw(st.booleans())  # else bad values too, so most runs exit 3
    for flag, (valid, bad) in _VALUE_FLAGS[command].items():
        if data.draw(st.booleans()):
            value = data.draw(st.sampled_from(valid) if valid_only else st.sampled_from(valid) | bad)
            argv += [f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value]
    argv += [flag for flag in _SWITCHES[command] + ["--quiet"] if data.draw(st.booleans())]
    json_logs = data.draw(st.booleans())
    argv += ["--json-logs"] if json_logs else []
    out_dir = fuzz_dir / "out"
    if command == "synth":
        argv += ["--output-prefix", str(fuzz_dir / "synth" / "p")]
    else:
        argv += ["--input", str(fuzz_dir / data.draw(st.sampled_from(
            ["absent.csv", ".", *_BAD_INPUTS])))]
        argv += ["--output-dir", str(out_dir)] if command == "pipeline" else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    # a bad setting exits 3, anything else the input's 2; only synth can succeed
    assert code in ((0, 2, 3) if command == "synth" else (2, 3)), (argv, err)
    if code:
        assert out == "" and "Traceback" not in err
        assert err.count("\n") == 1, (argv, err)
        if json_logs:
            assert set(json.loads(err)) == {"error", "message"}, (argv, err)
        else:
            assert err.startswith("rwclust: error:"), (argv, err)
    if command != "synth":
        assert not out_dir.exists()


def test_other_library_error_exits_1(synth_panel, capsys, monkeypatch):
    # an rwclust error that is neither a config nor an input error is internal
    def broken(*args, **kwargs):
        raise DimensionError("shapes disagree")

    monkeypatch.setattr(rwclust.cli, "represent", broken)
    csv_path, _ = synth_panel
    code, out, err = run(["represent", "--input", str(csv_path), "--quiet"], capsys)
    assert (code, out, err) == (1, "", "rwclust: error: shapes disagree\n")


def test_json_logs_error_shape(tmp_path, capsys):
    path = write_csv(tmp_path / "bad.csv", "t,A\nt1,1\nt2,zap\nt3,3\n")
    code, _, err = run(["distances", "--input", path, "--json-logs", "--quiet"], capsys)
    assert code == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "PanelFormatError"


def test_help_exits_0(capsys):
    code, out, _ = run(["--help"], capsys)
    assert code == 0
    assert "pipeline" in out


def test_console_script_installed():
    # the child imports rwclust from where this process found it, installed or not
    src = str(Path(rwclust.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "rwclust.cli", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "rwclust" in proc.stdout


def test_module_run_logs_like_main(synth_panel, tmp_path):
    # run as python -m rwclust.cli, the module is __main__; its log lines
    # still come from the rwclust.cli logger that --json-logs configures
    src = str(Path(rwclust.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    csv_path, _ = synth_panel
    errs = {}
    for case, flags in (("plain", ()), ("json", ("--json-logs",))):
        proc = subprocess.run(
            [sys.executable, "-m", "rwclust.cli", "pipeline", "--input", str(csv_path),
             "--k", "4", "--output-dir", str(tmp_path / case), *flags],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        errs[case] = proc.stderr.splitlines()
    assert [line.split(":")[0] for line in errs["plain"]] == ["INFO rwclust.cli"]
    assert errs["plain"][0].startswith("INFO rwclust.cli: theta=0.5: k=4, ")
    [line] = errs["json"]
    assert json.loads(line)["logger"] == "rwclust.cli"


def test_date_format_flag(tmp_path, capsys):
    text = "t,A,B\n31/01/2020,0,1\n01/02/2020,1,3\n02/02/2020,3,2\n03/02/2020,2,5\n"
    path = write_csv(tmp_path / "dated.csv", text)
    code, out, _ = run([
        "represent", "--input", path, "--date-format", "%d/%m/%Y", "--quiet",
    ], capsys)
    assert code == 0
    assert len(json.loads(out)["series"]) == 2


def test_already_increments_flag(tmp_path, capsys):
    text = "t,A,B\nt1,1,2\nt2,-1,0\nt3,2,1\n"
    path = write_csv(tmp_path / "inc.csv", text)
    code, out, _ = run([
        "represent", "--input", path, "--already-increments", "--quiet",
    ], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["series"][0]["ranks"]) == 3  # no differencing applied
