"""Benchmark of the rwclust command line, end to end and per module.

Run from the repository root:

    python3 bench/run.py --workload wide_fixed_k --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --smoke

A run makes its input panel with `rwclust synth` from --seed, then calls the
public entry point `rwclust.cli.main(argv)` in this process, one call after
the other: a closed loop with one client, the default `--threads 1` and BLAS
pinned to one thread unless the environment says otherwise. It repeats the
workload's list of calls (one iteration) until --seconds have passed and
checks every call's exit code and artifacts against the planted truth (see
check_call), and that every iteration writes byte-identical artifacts. A
traced run then reruns one iteration with `--threads 2` and requires the same
bytes again; untraced runs skip that rerun, since a whole extra iteration per
run would leave too few timed ones. The last line of stdout is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. The full
record (environment, per-iteration times, artifact digests, failures, and the
spans of a traced run) goes to .bench_out/ in the repository root.

Workloads (all: 4 correlation blocks, rho 0.7, families gaussian and
student_t:3; the planted K is 4 blocks at theta 1 and 2 families at theta 0):
  wide_fixed_k      1000 series x 1000 increments, `pipeline --theta 0.5 --k 4`.
                    Ingest, one N=1000 distance call and artifact writing; no
                    resampling, so stability changes must leave it unchanged.
                    Its peak RSS stands in for the 4000x500 memory shape, whose
                    16M-cell distance CSV alone would take tens of seconds.
  sweep_select_k    200 x 2000, `pipeline --theta-sweep --k-range 2..6`:
                    60 resampled kernels, the only workload where theta-free
                    distance components can be reused.
  narrow_stability  40 x 2000 (seed 0 is the acceptance panel), ten
                    `stability --k-range 2..6` calls, theta 0 and 1 x --seed
                    0..4: per-series Python overhead and the CSV reload per call.

End-to-end metrics (--trace 0), timed with tracing off:
  wall_s       median seconds of one iteration, first cli.main call to last return
  cells_per_s  series x increments x CLI calls per iteration / wall_s
  peak_rss_mb  ru_maxrss of this process after the timed iterations
  setup_s      median over fresh processes of importing rwclust + synth writing the CSV
The summary lines above the JSON also give error_rate (failed / attempted
calls), recovery_ari (minimum ARI of every written assignment against the
planted labels: dependence for theta > 0, distribution for theta = 0) and
k_hit_rate (share of stability selections at theta 0 and 1 that pick the
planted K). They are checked per call rather than bounded: error_rate is 0
when the program is right, and the other two are undefined on one workload.

Per-layer metrics (--trace 1), medians over traced iterations, spans recorded
around the public names rwclust.cli and rwclust.clustering import, with
cli.main as the root. The end-to-end metric each should move:
  ingestion.*       wall_s on wide_fixed_k and narrow_stability, barely on sweep_select_k
  representation.*  wall_s on narrow_stability and sweep_select_k, not on wide_fixed_k
  distance.*        wall_s on sweep_select_k most, wide_fixed_k next, narrow_stability
                    little; condensed storage moves peak_rss_mb on wide_fixed_k
  clustering.*      wall_s on sweep_select_k and narrow_stability; no calls on wide_fixed_k
  cli.*             wall_s on wide_fixed_k and sweep_select_k, not on narrow_stability
  synthetic.*       setup_s
cli.self_s is the cli.main spans minus their children (argument parsing,
artifact formatting and writing); every span's self time sums to cli.main_s.
clustering.resample_s is stability_select_k seconds per resample.
trace.overhead_s is traced minus untraced median wall_s, the first untraced
iteration left out; it is within the run-to-run noise of a few percent.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from spans import Tracer, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_ARI = 0.9
SYNTH_FLAGS = ("--rho", "0.7", "--dists", "gaussian,student_t:3")


@dataclass(frozen=True)
class Call:
    """One CLI call: its argv, the artifacts it writes, and what they must hold.

    `checks` holds (kind, artifact, theta): "assignment" artifacts are scored
    against the planted labels, "stability" artifacts are scored against the
    planted K when theta is 0 or 1 (see check_call).
    """

    argv: tuple[str, ...]
    artifacts: tuple[str, ...]
    checks: tuple[tuple[str, str, float], ...]


def _pipeline_artifacts(suffix: str) -> tuple[str, ...]:
    return (f"distance_matrix{suffix}.csv", f"assignment{suffix}.json",
            f"summary{suffix}.csv", f"observations{suffix}.csv")


def wide_fixed_k_calls(out: str) -> list[Call]:
    argv = ("pipeline", "--input", "panel.csv", "--theta", "0.5", "--k", "4",
            "--output-dir", out, "--quiet")
    return [Call(argv, _pipeline_artifacts(""), (("assignment", "assignment.json", 0.5),))]


def sweep_select_k_calls(out: str) -> list[Call]:
    argv = ("pipeline", "--input", "panel.csv", "--theta-sweep", "--k-range", "2..6",
            "--stability-runs", "20", "--subsample", "0.7", "--output-dir", out, "--quiet")
    artifacts, checks = ["crosstab.json"], []
    for theta in ("0", "0.5", "1"):
        suffix = f"_theta{theta}"
        artifacts += [*_pipeline_artifacts(suffix), f"stability{suffix}.json"]
        checks += [("assignment", f"assignment{suffix}.json", float(theta)),
                   ("stability", f"stability{suffix}.json", float(theta))]
    return [Call(argv, tuple(artifacts), tuple(checks))]


def narrow_stability_calls(out: str) -> list[Call]:
    calls = []
    for theta in ("0", "1"):
        for seed in range(5):
            name = f"stability_theta{theta}_seed{seed}.json"
            argv = ("stability", "--input", "panel.csv", "--theta", theta, "--k-range", "2..6",
                    "--seed", str(seed), "--output", f"{out}/{name}", "--quiet")
            calls.append(Call(argv, (name,), (("stability", name, float(theta)),)))
    return calls


@dataclass(frozen=True)
class Workload:
    name: str
    blocks: str  # `synth --blocks`: 4 blocks of this many series
    m: int       # increments per series
    calls: Callable[[str], list[Call]]  # output dir -> the calls of one iteration


WORKLOADS = {
    w.name: w for w in (
        Workload("wide_fixed_k", "4x250", 1000, wide_fixed_k_calls),
        Workload("sweep_select_k", "4x50", 2000, sweep_select_k_calls),
        Workload("narrow_stability", "4x10", 2000, narrow_stability_calls),
    )
}
SMOKE_BLOCKS, SMOKE_M = "4x4", 800  # runs in seconds; its checks pass on seeds 0-3


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def adjusted_rand(a, b) -> float:
    """Adjusted Rand index of two labelings, from their contingency counts."""
    def pairs(counts):
        return sum(c * (c - 1) // 2 for c in counts)

    n = len(a)
    agree = pairs(Counter(zip(a, b)).values())
    rows, cols = pairs(Counter(a).values()), pairs(Counter(b).values())
    total = n * (n - 1) // 2
    expected = rows * cols / total if total else 0.0
    top = (rows + cols) / 2
    return 1.0 if top == expected else (agree - expected) / (top - expected)


def _target(truth: dict, theta: float) -> list[int]:
    return truth["distribution_labels"] if theta == 0 else truth["dependence_labels"]


def check_call(call: Call, code, out: Path, truth: dict, aris: list, hits: list) -> list[str]:
    """Problems with one call's exit code and artifacts; appends ARIs and K hits.

    Stability selection breaks ties between equally stable K toward the
    smaller K, so a stability artifact fails only when the planted K scores
    below the best K; a tie lost to a smaller K still counts as a miss in
    k_hit_rate. An assignment must reach MIN_ARI when it has the planted K.
    """
    problems = [] if code == 0 else [f"exit code {code}"]
    for kind, name, theta in call.checks:
        planted = len(set(_target(truth, theta)))
        try:
            payload = json.loads((out / name).read_text(encoding="utf-8"))
            if kind == "assignment":
                labels = [payload["labels"][sid] for sid in truth["ids"]]
                ari = adjusted_rand(labels, _target(truth, theta))
                aris.append(ari)
                if ari < MIN_ARI and payload["k"] == planted:
                    problems.append(f"{name}: ARI {ari:.3f} < {MIN_ARI} at the planted K")
            elif theta in (0.0, 1.0):
                report = payload["stability"]
                scores = dict(zip(report["k_range"], report["scores"]))
                hits.append(report["selected_k"] == planted)
                if scores.get(planted, -math.inf) < max(scores.values()):
                    problems.append(f"{name}: planted K {planted} is not among the most "
                                    f"stable, selected K {report['selected_k']}")
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems.append(f"{name}: unreadable ({type(e).__name__}: {e})")
    return problems


def sha256(path: Path) -> str | None:
    # streamed, so hashing a large artifact adds nothing to this process's peak RSS
    try:
        with path.open("rb") as f:
            return hashlib.file_digest(f, "sha256").hexdigest()
    except OSError:
        return None


def digest_problems(digests: dict, reference: dict) -> list[str]:
    return [
        f"{name}: missing" if digests[name] is None else f"{name}: bytes differ"
        for name in digests
        if digests[name] is None or digests[name] != reference[name]
    ]


# ---------------------------------------------------------------------------
# tracing targets and per-layer metrics
# ---------------------------------------------------------------------------

def _cells(args, kwargs, panel):
    return {"cells": panel.n_series * panel.n_obs}


def _series(args, kwargs, rep):
    return {"series": rep.n_series}


def _pair_obs(args, kwargs, result):
    rep = args[0] if args else kwargs["rep"]
    n = rep.n_series
    return {"pair_obs": n * (n - 1) // 2 * (rep.m + rep.grid[2])}


def trace_targets(cli, clustering) -> list:
    return [
        (cli, "load_panel", _cells),
        (cli, "to_increments", None),
        (cli, "as_increments", None),
        (cli, "represent", _series),
        (clustering, "represent", _series),
        (cli, "distance_matrix", _pair_obs),
        (clustering, "distance_matrix", _pair_obs),
        (cli, "cluster", None),
        (cli, "stability_select_k", None),
        (cli, "cluster_summary", None),
    ]


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(s: dict, cpu_s: float, artifact_bytes: int) -> dict:
    total, own, calls, work = s["total_s"], s["self_s"], s["calls"], s["work"]
    resamples = s["children"][("clustering.stability_select_k", "distance.distance_matrix")]
    stability_s = total["clustering.stability_select_k"]
    return {
        "ingestion.load_panel_s": total["ingestion.load_panel"],
        "ingestion.cells": work["cells"],
        "ingestion.cells_per_s": _rate(work["cells"], total["ingestion.load_panel"]),
        "representation.represent_s": total["representation.represent"],
        "representation.calls": calls["representation.represent"],
        "representation.series_per_s": _rate(work["series"], total["representation.represent"]),
        "distance.distance_matrix_s": total["distance.distance_matrix"],
        "distance.calls": calls["distance.distance_matrix"],
        "distance.pair_obs": work["pair_obs"],
        "distance.pair_obs_per_s": _rate(work["pair_obs"], total["distance.distance_matrix"]),
        "clustering.stability_select_k_s": stability_s,
        "clustering.stability_self_s": own["clustering.stability_select_k"],
        "clustering.resamples": resamples,
        "clustering.resample_s": stability_s / resamples if resamples else 0.0,
        "clustering.cluster_s": total["clustering.cluster"],
        "clustering.cluster_summary_s": total["clustering.cluster_summary"],
        "cli.main_s": total["cli.main"],
        "cli.self_s": own["cli.main"],
        "cli.artifact_bytes": artifact_bytes,
        "process.cpu_s": cpu_s,
    }


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    aris: list = field(default_factory=list)
    hits: list = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append({"call": label, "problems": problems})


def set_up(workload: Workload, seed: int, trace: bool, repeats: int) -> tuple[list[dict], dict]:
    """Synthesize the input in `repeats` fresh processes; return their timings and the truth."""
    argv = ["synth", "--blocks", workload.blocks, *SYNTH_FLAGS, "--m", str(workload.m),
            "--seed", str(seed), "--output-prefix", "panel", "--quiet"]
    samples, first = [], None
    for _ in range(repeats):
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "synth_child.py"), str(SRC), str(int(trace)), *argv],
                capture_output=True, text=True, timeout=170,
            )
        except subprocess.TimeoutExpired:
            raise SetupError("synth process timed out") from None
        if proc.returncode != 0:
            raise SetupError(f"synth process failed: {proc.stderr.strip()}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        if sample["exit"] != 0:
            raise SetupError(f"rwclust synth exited {sample['exit']}")
        digest = (sha256(Path("panel.csv")), sha256(Path("panel_truth.json")))
        if first is not None and digest != first:
            raise SetupError("rwclust synth wrote different bytes for the same seed")
        first = digest
        samples.append(sample)
    truth = json.loads(Path("panel_truth.json").read_text(encoding="utf-8"))
    return samples, truth


def _invoke(cli, argv, tracer, errors: list):
    try:
        if tracer is None:
            return cli.main(list(argv))
        return tracer.call("cli.main", cli.main, (list(argv),))
    except Exception:  # an escaped exception is a failed call, not a failed benchmark
        errors.append(traceback.format_exc())
        return None


def run_iteration(cli, calls, out: Path, tracer, targets, tally, truth, reference, label,
                  extra=()):
    """Time one pass over `calls`; check it; return (wall, cpu, digests, spans, bytes).

    With `targets`, the calls run traced. `extra` is appended to every argv.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    errors: list[str] = []
    first = len(tracer.spans)
    with tracer.patched(targets) if targets else nullcontext():
        cpu0, t0 = time.process_time(), time.perf_counter()
        codes = [_invoke(cli, call.argv + extra, tracer if targets else None, errors)
                 for call in calls]
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    digests = [{name: sha256(out / name) for name in call.artifacts} for call in calls]
    for i, (call, code, dig) in enumerate(zip(calls, codes, digests)):
        problems = check_call(call, code, out, truth, tally.aris, tally.hits)
        problems += digest_problems(dig, reference[i] if reference else dig)
        tally.record(f"{label} {call.argv[0]} #{i}", problems)
    tally.failures.extend({"call": label, "traceback": e} for e in errors)
    artifact_bytes = sum((out / n).stat().st_size for d in digests for n in d if d[n])
    return wall, cpu, digests, tracer.spans[first:], artifact_bytes


def measure(cli, clustering, workload: Workload, seed: int, seconds: float, trace: bool,
            setup_repeats: int = SETUP_REPEATS, truth_filter=None) -> dict:
    """Set up, time, check and (with `trace`) trace one workload; return the full record.

    `truth_filter` rewrites the planted truth before the checks use it.
    """
    setup, truth = set_up(workload, seed, trace, setup_repeats)
    if truth_filter is not None:
        truth = truth_filter(truth)
    calls = workload.calls("iter")
    out = Path("iter")
    tracer = Tracer()
    targets = trace_targets(cli, clustering)
    tally = Tally()
    plain, traced, rows, trace_gaps = [], [], [], []
    reference = None

    # A traced run alternates untraced and traced iterations after a first
    # untraced one, which absorbs the process's warm-up and is left out of
    # the overhead comparison.
    start = time.perf_counter()
    while True:
        use_trace = trace and 0 < len(plain) and len(traced) < len(plain)
        wall, cpu, digests, spans, nbytes = run_iteration(
            cli, calls, out, tracer, targets if use_trace else None, tally, truth, reference,
            "traced" if use_trace else "plain")
        reference = reference or digests
        if use_trace:
            s = summarize(spans)
            traced.append(wall)
            rows.append(layer_metrics(s, cpu, nbytes))
            trace_gaps.append(abs(s["self_sum_s"] - s["root_s"]))
        else:
            plain.append(wall)
        enough = not trace or (len(plain) >= 2 and traced)
        if enough and time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if trace:
        _, _, _, spans, _ = run_iteration(cli, calls, out, tracer, targets, tally, truth,
                                          reference, "threads2", ("--threads", "2"))
    shutil.rmtree(out, ignore_errors=True)

    n_series = len(truth["ids"])
    wall_s = statistics.median(plain)
    record = {
        "workload": workload.name,
        "shape": {"series": n_series, "increments": workload.m, "calls": len(calls)},
        "seconds": seconds,
        "trace": trace,
        "iterations_plain_s": plain,
        "iterations_traced_s": traced,
        "setup_samples": setup,
        "metrics": {
            "wall_s": wall_s,
            "cells_per_s": n_series * workload.m * len(calls) / wall_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(s["import_s"] + s["synth_s"] for s in setup),
        },
        "checks": {
            "error_rate": tally.failed / tally.attempted,
            "recovery_ari": min(tally.aris) if tally.aris else None,
            "k_hit_rate": sum(tally.hits) / len(tally.hits) if tally.hits else None,
        },
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "artifact_sha256": {n: d for call_digests in reference for n, d in call_digests.items()},
    }
    if trace:
        layers = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        layers["distance.distance_matrix_threads2_s"] = \
            summarize(spans)["total_s"]["distance.distance_matrix"]
        layers["synthetic.generate_panel_s"] = \
            statistics.median(s["generate_panel_s"] for s in setup)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain[1:])
        record["layers"] = layers
        record["trace_self_sum_gap_s"] = max(trace_gaps)
        record["spans"] = tracer.spans
    record["correct"] = tally.failed == 0 and all(g <= 1e-6 for g in trace_gaps)
    return record


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def import_rwclust():
    """Import rwclust from this checkout's src/, never from an installed copy."""
    if not (SRC / "rwclust" / "__init__.py").is_file():
        raise SetupError(f"no rwclust package under {SRC}")
    sys.path.insert(0, str(SRC))
    from rwclust import cli, clustering
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"rwclust imported from {cli.__file__}, not from {SRC}")
    return cli, clustering


def run_in(work: Path, fn, *args, **kwargs):
    """Call fn inside a fresh working directory, which is removed afterwards."""
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        return fn(*args, **kwargs)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def benchmark(args) -> int:
    cli, clustering = import_rwclust()
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = run_in(OUT / f"work-{tag}-{os.getpid()}", measure, cli, clustering, workload,
                    args.seed, args.seconds, bool(args.trace))
    record["environment"] = environment(args.seed)
    spans = record.pop("spans", None)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if spans is not None:
        (OUT / f"{tag}-spans.json").write_text(json.dumps(spans), encoding="utf-8")

    units = {spec["name"]: spec["unit"] for key in ("end_to_end", "per_layer")
             for spec in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    shown = record["layers"] if args.trace else record["metrics"]
    for name, value in {**shown, **record["checks"]}.items():
        print(f"{workload.name} {name} {_fmt(value)} {units.get(name, '')}".rstrip())
    combined = hashlib.sha256(json.dumps(record["artifact_sha256"], sort_keys=True).encode())
    print(f"{workload.name} artifacts_sha256 {combined.hexdigest()}")
    print(f"{workload.name} record {OUT.name}/{tag}.json")
    for failure in record["failures"][:5]:
        print(f"FAILED {json.dumps(failure)[:300]}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in shown.items()},
    }))
    return 0


def _swap_in_product_labels(truth: dict) -> dict:
    # the product of blocks and families has 8 groups, so every ARI and K check must fail
    return {**truth, "dependence_labels": truth["product_labels"],
            "distribution_labels": truth["product_labels"]}


def smoke(args) -> int:
    """Every workload path and check on tiny panels, plus one run whose checks must fail."""
    cli, clustering = import_rwclust()
    ok = True
    # a traced run also times one untraced iteration, so it covers both paths
    cases = [(name, True, None) for name in WORKLOADS]
    cases.append(("sweep_select_k", False, _swap_in_product_labels))
    for name, trace, truth_filter in cases:
        workload = replace(WORKLOADS[name], blocks=SMOKE_BLOCKS, m=SMOKE_M)
        work = OUT / f"work-smoke-{name}-{os.getpid()}"
        record = run_in(work, measure, cli, clustering, workload, args.seed, 0, trace,
                        setup_repeats=1, truth_filter=truth_filter)
        broken = truth_filter is not None
        passed = (record["failed"] > 0 and not record["correct"]) if broken \
            else record["correct"]
        if trace and not broken:
            passed &= record["layers"]["cli.main_s"] > 0
        ok &= passed
        print(f"smoke {name} trace={int(trace)} checks={'broken' if broken else 'true'} "
              f"attempted={record['attempted']} failed={record['failed']} "
              f"error_rate={_fmt(record['checks']['error_rate'])} "
              f"recovery_ari={_fmt(record['checks']['recovery_ari'])} "
              f"k_hit_rate={_fmt(record['checks']['k_hit_rate'])} "
              f"-> {'ok' if passed else 'UNEXPECTED'}")
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="input seed, >= 0 (default 0)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure at least this long (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="self-test on tiny panels instead of a measured run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    for name in BLAS_ENV:  # one single-threaded process, as the workloads define
        os.environ.setdefault(name, "1")
    try:
        return smoke(args) if args.smoke else benchmark(args)
    except SetupError as e:
        sys.stderr.write(f"bench: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
