"""Command-line entry point wiring ingestion -> representation -> distances -> clustering.

Subcommands: represent, distances, cluster, stability, synth, pipeline.
All artifacts are deterministic: identical config and inputs reproduce them
byte for byte (worker count does not affect results), and every output file
embeds the resolved semantic config plus the library version.

Exit codes: 0 success, 1 internal error, 2 input error, 3 config error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import (
    ClusterAssignment,
    ClusterSummary,
    StabilityReport,
    cluster,
    cluster_summary,
    stability_select_k,
)
from .distance import DistanceMatrix, DistanceParams, distance_matrix
from .errors import (
    BinningRangeError,
    DegenerateSampleError,
    InsufficientDataError,
    PanelFormatError,
    ParameterError,
    RwclustError,
    ValidationError,
)
from .ingestion import (
    IncrementPanel,
    IngestionOptions,
    SeriesPanel,
    as_increments,
    load_panel,
    to_increments,
)
from .representation import BinningConfig, represent
from .synthetic import CorrelationBlock, DistributionGroup, SyntheticSpec, generate_panel

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_CONFIG = 3

_INPUT_ERRORS = (
    PanelFormatError,
    ValidationError,
    InsufficientDataError,
    BinningRangeError,
    DegenerateSampleError,
)

_METHOD_BY_FLAG = {
    "average": "average_linkage",
    "complete": "complete_linkage",
    "medoids": "k_medoids",
}

SWEEP_THETAS = (0.0, 0.5, 1.0)


@dataclass(frozen=True)
class RunConfig:
    """Resolved pipeline configuration; the semantic part is embedded in artifacts."""

    input: str
    already_increments: bool
    missing: str
    date_format: str | None
    theta: float | None  # None means sweep over SWEEP_THETAS
    bin_rule: str
    bins: int
    bin_width: float | None
    exact_spearman_norm: bool
    method: str
    k: int | None
    k_range: tuple[int, int] | None
    stability_runs: int
    subsample: float
    seed: int
    output_dir: str
    # execution-only knobs, excluded from provenance
    threads: int = 1
    quiet: bool = False
    json_logs: bool = False

    def provenance(self, theta: float | str | None = None) -> dict:
        cfg = asdict(self)
        for key in ("threads", "quiet", "json_logs", "output_dir"):
            cfg.pop(key)
        if theta is not None:
            cfg["theta"] = theta
        return {"version": __version__, "config": cfg}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse's own exit code would collide with the input-error code
    def error(self, message):
        raise ParameterError(message)


def _k_range_arg(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected a..b, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _add_ingestion_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="CSV panel: time column + one column per series")
    p.add_argument("--already-increments", action="store_true",
                   help="rows are increments already; skip differencing")
    p.add_argument("--missing", choices=("reject", "drop-series"), default="reject",
                   help="policy for gaps (default: reject)")
    p.add_argument("--date-format", default=None,
                   help="strptime format for time labels (default: lexicographic order)")


def _add_binning_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bins", type=int, default=100, help="bin count for the count rule (default 100)")
    p.add_argument("--bin-width", type=float, default=None, help="bin width for the width rule")
    p.add_argument("--bin-rule", choices=("count", "width", "fd"), default=None,
                   help="histogram rule (default: count, or width when --bin-width is given)")


def _add_theta_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", type=float, default=0.5, help="blend weight in [0,1] (default 0.5)")
    p.add_argument("--exact-spearman-norm", action="store_true",
                   help="normalize the dependence part so it is capped at 1")


def _add_selection_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=sorted(_METHOD_BY_FLAG), default="average",
                   help="clustering algorithm (default: average)")
    p.add_argument("--stability-runs", type=int, default=20,
                   help="resample count for stability selection (default 20)")
    p.add_argument("--subsample", type=float, default=0.7,
                   help="observation fraction per stability resample (default 0.7)")


def _add_cluster_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--k", type=int, default=None, help="fixed cluster count")
    group.add_argument("--k-range", type=_k_range_arg, default=None, metavar="A..B",
                       help="candidate K range for stability selection")
    _add_selection_flags(p)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")
    common.add_argument("--threads", type=int, default=1,
                        help="worker threads for the Hellinger part of the distance kernel; "
                             "results do not depend on it (default 1)")
    common.add_argument("--quiet", action="store_true", help="log errors only")
    common.add_argument("--json-logs", action="store_true", help="emit log lines as JSON")

    parser = _Parser(prog="rwclust",
                     description="Cluster random-walk panels by joint dependence and marginal shape.")
    parser.add_argument("--version", action="version", version=f"rwclust {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("represent", parents=[common],
                       help="emit per-series ranks and histograms as JSON")
    _add_ingestion_flags(p)
    _add_binning_flags(p)
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_represent)

    p = sub.add_parser("distances", parents=[common], help="emit the pairwise distance matrix")
    _add_ingestion_flags(p)
    _add_binning_flags(p)
    _add_theta_flags(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="matrix output format (default: csv)")
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_distances)

    p = sub.add_parser("cluster", parents=[common],
                       help="cluster the panel at a fixed or stability-selected K")
    _add_ingestion_flags(p)
    _add_binning_flags(p)
    _add_theta_flags(p)
    _add_cluster_flags(p)
    p.add_argument("--summary", action="store_true", help="include per-cluster pooled statistics")
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("stability", parents=[common],
                       help="score candidate cluster counts by resampling stability")
    _add_ingestion_flags(p)
    _add_binning_flags(p)
    _add_theta_flags(p)
    p.add_argument("--k-range", type=_k_range_arg, required=True, metavar="A..B",
                   help="candidate K range to score")
    _add_selection_flags(p)
    p.add_argument("--output", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a ground-truth panel (CSV) and its labels (JSON)")
    p.add_argument("--spec", default=None, help="JSON spec file; overrides the inline flags")
    p.add_argument("--blocks", default=None, metavar="NxS|S1,S2,...",
                   help="correlation blocks, e.g. 4x10 or 10,10,20")
    p.add_argument("--rho", default="0.7", help="intra-block correlation, one value or per-block list")
    p.add_argument("--dists", default="gaussian", metavar="FAM[:DF],...",
                   help="distribution groups, e.g. gaussian,student_t:3")
    p.add_argument("--scales", default=None, help="per-group scales (default: all 1)")
    p.add_argument("--m", type=int, default=2000, help="increments per series (default 2000)")
    p.add_argument("--output-prefix", default="synthetic",
                   help="writes PREFIX.csv and PREFIX_truth.json (default: synthetic)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("pipeline", parents=[common],
                       help="run ingestion through clustering and write all artifacts")
    _add_ingestion_flags(p)
    _add_binning_flags(p)
    theta_group = p.add_mutually_exclusive_group()
    theta_group.add_argument("--theta", type=float, default=None,
                             help="blend weight in [0,1] (default 0.5)")
    theta_group.add_argument("--theta-sweep", action="store_true",
                             help="run theta in {0, 0.5, 1} and cross-tabulate the partitions")
    p.add_argument("--exact-spearman-norm", action="store_true",
                   help="normalize the dependence part so it is capped at 1")
    _add_cluster_flags(p)
    p.add_argument("--output-dir", default=".", help="artifact directory (default: .)")
    p.set_defaults(func=_cmd_pipeline)

    return parser


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _setup_logging(args) -> None:
    handler = logging.StreamHandler(sys.stderr)
    if getattr(args, "json_logs", False):
        class _JsonFormatter(logging.Formatter):
            def format(self, record):
                return json.dumps(
                    {"level": record.levelname, "logger": record.name,
                     "message": record.getMessage()},
                    sort_keys=True,
                )
        handler.setFormatter(_JsonFormatter())
    else:
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger("rwclust")
    root.handlers.clear()
    root.addHandler(handler)
    root.setLevel(logging.ERROR if getattr(args, "quiet", False) else logging.INFO)


def _binning_config(args) -> BinningConfig:
    rule = args.bin_rule or ("width" if args.bin_width is not None else "count")
    return BinningConfig(rule=rule, bins=args.bins, width=args.bin_width)


def _load(src) -> tuple[SeriesPanel, IncrementPanel]:
    """Read the panel named by `src` (parsed args or a RunConfig; both carry the
    ingestion fields) and turn its rows into the increments that get clustered."""
    options = IngestionOptions(missing=src.missing.replace("-", "_"), date_format=src.date_format)
    panel = load_panel(src.input, options)
    inc = as_increments(panel) if src.already_increments else to_increments(panel)
    return panel, inc


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _fmt(v: float) -> str:
    return repr(float(v))


def _csv_field(text: str) -> str:
    """`text` quoted as csv.writer quotes a field of a multi-field row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _write_float_rows(buf: io.StringIO, labels, matrix: np.ndarray) -> None:
    """Write one CSV row per matrix row: its label, then each value as repr(float).

    Bytes equal csv.writer's with _fmt per cell. A row is formatted only after
    the previous one is written, so one row's strings exist at a time.
    """
    for label, row in zip(labels, matrix):
        buf.write(_csv_field(label))
        buf.write(",")
        buf.write(",".join(map(repr, row.tolist())))
        buf.write("\n")


def _matrix_csv(dm: DistanceMatrix, provenance: dict) -> str:
    buf = io.StringIO()
    buf.write(f"# {json.dumps(provenance, sort_keys=True)}\n")
    csv.writer(buf, lineterminator="\n").writerow(["id", *dm.ids])
    _write_float_rows(buf, dm.ids, dm.values)
    return buf.getvalue()


def _matrix_payload(dm: DistanceMatrix) -> dict:
    return {
        "theta": dm.theta,
        "ids": list(dm.ids),
        "values": dm.values.tolist(),
        "meta": dm.meta,
    }


def _summary_payload(summary: ClusterSummary) -> list[dict]:
    return [
        {"cluster": r.cluster, "mean": r.mean, "quantile_10": r.quantile_10,
         "quantile_90": r.quantile_90, "size": r.size}
        for r in summary.rows
    ]


def _stability_payload(report: StabilityReport) -> dict:
    return {
        "k_range": list(report.k_range),
        "scores": list(report.scores),
        "dispersion": list(report.dispersion),
        "selected_k": report.selected_k,
        "runs": report.runs,
        "seed": report.seed,
        "subsample_fraction": report.subsample_fraction,
    }


def _assignment_payload(assignment: ClusterAssignment,
                        summary: ClusterSummary | None,
                        report: StabilityReport | None) -> dict:
    return {
        "theta": assignment.theta,
        "k": assignment.k,
        "method": assignment.method,
        "labels": {sid: int(lab) for sid, lab in zip(assignment.ids, assignment.labels)},
        "summary": _summary_payload(summary) if summary is not None else None,
        "stability": _stability_payload(report) if report is not None else None,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _args_provenance(args, fields: tuple[str, ...]) -> dict:
    cfg = {f: getattr(args, f) for f in fields}
    return {"version": __version__, "config": cfg}


_INGEST_FIELDS = ("input", "already_increments", "missing", "date_format")
_BIN_FIELDS = ("bins", "bin_width", "bin_rule")


def _cmd_represent(args) -> int:
    _, inc = _load(args)
    rep = represent(inc, _binning_config(args))
    origin, width, _ = rep.grid
    payload = _args_provenance(args, _INGEST_FIELDS + _BIN_FIELDS)
    payload["series"] = [
        {
            "id": rep.ids[i],
            "ranks": rep.ranks[i].tolist(),
            "density": {
                "origin": origin,
                "width": width,
                "masses": rep.masses[i].tolist(),
            },
        }
        for i in range(rep.n_series)
    ]
    _emit(_json_text(payload), args.output)
    return EXIT_OK


def _cmd_distances(args) -> int:
    _, inc = _load(args)
    params = DistanceParams(theta=args.theta, exact_spearman_norm=args.exact_spearman_norm)
    dm = distance_matrix(represent(inc, _binning_config(args)), params, threads=args.threads)
    provenance = _args_provenance(
        args, _INGEST_FIELDS + _BIN_FIELDS + ("theta", "exact_spearman_norm")
    )
    if args.format == "csv":
        _emit(_matrix_csv(dm, provenance), args.output)
    else:
        payload = dict(provenance)
        payload["matrix"] = _matrix_payload(dm)
        _emit(_json_text(payload), args.output)
    return EXIT_OK


def _resolve_k(args, inc: IncrementPanel, params: DistanceParams,
               binning: BinningConfig, method: str) -> tuple[int, StabilityReport | None]:
    if args.k is not None:
        return args.k, None
    if args.k_range is None:
        raise ParameterError("either --k or --k-range is required")
    lo, hi = args.k_range
    report = stability_select_k(
        inc, params, binning,
        k_range=range(lo, hi + 1),
        runs=args.stability_runs,
        subsample_fraction=args.subsample,
        seed=args.seed,
        method=method,
        threads=args.threads,
    )
    return report.selected_k, report


def _cmd_cluster(args) -> int:
    panel, inc = _load(args)
    params = DistanceParams(theta=args.theta, exact_spearman_norm=args.exact_spearman_norm)
    binning = _binning_config(args)
    method = _METHOD_BY_FLAG[args.method]
    k, report = _resolve_k(args, inc, params, binning, method)
    dm = distance_matrix(represent(inc, binning), params, threads=args.threads)
    assignment = cluster(dm, k, method)
    summary = cluster_summary(assignment, panel) if args.summary else None
    payload = _args_provenance(
        args,
        _INGEST_FIELDS + _BIN_FIELDS
        + ("theta", "exact_spearman_norm", "method", "k", "k_range",
           "stability_runs", "subsample", "seed"),
    )
    payload.update(_assignment_payload(assignment, summary, report))
    _emit(_json_text(payload), args.output)
    return EXIT_OK


def _cmd_stability(args) -> int:
    _, inc = _load(args)
    params = DistanceParams(theta=args.theta, exact_spearman_norm=args.exact_spearman_norm)
    lo, hi = args.k_range
    report = stability_select_k(
        inc, params, _binning_config(args),
        k_range=range(lo, hi + 1),
        runs=args.stability_runs,
        subsample_fraction=args.subsample,
        seed=args.seed,
        method=_METHOD_BY_FLAG[args.method],
        threads=args.threads,
    )
    payload = _args_provenance(
        args,
        _INGEST_FIELDS + _BIN_FIELDS
        + ("theta", "exact_spearman_norm", "method", "k_range",
           "stability_runs", "subsample", "seed"),
    )
    payload["stability"] = _stability_payload(report)
    _emit(_json_text(payload), args.output)
    return EXIT_OK


def _parse_blocks(text: str) -> list[int]:
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if m:
        return [int(m.group(2))] * int(m.group(1))
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ParameterError(f"cannot parse blocks {text!r}; expected NxS or S1,S2,...") from None


def _parse_dists(text: str) -> list[tuple[str, float | None]]:
    out = []
    for part in text.split(","):
        if ":" in part:
            fam, df = part.split(":", 1)
            try:
                out.append((fam.strip(), float(df)))
            except ValueError:
                raise ParameterError(f"cannot parse degrees of freedom in {part!r}") from None
        else:
            out.append((part.strip(), None))
    return out


def _synth_spec_from_args(args) -> SyntheticSpec:
    if args.spec is not None:
        try:
            raw = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ParameterError(f"spec {args.spec} is not valid JSON: {e}") from None
        try:
            blocks = tuple(CorrelationBlock(size=b["size"], rho=b["rho"]) for b in raw["blocks"])
            groups = tuple(
                DistributionGroup(family=g["family"], scale=g.get("scale", 1.0), df=g.get("df"))
                for g in raw["groups"]
            )
            labels = raw.get("distribution_labels")
            return SyntheticSpec(
                n_series=raw["n_series"],
                m_obs=raw["m_obs"],
                blocks=blocks,
                groups=groups,
                seed=raw.get("seed", args.seed),
                distribution_labels=tuple(labels) if labels is not None else None,
            )
        except KeyError as e:
            raise ParameterError(f"spec {args.spec} is missing the key {e}") from None
        except (TypeError, AttributeError) as e:  # a list or number where an object belongs
            raise ParameterError(f"spec {args.spec} is malformed: {e}") from None
    if args.blocks is None:
        raise ParameterError("synth needs --spec or --blocks")
    sizes = _parse_blocks(args.blocks)
    rhos = [float(s) for s in str(args.rho).split(",")]
    if len(rhos) == 1:
        rhos = rhos * len(sizes)
    if len(rhos) != len(sizes):
        raise ParameterError(f"{len(rhos)} rho values for {len(sizes)} blocks")
    dists = _parse_dists(args.dists)
    scales = [1.0] * len(dists)
    if args.scales is not None:
        scales = [float(s) for s in args.scales.split(",")]
        if len(scales) != len(dists):
            raise ParameterError(f"{len(scales)} scales for {len(dists)} distribution groups")
    try:
        blocks = tuple(CorrelationBlock(size=s, rho=r) for s, r in zip(sizes, rhos))
        groups = tuple(
            DistributionGroup(family=fam, scale=sc, df=df)
            for (fam, df), sc in zip(dists, scales)
        )
        return SyntheticSpec(
            n_series=sum(sizes), m_obs=args.m, blocks=blocks, groups=groups, seed=args.seed
        )
    except ValidationError as e:  # bad inline flag values are config errors
        raise ParameterError(str(e)) from None


def _panel_csv(panel: SeriesPanel) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(["t", *panel.ids])
    _write_float_rows(buf, panel.index, panel.values.T)
    return buf.getvalue()


def _cmd_synth(args) -> int:
    spec = _synth_spec_from_args(args)
    panel, truth = generate_panel(spec)
    prefix = Path(args.output_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = prefix.with_name(prefix.name + ".csv")
    truth_path = prefix.with_name(prefix.name + "_truth.json")
    csv_path.write_text(_panel_csv(panel), encoding="utf-8")
    payload = {
        "version": __version__,
        "config": {
            "n_series": spec.n_series,
            "m_obs": spec.m_obs,
            "blocks": [{"size": b.size, "rho": b.rho} for b in spec.blocks],
            "groups": [
                {"family": g.family, "scale": g.scale, "df": g.df} for g in spec.groups
            ],
            "seed": spec.seed,
        },
        "ids": list(truth.ids),
        "dependence_labels": truth.dependence_labels.tolist(),
        "distribution_labels": truth.distribution_labels.tolist(),
        "product_labels": truth.product_labels.tolist(),
    }
    truth_path.write_text(_json_text(payload), encoding="utf-8")
    log.info("wrote %s and %s", csv_path, truth_path)
    return EXIT_OK


def _run_config(args) -> RunConfig:
    return RunConfig(
        input=args.input,
        already_increments=args.already_increments,
        missing=args.missing,
        date_format=args.date_format,
        theta=None if args.theta_sweep else (0.5 if args.theta is None else args.theta),
        bin_rule=args.bin_rule or ("width" if args.bin_width is not None else "count"),
        bins=args.bins,
        bin_width=args.bin_width,
        exact_spearman_norm=args.exact_spearman_norm,
        method=_METHOD_BY_FLAG[args.method],
        k=args.k,
        k_range=args.k_range,
        stability_runs=args.stability_runs,
        subsample=args.subsample,
        seed=args.seed,
        output_dir=args.output_dir,
        threads=args.threads,
        quiet=args.quiet,
        json_logs=args.json_logs,
    )


def _observations_csv(assignment: ClusterAssignment, panel: SeriesPanel) -> str:
    """One row per series, in panel order: its id, its cluster label, and its
    number of values in the input file (levels, or increments under
    --already-increments)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["series_id", "cluster", "n_obs"])
    label_of = dict(zip(assignment.ids, assignment.labels.tolist()))
    writer.writerows([sid, label_of[sid], panel.n_obs] for sid in panel.ids)
    return buf.getvalue()


def _summary_csv(summary: ClusterSummary, provenance: dict) -> str:
    buf = io.StringIO()
    buf.write(f"# {json.dumps(provenance, sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["cluster", "mean", "quantile_10", "quantile_90", "size"])
    for r in summary.rows:
        writer.writerow([r.cluster, _fmt(r.mean), _fmt(r.quantile_10), _fmt(r.quantile_90), r.size])
    return buf.getvalue()


def _crosstab(a: ClusterAssignment, b: ClusterAssignment) -> list[list[int]]:
    table = np.zeros((a.k, b.k), dtype=np.int64)
    pos_b = {sid: lab for sid, lab in zip(b.ids, b.labels)}
    for sid, lab in zip(a.ids, a.labels):
        table[lab, pos_b[sid]] += 1
    return table.tolist()


def _run_single_theta(config: RunConfig, theta: float, panel: SeriesPanel,
                      inc: IncrementPanel, out_dir: Path, suffix: str) -> ClusterAssignment:
    params = DistanceParams(theta=theta, exact_spearman_norm=config.exact_spearman_norm)
    binning = BinningConfig(rule=config.bin_rule, bins=config.bins, width=config.bin_width)
    provenance = config.provenance(theta=theta)

    report = None
    if config.k is not None:
        k = config.k
    elif config.k_range is not None:
        lo, hi = config.k_range
        report = stability_select_k(
            inc, params, binning, k_range=range(lo, hi + 1),
            runs=config.stability_runs, subsample_fraction=config.subsample,
            seed=config.seed, method=config.method, threads=config.threads,
        )
        k = report.selected_k
    else:
        raise ParameterError("pipeline needs --k or --k-range")

    dm = distance_matrix(represent(inc, binning), params, threads=config.threads)
    assignment = cluster(dm, k, config.method)
    summary = cluster_summary(assignment, panel)

    (out_dir / f"distance_matrix{suffix}.csv").write_text(
        _matrix_csv(dm, provenance), encoding="utf-8")
    payload = dict(provenance)
    payload.update(_assignment_payload(assignment, summary, report))
    (out_dir / f"assignment{suffix}.json").write_text(_json_text(payload), encoding="utf-8")
    (out_dir / f"summary{suffix}.csv").write_text(
        _summary_csv(summary, provenance), encoding="utf-8")
    (out_dir / f"observations{suffix}.csv").write_text(
        _observations_csv(assignment, panel), encoding="utf-8")
    if report is not None:
        stab_payload = dict(provenance)
        stab_payload["stability"] = _stability_payload(report)
        (out_dir / f"stability{suffix}.json").write_text(
            _json_text(stab_payload), encoding="utf-8")
    log.info("theta=%g: k=%d, artifacts in %s", theta, k, out_dir)
    return assignment


def run_pipeline(config: RunConfig) -> int:
    """Execute the full pipeline per config and write every artifact."""
    panel, inc = _load(config)
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if config.theta is not None:
        _run_single_theta(config, config.theta, panel, inc, out_dir, suffix="")
        return EXIT_OK

    assignments = {}
    for theta in SWEEP_THETAS:
        suffix = f"_theta{theta:g}"
        assignments[theta] = _run_single_theta(config, theta, panel, inc, out_dir, suffix)
    payload = config.provenance(theta="sweep")
    payload["tables"] = {
        "theta0.5_vs_theta0": _crosstab(assignments[0.5], assignments[0.0]),
        "theta0.5_vs_theta1": _crosstab(assignments[0.5], assignments[1.0]),
    }
    (out_dir / "crosstab.json").write_text(_json_text(payload), encoding="utf-8")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    return run_pipeline(_run_config(args))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _report_error(args, exc: Exception) -> None:
    if getattr(args, "json_logs", False):
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"rwclust: error: {exc}\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        _setup_logging(args)
        return args.func(args)
    except SystemExit as e:  # argparse --help/--version
        return int(e.code or 0)
    except ParameterError as e:
        _report_error(args, e)
        return EXIT_CONFIG
    except _INPUT_ERRORS as e:
        _report_error(args, e)
        return EXIT_INPUT
    except OSError as e:
        _report_error(args, e)
        return EXIT_INPUT
    except RwclustError as e:
        _report_error(args, e)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
