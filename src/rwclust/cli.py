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
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import (
    ClusterAssignment,
    ClusterSummary,
    StabilityReport,
    _check_resampling,
    _contingency,
    cluster_summary,
    fit,
    stability_select_k,
)
from .distance import DistanceMatrix, _check_thetas, _square_rows, distance_matrices
from .errors import (
    BinningRangeError,
    PanelFormatError,
    ParameterError,
    RwclustError,
    ValidationError,
)
from .ingestion import (
    IncrementPanel,
    IngestionOptions,
    SeriesPanel,
    load_panel,
    to_increments,
)
from .representation import BinningConfig, represent
from .synthetic import (
    CorrelationBlock,
    DistributionGroup,
    SyntheticSpec,
    _check_cells,
    generate_panel,
)

# named, not __name__: run as python -m rwclust.cli, the module is __main__
log = logging.getLogger("rwclust.cli")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_CONFIG = 3

_INPUT_ERRORS = (
    PanelFormatError,
    ValidationError,
    BinningRangeError,
)

_METHOD_BY_FLAG = {
    "average": "average_linkage",
    "complete": "complete_linkage",
    "medoids": "k_medoids",
}

@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of any subcommand but synth; a setting the
    subcommand has no flag for is None. The semantic part is embedded in
    artifacts."""

    input: str
    already_increments: bool
    missing: str
    date_format: str | None
    thetas: tuple[float, ...] | None
    bin_rule: str
    bins: int
    bin_width: float | None
    exact_spearman_norm: bool | None
    method: str | None
    k: int | None
    k_range: tuple[int, int] | None
    stability_runs: int | None
    subsample: float | None
    seed: int
    threads: int  # execution only, never in provenance

    def __post_init__(self):
        """Run every check that needs no data, so that a bad setting fails before any input is read."""
        if self.thetas is not None:  # -0.0 becomes 0.0, so it names and records theta 0
            object.__setattr__(self, "thetas", tuple(theta + 0.0 for theta in _check_thetas(self.thetas)))
            names = [f"{theta:g}" for theta in self.thetas]
            for name in names:  # each names its own artifacts
                if names.count(name) > 1:
                    raise ParameterError(f"--theta lists {name} twice")
        self.binning  # building it checks the grid settings
        if self.k is not None and self.k < 2:
            raise ParameterError(f"--k must be at least 2, got {self.k}")
        if self.k_range is not None and self.k_range[0] < 2:
            raise ParameterError(f"--k-range must start at 2 or more, got {self.k_range[0]}")
        if self.method is not None and self.k is None:  # a run that clusters selects its K
            if self.k_range is None:
                raise ParameterError("either --k or --k-range is required")
            _check_resampling(self.stability_runs, self.subsample, self.seed)

    @property
    def binning(self) -> BinningConfig:
        return BinningConfig(rule=self.bin_rule, bins=self.bins, width=self.bin_width)

    @property
    def selection(self) -> dict:
        """The keywords of `stability_select_k`, which `fit` also takes."""
        return dict(k_range=self.k_range and range(self.k_range[0], self.k_range[1] + 1),
                    runs=self.stability_runs, subsample_fraction=self.subsample, seed=self.seed,
                    method=self.method, threads=self.threads,
                    exact_spearman_norm=self.exact_spearman_norm)

    def provenance(self, keys: tuple[str, ...], theta: float | str | None = None) -> dict:
        """The version and the config restricted to `keys`, plus the artifact's `theta` if any."""
        cfg = {key: getattr(self, key) for key in keys}
        if theta is not None:
            cfg["theta"] = theta
        return {"version": __version__, "config": cfg}


# the config keys each subcommand's artifacts record; pipeline records cluster's
_REPRESENT_FIELDS = ("input", "already_increments", "missing", "date_format",
                     "bin_rule", "bins", "bin_width")
_DISTANCES_FIELDS = _REPRESENT_FIELDS + ("exact_spearman_norm",)
_STABILITY_FIELDS = _DISTANCES_FIELDS + ("method", "k_range", "stability_runs", "subsample",
                                         "seed")
_CLUSTER_FIELDS = _STABILITY_FIELDS + ("k",)


def _config(args) -> RunConfig:
    """Resolve the parsed flags of any subcommand but synth into one RunConfig."""
    flags = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    flags["bin_rule"] = args.bin_rule or ("width" if args.bin_width is not None else "count")
    if flags["method"] is not None:
        flags["method"] = _METHOD_BY_FLAG[flags["method"]]
    if isinstance(flags["thetas"], float):  # distances, cluster and stability take one
        flags["thetas"] = (flags["thetas"],)
    return RunConfig(**flags)


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


def _positive_int(text: str) -> int:
    if not re.fullmatch(r"\d+", text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


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


def _add_theta_flags(p: argparse.ArgumentParser, many: bool = False) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--theta", dest="thetas", default=0.5, metavar="T[,T...]" if many else "THETA",
                       type=(lambda text: _parse_floats(text, "--theta")) if many else float,
                       help="distinct blend weights in [0,1], comma-separated; with more than one, "
                            "artifact names get a _theta<T> suffix (default 0.5)" if many else
                            "blend weight in [0,1] (default 0.5)")
    if many:
        group.add_argument("--theta-sweep", dest="thetas", action="store_const",
                           const=(0.0, 0.5, 1.0), help="same as --theta 0,0.5,1")
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
    common.add_argument("--threads", type=_positive_int, default=1,
                        help="worker threads that share the row blocks of the Hellinger part "
                             "of the distance kernel, from 500 series; results do not depend "
                             "on it (default 1)")
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
    p.add_argument("--summary", action="store_true",
                   help="include per-cluster statistics of the pooled increments")
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
    _add_theta_flags(p, many=True)
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


def _load(cfg: RunConfig) -> IncrementPanel:
    """Read the panel named by `cfg` and return the increments that get clustered, not its levels."""
    options = IngestionOptions(missing=cfg.missing.replace("-", "_"), date_format=cfg.date_format)
    panel = load_panel(cfg.input, options)
    inc = IncrementPanel(panel.ids, panel.values) if cfg.already_increments else to_increments(panel)
    n = inc.n_series  # the range is refused by its bounds before the library lists it
    if cfg.k_range is not None and cfg.k_range[1] > n - 1:
        raise ParameterError("k_range must lie in [2, {}], got {}..{}".format(n - 1, *cfg.k_range))
    return inc


def _write(path: str | Path | None, write, *args) -> None:
    """Stream one artifact through `write(f, *args)` into the file `path`, or
    to stdout when `path` is None."""
    if path is None:
        write(sys.stdout, *args)
    else:
        with open(path, "w", encoding="utf-8") as f:
            write(f, *args)


def _json(f, payload: dict) -> None:
    json.dump(payload, f, sort_keys=True, indent=2)
    f.write("\n")


def _fmt(v: float) -> str:
    return repr(float(v))


def _csv_field(text: str) -> str:
    """`text` quoted as csv.writer quotes a field of a multi-field row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _repr_row(row: np.ndarray) -> str:
    """`",".join(map(repr, row.tolist()))` for a 1-d float64 array, formatted in compiled code.

    orjson writes each float's shortest round-trip digits, which is the text
    of `repr` for 0.0, -0.0 and every |v| in [1e-4, 1e16). Outside that range
    the texts differ (0.00001 for 1e-05, 1e16 for 1e+16, null for nan), so a
    row holding such a value is formatted by `repr`.
    """
    import orjson  # loaded by the CSV writers and readers only, not by import rwclust

    a = np.abs(row)
    if ((a >= 1e-4) & (a < 1e16) | (a == 0)).all():
        return orjson.dumps(np.ascontiguousarray(row),
                            option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
    return ",".join(map(repr, row.tolist()))


def _float_rows(f, labels, rows) -> None:
    """Write one CSV row per label: the label, then its row of `rows` as `repr` text.

    Bytes equal csv.writer's, as the repr of a float never needs quoting.
    """
    for label, row in zip(labels, rows):
        f.write(f"{_csv_field(label)},{_repr_row(row)}\n")


def _matrix_csv(f, dm: DistanceMatrix, provenance: dict) -> None:
    f.write(f"# {json.dumps(provenance, sort_keys=True)}\n")
    csv.writer(f, lineterminator="\n").writerow(["id", *dm.ids])
    _float_rows(f, dm.ids, _square_rows(dm.values, dm.n_series))


def _matrix_payload(dm: DistanceMatrix) -> dict:
    return {
        "theta": dm.theta,
        "ids": list(dm.ids),
        "values": [row.tolist() for row in _square_rows(dm.values, dm.n_series)],
        "meta": dm.meta,
    }


def _assignment_payload(assignment: ClusterAssignment,
                        summary: ClusterSummary | None,
                        report: StabilityReport | None) -> dict:
    return {
        "theta": assignment.theta,
        "k": assignment.k,
        "method": assignment.method,
        "labels": {sid: int(lab) for sid, lab in zip(assignment.ids, assignment.labels)},
        "summary": asdict(summary)["rows"] if summary is not None else None,
        "stability": asdict(report) if report is not None else None,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_represent(args) -> int:
    cfg = _config(args)
    inc = _load(cfg)
    rep = represent(inc, cfg.binning)
    origin, width, _ = rep.grid
    payload = cfg.provenance(_REPRESENT_FIELDS)
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
    _write(args.output, _json, payload)
    return EXIT_OK


def _cmd_distances(args) -> int:
    cfg = _config(args)
    inc = _load(cfg)
    [dm] = distance_matrices(inc, cfg.thetas, cfg.binning, cfg.exact_spearman_norm, cfg.threads)
    provenance = cfg.provenance(_DISTANCES_FIELDS, dm.theta)
    if args.format == "csv":
        _write(args.output, _matrix_csv, dm, provenance)
    else:
        _write(args.output, _json, {**provenance, "matrix": _matrix_payload(dm)})
    return EXIT_OK


def _cmd_cluster(args) -> int:
    cfg = _config(args)
    inc = _load(cfg)
    [(_, assignment, report)] = fit(inc, cfg.thetas, cfg.binning, cfg.k, **cfg.selection)
    summary = cluster_summary(assignment, inc) if args.summary else None
    payload = cfg.provenance(_CLUSTER_FIELDS, assignment.theta)
    payload.update(_assignment_payload(assignment, summary, report))
    _write(args.output, _json, payload)
    return EXIT_OK


def _cmd_stability(args) -> int:
    cfg = _config(args)
    inc = _load(cfg)
    [report] = stability_select_k(inc, cfg.thetas, cfg.binning, **cfg.selection)
    payload = cfg.provenance(_STABILITY_FIELDS, *cfg.thetas)
    payload["stability"] = asdict(report)
    _write(args.output, _json, payload)
    return EXIT_OK


def _parse_blocks(text: str, m_obs: int) -> list[int]:
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if m:
        count = int(m.group(1))
        # each block holds a series of at least 3 levels, so a count that alone
        # breaks the cell cap is refused before the list is built
        _check_cells(count, max(m_obs, 2))
        return [int(m.group(2))] * count
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise ParameterError(f"cannot parse blocks {text!r}; expected NxS or S1,S2,...") from None


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(s) for s in text.split(","))
    except ValueError:
        raise ParameterError(
            f"cannot parse {flag} {text!r}; expected a number or a comma-separated list"
        ) from None


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
    """The spec of a --spec file, or the same mapping built from the inline
    flags; a bad key or value in either is a config error."""
    if args.spec is not None:
        try:
            raw = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ParameterError(f"spec {args.spec} is not valid JSON: {e}") from None
    elif args.blocks is None:
        raise ParameterError("synth needs --spec or --blocks")
    else:
        sizes = _parse_blocks(args.blocks, args.m)
        rhos = _parse_floats(args.rho, "--rho")
        if len(rhos) == 1:
            rhos = rhos * len(sizes)
        if len(rhos) != len(sizes):
            raise ParameterError(f"{len(rhos)} rho values for {len(sizes)} blocks")
        dists = _parse_dists(args.dists)
        scales = [1.0] * len(dists)
        if args.scales is not None:
            scales = _parse_floats(args.scales, "--scales")
            if len(scales) != len(dists):
                raise ParameterError(f"{len(scales)} scales for {len(dists)} distribution groups")
        raw = {
            "n_series": sum(sizes),
            "m_obs": args.m,
            "blocks": [{"size": s, "rho": r} for s, r in zip(sizes, rhos)],
            "groups": [{"family": fam, "scale": sc, "df": df}
                       for (fam, df), sc in zip(dists, scales)],
        }
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
    except ValidationError as e:
        raise ParameterError(str(e)) from None


def _panel_csv(f, panel: SeriesPanel) -> None:
    csv.writer(f, lineterminator="\n").writerow(["t", *panel.ids])
    _float_rows(f, panel.index, panel.values.T)


def _cmd_synth(args) -> int:
    spec = _synth_spec_from_args(args)
    panel, truth = generate_panel(spec)
    prefix = Path(args.output_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    csv_path = prefix.with_name(prefix.name + ".csv")
    truth_path = prefix.with_name(prefix.name + "_truth.json")
    _write(csv_path, _panel_csv, panel)
    payload = {
        "version": __version__,
        "config": {k: v for k, v in asdict(spec).items() if k != "distribution_labels"},
        "ids": list(truth.ids),
        "dependence_labels": truth.dependence_labels.tolist(),
        "distribution_labels": truth.distribution_labels.tolist(),
        "product_labels": truth.product_labels.tolist(),
    }
    _write(truth_path, _json, payload)
    log.info("wrote %s and %s", csv_path, truth_path)
    return EXIT_OK


def _observations_csv(f, assignment: ClusterAssignment, n_obs: int) -> None:
    """One row per series, in panel order: its id, its cluster label, and
    `n_obs`, its number of values in the input file."""
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(["series_id", "cluster", "n_obs"])
    writer.writerows([sid, label, n_obs] for sid, label in zip(assignment.ids, assignment.labels.tolist()))


def _summary_csv(f, summary: ClusterSummary, provenance: dict) -> None:
    f.write(f"# {json.dumps(provenance, sort_keys=True)}\n")
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(["cluster", "mean", "quantile_10", "quantile_90", "size"])
    for r in summary.rows:
        writer.writerow([r.cluster, _fmt(r.mean), _fmt(r.quantile_10), _fmt(r.quantile_90), r.size])


def _write_theta(cfg: RunConfig, theta: float, result: tuple, inc: IncrementPanel,
                 out_dir: Path, suffix: str) -> None:
    """Write one theta's `fit` result into out_dir, summarising the increments `inc`."""
    provenance = cfg.provenance(_CLUSTER_FIELDS, theta)
    dm, assignment, report = result
    summary = cluster_summary(assignment, inc)

    _write(out_dir / f"distance_matrix{suffix}.csv", _matrix_csv, dm, provenance)
    _write(out_dir / f"assignment{suffix}.json", _json,
           {**provenance, **_assignment_payload(assignment, summary, report)})
    _write(out_dir / f"summary{suffix}.csv", _summary_csv, summary, provenance)
    # a levels file has one row more than its increments
    _write(out_dir / f"observations{suffix}.csv", _observations_csv, assignment,
           inc.n_obs + (not cfg.already_increments))
    if report is not None:
        _write(out_dir / f"stability{suffix}.json", _json,
               {**provenance, "stability": asdict(report)})
    log.info("theta=%g: k=%d, artifacts in %s", theta, assignment.k, out_dir)


def _cmd_pipeline(args) -> int:
    cfg = _config(args)
    inc = _load(cfg)
    fits = fit(inc, cfg.thetas, cfg.binning, cfg.k, **cfg.selection)
    # made only once the fit succeeds, so a K the panel cannot take leaves no directory
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for theta, result in zip(cfg.thetas, fits):
        _write_theta(cfg, theta, result, inc, out_dir, f"_theta{theta:g}" if len(fits) > 1 else "")

    # each theta strictly between the smallest and the largest against both;
    # every assignment lists inc.ids in one order, so labels pair up by position
    labels = {theta: assignment.labels for theta, (_, assignment, _) in zip(cfg.thetas, fits)}
    ends = (min(labels), max(labels))
    tables = {f"theta{t:g}_vs_theta{end:g}": _contingency(labels[t], labels[end]).tolist()
              for t in labels if ends[0] < t < ends[1] for end in ends}
    if tables:
        _write(out_dir / "crosstab.json", _json, {**cfg.provenance(_CLUSTER_FIELDS, "sweep"), "tables": tables})
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _asks_json_logs(argv) -> bool:
    """Whether argv has --json-logs, read on its own so that a failed parse still knows."""
    probe = _Parser(add_help=False)
    probe.add_argument("--json-logs", nargs="?", const=True, default=False)
    return bool(probe.parse_known_args(argv)[0].json_logs)


def _report_error(json_logs: bool, exc: Exception) -> None:
    if json_logs:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}, sort_keys=True) + "\n")
    else:
        sys.stderr.write(f"rwclust: error: {exc}\n")


def main(argv=None) -> int:
    parser = build_parser()
    json_logs = _asks_json_logs(argv)
    try:
        args = parser.parse_args(argv)
        _setup_logging(args)
        return args.func(args)
    except SystemExit as e:  # argparse --help/--version
        return int(e.code or 0)
    except ParameterError as e:
        _report_error(json_logs, e)
        return EXIT_CONFIG
    except _INPUT_ERRORS as e:
        _report_error(json_logs, e)
        return EXIT_INPUT
    except OSError as e:
        _report_error(json_logs, e)
        return EXIT_INPUT
    except RwclustError as e:
        _report_error(json_logs, e)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
