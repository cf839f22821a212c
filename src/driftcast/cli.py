"""Command-line front end: simulate datasets, run campaigns, render reports.

Subcommands:

* ``simulate`` writes the configured datasets (CSV plus JSON sidecar),
* ``run`` executes the full prequential campaign and emits traces,
  accuracy/significance/sensitivity reports, and a manifest,
* ``report`` re-renders the reports from stored traces without
  recomputing any forecasts.

Configs are JSON documents validated against a strict schema (unknown
keys are rejected). ``--preset desk`` is a small fixed-seed setup for
quick full-pipeline runs; ``--preset paper`` is the full-scale setup.
A ``--config`` file deep-merges over the chosen preset. The
``DRIFTCAST_SEED`` environment variable overrides every base seed.

Exit codes: 0 success, 1 validation error, 2 runtime error, 3 finished
but some method failed on more than 1% of series.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from functools import cache
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

import driftcast
from driftcast.core import (
    ConfigError,
    Dataset,
    DriftcastError,
    SeriesIndex,
    Spans,
    csv_field,
    csv_rows,
    format_floats,
    load_dataset,
    read_json,
    read_sidecar,
    save_dataset,
    sidecar_path,
    write_csv,
    write_json,
)
from driftcast.evaluate import (
    EvalConfig,
    EvalReport,
    MethodSpec,
    RunResult,
    build_report,
    default_method_specs,
    drift_sensitivity,
    load_traces,
    method_group,
    prequential_run,
    report_order,
    write_traces,
    write_weight_traces,
)
from driftcast.simulate import SIM_DRIFT_KINDS, SimConfig, make_dataset
from driftcast.stats import TestResult, format_p, run_rank_tests

SEED_ENV_VAR = "DRIFTCAST_SEED"

FAILURE_EXIT_THRESHOLD = 0.01

PRESETS = ("desk", "paper")


def _is_number(value) -> bool:
    # bool is an int subclass; a boolean never counts as a number. json
    # reads NaN, +-Infinity and ints of any size, so a number must lie in
    # the finite float64 range; abs() compares an int with it exactly,
    # where math.isfinite would overflow on a huge one
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


# config field type -> its JSON type and the check of a parsed value;
# Optional[float] rejects null, as a key left out already means None
_JSON_TYPES = {
    int: ("an integer", lambda value: isinstance(value, int) and not isinstance(value, bool)),
    float: ("a finite number", _is_number),
    Optional[float]: ("a finite number", _is_number),
    bool: ("a boolean", lambda value: isinstance(value, bool)),
    str: ("a string", lambda value: isinstance(value, str)),
    tuple: ("a list of finite numbers", lambda value: isinstance(value, list) and all(map(_is_number, value))),
    tuple[str, ...]: ("a list of strings", lambda value: isinstance(value, list) and all(isinstance(v, str) for v in value)),
}

_TOP_KEYS = ("simulate", "methods", "evaluate", "stats", "output")

# the method-entry keys that only GDW reads
_GDW_FLAGS = ("eta", "true_gradient", "clamp")

# a config class's field types, resolved once per class
_field_types = cache(get_type_hints)


def preset_config(name: str) -> dict:
    """The full config document for a named preset.

    Both presets run the training-instance weighting in its literal
    value-scaling form and the gradient combiner with the analytic
    gradient; see README for why the reproduction campaign uses these
    variants (both are flag-switchable).
    """
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    sim = {
        "n_series": 100,
        "series_length": 600,
        "train_len": 450,
        "ar_coeffs": [0.5, -0.3, 0.2],
        "ar_coeffs_2": [-0.3, 0.15, 0.05],
        "noise_sd": 1.0,
        "burn_in": 200,
        "base_seed": 20250404,
    }
    horizon = 150
    if name == "paper":
        sim.update(n_series=2000, series_length=2000, train_len=1650)
        horizon = 350
    methods = []
    for spec in default_method_specs():
        if spec.name == "GDW":
            methods.append({"name": spec.name, "eta": 0.01, "true_gradient": True, "clamp": False})
        else:
            methods.append({"name": spec.name})
    return {
        "simulate": {kind: dict(sim) for kind in SIM_DRIFT_KINDS},
        "methods": methods,
        "evaluate": {
            "horizon": horizon,
            "block_size": 50,
            "global_lags": 10,
            "ridge_lambda": 1e-3,
            "alpha0": 0.9,
            "beta": 0.9,
            "literal_value_scaling": True,
        },
        "stats": {"alpha": 0.05},
        "output": {"directory": "driftcast_out", "formats": ["csv", "md"], "weight_traces": False},
    }


def deep_merge(base: dict, override: dict) -> dict:
    """Recursive dict merge; override wins, lists replace wholesale."""
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _build(cls, section, where: str, **given):
    """A ``cls`` from the fields ``given`` and the config object
    ``section``, each key a field of its JSON type. Every fault, those
    of ``cls``'s own checks too, names the key path ``where``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    types = _field_types(cls)
    for key, value in section.items():
        if key not in types or key in given:
            raise ConfigError(f"unknown key {key!r} in {where}")
        json_type, check = _JSON_TYPES[types[key]]
        if not check(value):
            raise ConfigError(f"{where}.{key} must be {json_type}")
    given.update(section)
    for f in fields(cls):
        if f.name not in given and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where} has no {f.name!r}")
    try:
        return cls(**given)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class StatsConfig:
    """The ``stats`` section: the rank tests' significance level."""

    alpha: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must be in (0, 1)")


@dataclass(frozen=True)
class OutputConfig:
    """The ``output`` section: directory, report formats, weight traces."""

    directory: str = "driftcast_out"
    formats: tuple[str, ...] = ("csv", "md")
    weight_traces: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "formats", tuple(self.formats))
        for fmt in self.formats:
            if fmt not in ("csv", "md"):
                raise ConfigError(f"unknown format {fmt!r} in formats")


@dataclass(frozen=True)
class RunConfig:
    """Validated campaign configuration."""

    sim_configs: dict
    eval_config: EvalConfig
    stats: StatsConfig
    output: OutputConfig
    document: dict


def validate_config(document: dict) -> RunConfig:
    """Schema-check a config document and build its typed sections."""
    if not isinstance(document, dict):
        raise ConfigError("config must be a JSON object")
    for key in document:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown top-level config key {key!r}")

    sim_section = document.get("simulate", {})
    if not isinstance(sim_section, dict):
        raise ConfigError("simulate section must map drift kinds to configs")
    if not sim_section:
        raise ConfigError("config has no simulate section")
    sim_configs = {kind: _build(SimConfig, section, f"simulate.{kind}", drift_kind=kind) for kind, section in sim_section.items()}

    methods_section = document.get("methods")
    if not isinstance(methods_section, list) or not methods_section:
        raise ConfigError("methods must be a non-empty list")
    methods = {}
    for i, entry in enumerate(methods_section):
        spec = _build(MethodSpec, entry, f"methods[{i}]")
        flag = next((key for key in entry if key in _GDW_FLAGS), None)
        if flag and spec.name != "GDW":
            raise ConfigError(f"methods[{i}]: {spec.name} takes no {flag!r}")
        if spec.name in methods:
            raise ConfigError(f"methods[{i}] repeats method {spec.name!r}")
        methods[spec.name] = spec

    eval_config = _build(EvalConfig, document.get("evaluate", {}), "evaluate", methods=tuple(methods.values()))
    for kind, sim in sim_configs.items():
        if sim.train_len + eval_config.horizon > sim.series_length:
            raise ConfigError(
                f"simulate.{kind}: train_len {sim.train_len} plus evaluate.horizon {eval_config.horizon} "
                f"exceeds series_length {sim.series_length}"
            )
    return RunConfig(
        sim_configs=sim_configs,
        eval_config=eval_config,
        stats=_build(StatsConfig, document.get("stats", {}), "stats"),
        output=_build(OutputConfig, document.get("output", {}), "output"),
        document=document,
    )


def apply_seed_override(document: dict, env: dict | None = None) -> dict:
    """Apply the DRIFTCAST_SEED environment override to all sim seeds."""
    env = os.environ if env is None else env
    raw = env.get(SEED_ENV_VAR)
    if raw is None:
        return document
    try:
        seed = int(raw)
    except ValueError:
        seed = None
    if seed is None or not 0 <= seed < 2**64:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer in [0, 2**64), got {raw!r}")
    document = copy.deepcopy(document)
    simulate = document.get("simulate")
    if isinstance(simulate, dict):
        # a section that is not an object is left to validate_config
        for section in simulate.values():
            if isinstance(section, dict):
                section["base_seed"] = seed
    return document


def config_hash(document: dict) -> str:
    """Digest of the canonical JSON form; formatting-insensitive."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_config_document(preset: str | None, config_path: str | None) -> dict:
    if preset is None and config_path is None:
        raise ConfigError("provide --preset, --config, or both")
    document = preset_config(preset) if preset else {}
    if config_path:
        document = deep_merge(document, read_json(config_path, "config"))
    return apply_seed_override(document)


# ---------------------------------------------------------------------------
# pipeline stages


def dataset_paths(out_dir: Path, kind: str) -> tuple[Path, Path]:
    csv_path = out_dir / "datasets" / f"{kind}.csv"
    return csv_path, sidecar_path(csv_path)


def _simulate(sim: SimConfig, out_dir: Path) -> Dataset:
    """Generate one kind's dataset and write it under ``out_dir``."""
    dataset = make_dataset(sim)
    (out_dir / "datasets").mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, dataset_paths(out_dir, sim.drift_kind)[0])
    return dataset


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> dict[str, tuple[int, int]]:
    """Generate and write every configured dataset, one kind at a time,
    and return each kind's (n_series, series_length). Idempotent:
    identical configs produce byte-identical files."""
    shapes = {}
    for kind, sim in cfg.sim_configs.items():
        dataset = _simulate(sim, out_dir)
        shapes[kind] = (len(dataset), dataset.series_length)
        del dataset  # free this kind's series before the next kind's batch
    return shapes


def _load_or_simulate(sim: SimConfig, out_dir: Path, spans: Spans) -> Dataset:
    """One kind's dataset: the one on disk when its sidecar says it was
    generated from ``sim``, otherwise a new one, written over it. The
    CSV is read only when the sidecar's config matches. ``spans`` times
    the load or the simulation."""
    csv_path, meta_path = dataset_paths(out_dir, sim.drift_kind)
    if csv_path.exists() and meta_path.exists():
        if read_sidecar(csv_path)["generator_config"] == json.loads(json.dumps(asdict(sim))):
            with spans("load_dataset"):
                return load_dataset(csv_path)
    with spans("simulate"):
        return _simulate(sim, out_dir)


@dataclass
class KindResults:
    """One kind's scores. ``dataset`` is the kind's :class:`SeriesIndex`
    (its ids, drifts and ``train_len``), not its values: the reports
    read no value, and ``report`` builds it from the sidecar alone."""

    dataset: SeriesIndex
    report: EvalReport
    test: TestResult | None
    stats_note: str | None


def score_kind(dataset: SeriesIndex, run: RunResult, alpha: float) -> KindResults:
    """Score one kind's run, then rank-test the methods that scored a
    series, over the series that all of them scored."""
    report = build_report(run)
    scored = {name: r for name, r in report.rmse_per_series.items() if np.isfinite(r).any()}
    test = note = None
    if len(scored) < 2:
        note = f"statistical testing skipped: need at least 2 methods, have {len(scored)}"
    else:
        errors = np.column_stack(list(scored.values()))
        errors = errors[np.isfinite(errors).all(axis=1)]
        if len(errors) < 2:
            note = "statistical testing skipped: fewer than 2 series scored by all methods"
        else:
            test = run_rank_tests(errors, list(scored), alpha)
    return KindResults(dataset=dataset, report=report, test=test, stats_note=note)


def cmd_run(cfg: RunConfig, out_dir: Path) -> dict:
    """Full campaign, one drift kind at a time: load or simulate the
    kind's dataset, evaluate every method, write its traces and score
    it; then write the reports and the manifest. Returns per-kind
    results keyed by drift kind.

    Each phase is timed as a span (:class:`Spans`), summed over the
    kinds, and the manifest's ``phases`` holds them all. Four outer
    phases hold the others: ``datasets`` holds ``load_dataset`` or
    ``simulate``, ``evaluate`` the engine's phases and ``scoring``,
    ``traces`` ``write_traces`` and ``reports`` ``rendering``; the last
    two also hold the ``hashing`` of the files they wrote."""
    (out_dir / "traces").mkdir(parents=True, exist_ok=True)
    spans = Spans()
    results: dict[str, KindResults] = {}
    files: list[dict] = []
    for kind, sim in cfg.sim_configs.items():
        with spans("datasets"):
            dataset = _load_or_simulate(sim, out_dir, spans)
        with spans("evaluate"):
            run = prequential_run(dataset, cfg.eval_config, capture_weights=cfg.output.weight_traces, spans=spans)
            with spans("scoring"):
                results[kind] = score_kind(dataset.index, run, cfg.stats.alpha)
        with spans("traces"):
            with spans("write_traces"):
                written = [write_traces(out_dir / "traces" / f"{kind}.csv", run)]
                if cfg.output.weight_traces and run.weight_traces:
                    written.extend(write_weight_traces(out_dir / "traces", kind, run))
            with spans("hashing"):
                files.extend(_inventory(out_dir, written))
            del run, dataset  # free this kind's values and forecasts before the next kind's

    with spans("reports"):
        with spans("rendering"):
            report_files = render_reports(cfg, out_dir, results)
        for kind in results:
            report_files.extend(dataset_paths(out_dir, kind))
        with spans("hashing"):
            files.extend(_inventory(out_dir, report_files))

    manifest = {
        "config_hash": config_hash(cfg.document),
        "versions": {
            "driftcast": driftcast.__version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "phases": spans.to_dict(),
        "failure_fractions": {kind: res.report.failure_fractions for kind, res in results.items()},
        "files": files,
    }
    write_json(out_dir / "manifest.json", manifest)
    return results


# ---------------------------------------------------------------------------
# report rendering

# (CSV column, markdown title) of each report table, in column order;
# the markdown table leaves out the columns without a title
ACCURACY_COLUMNS = (
    ("method", "Method"),
    ("group", "Group"),
    ("mean_rmse", "Mean RMSE"),
    ("median_rmse", "Median RMSE"),
    ("mean_mae", "Mean MAE"),
    ("median_mae", "Median MAE"),
    ("failures", None),
    ("group_best", "Group best"),
    ("overall_best", "Overall best"),
)
STATS_COLUMNS = (
    ("method", "Method"),
    ("mean_rank", "Mean rank"),
    ("z", None),
    ("p_raw", None),
    ("p_hochberg", None),
    ("p_hochberg_display", "p (adjusted)"),
    ("significantly_worse", "Significantly worse"),
)


def accuracy_rows(report: EvalReport) -> list[list]:
    """Accuracy rows in ``ACCURACY_COLUMNS`` order, methods in report
    order, with per-group and overall best flags (on mean RMSE)."""
    ordered = report_order(report.methods)
    mean_rmse = {name: report.summary[name]["mean_rmse"] for name in ordered}
    best: dict = {}  # report group -> its best method; None -> the overall best
    for name in ordered:
        if np.isnan(mean_rmse[name]):
            continue
        for key in (method_group(name), None):
            if key not in best or mean_rmse[name] < mean_rmse[best[key]]:
                best[key] = name
    rows = []
    for name in ordered:
        s, group = report.summary[name], method_group(name)
        scores = [s["mean_rmse"], s["median_rmse"], s["mean_mae"], s["median_mae"]]
        rows.append([name, group, *scores, report.failure_counts[name], best.get(group) == name, best.get(None) == name])
    return rows


def stats_rows(test: TestResult) -> list[list]:
    """Significance rows in ``STATS_COLUMNS`` order: the control first,
    then methods by adjusted p ascending."""
    rows = [[test.control, test.mean_ranks[test.control], None, None, None, None, False]]
    # a stable sort keeps report order among equal p-values
    for name in sorted(report_order(test.adjusted_p), key=test.adjusted_p.get):
        p = test.adjusted_p[name]
        comparison = [test.z_values[name], test.raw_p[name], p, format_p(p)]
        rows.append([name, test.mean_ranks[name], *comparison, name in test.rejected])
    return rows


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_floats([value])[0]
    return csv_field(str(value))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    cells = [[_csv_cell(v) for v in row] for row in rows]
    return write_csv(path, header, [csv_rows((), *zip(*cells))])


def _md_cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else ""
    if value is None or (isinstance(value, float) and np.isnan(value)):
        return "--"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _md_row(cells) -> str:
    return "| " + " | ".join(cells) + " |"


def _md_table(columns: tuple, rows: list[list]) -> list[str]:
    """Markdown lines of a report table over its titled columns."""
    shown = [j for j, (_, title) in enumerate(columns) if title]
    return [
        _md_row(columns[j][1] for j in shown),
        "|" + "---|" * len(shown),
        *(_md_row(_md_cell(row[j]) for j in shown) for row in rows),
    ]


# bytes per read of _sha256: one buffer of this size serves every read
_HASH_BLOCK = 1 << 16


def _sha256(path: Path) -> str:
    """Hex sha256 of a file, read into one reused buffer of
    ``_HASH_BLOCK`` bytes: a trace file is never held in memory whole,
    and no read allocates."""
    digest = hashlib.sha256()
    block = bytearray(_HASH_BLOCK)
    view = memoryview(block)
    with open(path, "rb") as fh:
        while size := fh.readinto(block):
            digest.update(view[:size])
    return digest.hexdigest()


def _inventory(out_dir: Path, paths: list[Path]) -> list[dict]:
    return [
        {
            "path": str(path.relative_to(out_dir)),
            "sha256": _sha256(path),
            "bytes": path.stat().st_size,
        }
        for path in paths
    ]


def render_reports(cfg: RunConfig, out_dir: Path, results: dict) -> list[Path]:
    """Write accuracy, significance, and sensitivity files in the
    configured formats."""
    reports_dir = out_dir / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    accuracy_md: list[str] = ["# Accuracy\n"]
    stats_md: list[str] = ["# Statistical testing\n"]

    for kind, res in results.items():
        heading = f"\n## {kind.capitalize()}\n"
        rows = accuracy_rows(res.report)
        accuracy_md += [heading, *_md_table(ACCURACY_COLUMNS, rows)]
        tables = {f"accuracy_{kind}.csv": ([column for column, _ in ACCURACY_COLUMNS], rows)}
        if res.test is None:
            stats_md += [heading, res.stats_note]
            tables[f"stats_{kind}.csv"] = (["note"], [[res.stats_note]])
        else:
            rows = stats_rows(res.test)
            friedman = f"Friedman statistic {res.test.friedman_statistic:.4f}, p {format_p(res.test.friedman_p)}"
            stats_md += [heading, f"{friedman}; control: {res.test.control}\n", *_md_table(STATS_COLUMNS, rows)]
            tables[f"stats_{kind}.csv"] = ([column for column, _ in STATS_COLUMNS], rows)
        if kind in ("sudden", "incremental"):
            for metric in ("rmse", "mae"):
                table = drift_sensitivity(res.dataset, res.report, metric=metric)
                methods = report_order(res.report.methods)
                tables[f"sensitivity_{kind}_{metric}.csv"] = (
                    ["bucket_low", "bucket_high", "n_series", *methods],
                    [
                        [table.edges[b], table.edges[b + 1], int(count), *(table.means[m][b] for m in methods)]
                        for b, count in enumerate(table.counts)
                    ],
                )
        if "csv" in cfg.output.formats:
            written += [_write_csv(reports_dir / name, header, rows) for name, (header, rows) in tables.items()]

    if "md" in cfg.output.formats:
        for name, lines in (("accuracy.md", accuracy_md), ("stats.md", stats_md)):
            path = reports_dir / name
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)
    return written


def cmd_report(cfg: RunConfig, out_dir: Path) -> list[Path]:
    """Re-render reports from stored traces and dataset sidecars. Each
    configured kind is scored from its trace and its sidecar's
    :class:`SeriesIndex`; the dataset CSV is never opened. A kind
    without its sidecar or trace fails before any report is written."""
    results = {}
    for kind in cfg.sim_configs:
        index = SeriesIndex.from_sidecar(read_sidecar(dataset_paths(out_dir, kind)[0]))
        results[kind] = score_kind(index, load_traces(out_dir / "traces" / f"{kind}.csv", index), cfg.stats.alpha)
    return render_reports(cfg, out_dir, results)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="driftcast", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (merged over --preset)")
        p.add_argument("--preset", choices=PRESETS, help="built-in configuration")
        p.add_argument("--out", help="output directory (defaults to the config's)")

    p_sim = sub.add_parser("simulate", help="generate the configured datasets")
    add_common(p_sim)

    p_run = sub.add_parser("run", help="simulate if needed, evaluate, report")
    add_common(p_run)
    p_run.add_argument("--threads", type=int, default=1, help="accepted for compatibility; no effect (campaigns run in one process)")

    p_rep = sub.add_parser("report", help="re-render reports from stored traces")
    add_common(p_rep)
    p_rep.add_argument("--format", choices=["csv", "md"], help="restrict output format")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        document = load_config_document(args.preset, args.config)
        cfg = validate_config(document)
        out_dir = Path(args.out) if args.out else Path(cfg.output.directory)
        if args.command == "simulate":
            for kind, (n_series, length) in cmd_simulate(cfg, out_dir).items():
                print(f"wrote {kind}: {n_series} series x {length}")
            return 0
        if args.command == "run":
            results = cmd_run(cfg, out_dir)
            for kind, res in results.items():
                # the overall best on mean RMSE, as the accuracy report flags it
                best = [row for row in accuracy_rows(res.report) if row[-1]]
                if best:
                    method, _, mean_rmse = best[0][:3]
                    print(f"{kind}: best mean RMSE {mean_rmse:.4f} ({method})")
                else:
                    print(f"{kind}: no method scored")
            worst = max(f for res in results.values() for f in res.report.failure_fractions.values())
            if worst > FAILURE_EXIT_THRESHOLD:
                print(f"warning: a method failed on {worst:.1%} of series", file=sys.stderr)
                return 3
            return 0
        if args.command == "report":
            if args.format:
                cfg = replace(cfg, output=replace(cfg.output, formats=(args.format,)))
            written = cmd_report(cfg, out_dir)
            print(f"re-rendered {len(written)} report files under {out_dir}")
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DriftcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
