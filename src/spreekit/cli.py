"""Command-line entry point.

One binary with subcommands::

    spreekit [--seed N] [--out DIR] <subcommand> [flags]

Subcommands: update, bootstrap, validate, mpi, shares, aggregate, diagnose.
Any flag can also be supplied through an environment variable named
``SPREEKIT_<FLAG>`` (dashes become underscores, upper-cased); explicit
flags win over the environment.  An environment value gets the same type
and choice checks as its flag, so a bad one is a usage error (exit 2), even
where the flag is also given, and for every subcommand, not only those that
have the flag.
Outputs are written atomically under ``--out`` together with a
``manifest.json`` recording input digests, the seed, the library version,
and timestamps; set ``SOURCE_DATE_EPOCH`` to pin the timestamps for
byte-reproducible runs.

Each subcommand is one row of :data:`SUBCOMMANDS`.  Its run function reads
the inputs, records every file it reads for the manifest, and yields its
outputs as ``(file name, text)`` pairs; :func:`main` writes each one as it
is yielded.

Exit codes: 0 success, 1 data error (a JSON error object is printed to
stderr), 2 usage error.  A run that succeeds with a caveat (``update``
stopping unconverged, ``aggregate`` leaving over 5% of the mass
unassigned) exits 0 and prints a JSON ``{"warning": ...}`` to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from spreekit import __version__, io as sio
from spreekit.bootstrap import BootstrapConfig, BootstrapError, bootstrap_mse
from spreekit.composition import Composition, MarginLevel, MarginVector
from spreekit.geo import aggregate_pixels
from spreekit.ipf import IpfConfig
from spreekit.loglinear import LogLinearDecomposition, association_distance, decompose
from spreekit.margins import (
    census_baseline,
    distribute,
    dynamic_shares,
    fixed_shares,
    hybrid_shares,
    select_by_change,
)
from spreekit.mpi import MpiProfile, MpiResult, compute_mpi, tabulate_poverty
from spreekit.simulation import (
    QUARTILE_NAMES,
    SUMMARY_COLUMNS,
    run_simulation,
    summary_row,
)
from spreekit.update import UpdateError, UpdateRequest, spree_update

ENV_PREFIX = "SPREEKIT_"

Inputs = dict[str, Path]
Outputs = Iterator[tuple[str, str]]


class CliDataError(RuntimeError):
    pass


def _add(parser: argparse.ArgumentParser, *flags: str, **kwargs: Any) -> None:
    """add_argument whose default comes from ``SPREEKIT_<DEST>`` when set.

    The environment value passes the flag's own type and choice checks, so
    a bad one is a usage error exactly like a bad flag.
    """
    action = parser.add_argument(*flags, **kwargs)
    env_key = ENV_PREFIX + action.dest.upper()
    raw = os.environ.get(env_key)
    if raw is None:
        return
    try:
        value = action.type(raw) if action.type else raw
        valid = action.choices is None or value in action.choices
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        valid = False
    if not valid:
        parser.error(f"{env_key}: invalid value {raw!r} for {action.option_strings[0]}")
    action.default = value
    action.required = False


def _parse_zeros(raw: str) -> tuple[str, float]:
    if raw == "structural":
        return "structural", 0.5
    if raw.startswith("epsilon:"):
        try:
            return "epsilon", float(raw.split(":", 1)[1])
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        f"--zeros must be 'structural' or 'epsilon:<value>', got {raw!r}"
    )


def _ipf_config(ns: argparse.Namespace) -> IpfConfig:
    zero_mode, epsilon = ns.zeros
    return IpfConfig(
        tolerance=ns.tolerance,
        max_iterations=ns.max_iter,
        zero_mode=zero_mode,
        epsilon=epsilon,
    )


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fmt(value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _cells_csv(c: Composition) -> str:
    """The long ``area_id,category_id,count`` form of a composition."""
    rows = (
        (area, category, count)
        for area, counts in zip(c.area_ids, c.counts.tolist())
        for category, count in zip(c.category_ids, counts)
    )
    return _csv_text(("area_id", "category_id", "count"), rows)


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if np.isfinite(value) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _json_text(data: Any) -> str:
    return json.dumps(_jsonable(data), indent=2, sort_keys=True) + "\n"


def _now_iso() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        moment = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        moment = datetime.now(tz=timezone.utc)
    return moment.isoformat()


def _note(inputs: Inputs, name: str, raw: str) -> Path:
    """Record the input file ``raw`` under ``name`` for the manifest."""
    inputs[name] = path = Path(raw)
    return path


def _year_entry(load: Callable[[Path], dict], path: Path, year: int) -> MarginVector:
    """The ``year`` entry of a by-year file (projections or aux populations)."""
    by_year = load(path)
    if year not in by_year:
        raise CliDataError(f"year {year} not present in {path}")
    return by_year[year]


def _build_shares(
    mode: str,
    census,
    hierarchy,
    aux: MarginVector | None,
    projected: MarginVector | None,
    cutoff: float,
):
    if mode == "fixed":
        return fixed_shares(census, hierarchy)
    if aux is None:
        raise CliDataError(f"--aux is required for --shares-mode {mode}")
    if mode == "dynamic":
        return dynamic_shares(aux, hierarchy)
    if projected is None:
        raise CliDataError("hybrid mode needs projections for the change ranking")
    selection = select_by_change(projected, census_baseline(census, hierarchy), cutoff)
    return hybrid_shares(
        fixed_shares(census, hierarchy), dynamic_shares(aux, hierarchy), selection
    )


def _update_request(ns: argparse.Namespace, inputs: Inputs) -> UpdateRequest:
    census = sio.load_composition(_note(inputs, "seed", ns.seed_composition))
    hierarchy = sio.load_hierarchy(_note(inputs, "hierarchy", ns.hierarchy))
    projections = _note(inputs, "projections", ns.projections)
    large_totals = _year_entry(sio.load_projections, projections, ns.year)
    col_margin = sio.load_margin(
        _note(inputs, "col_margin", ns.col_margin), MarginLevel.CATEGORY, ns.year
    )
    aux = None
    if ns.aux:
        aux = _year_entry(sio.load_aux_populations, _note(inputs, "aux", ns.aux), ns.year)
    return UpdateRequest(
        seed=census,
        col_margin=col_margin,
        large_totals=large_totals,
        shares=_build_shares(
            ns.shares_mode, census, hierarchy, aux, large_totals, ns.cutoff
        ),
        ipf_config=_ipf_config(ns),
        reconcile_policy=ns.reconcile,
    )


def _warn(message: str) -> None:
    """A caveat on a successful run: one JSON object on stderr."""
    print(json.dumps({"warning": message}), file=sys.stderr)


def cmd_update(ns: argparse.Namespace, inputs: Inputs) -> Outputs:
    result = spree_update(_update_request(ns, inputs))
    yield "fitted.csv", _cells_csv(result.fitted)
    provenance = {
        **result.provenance,
        "unit": ns.unit,
        "iterations": result.ipf.iterations_used,
        "final_deviation": result.ipf.final_deviation,
    }
    yield "provenance.json", _json_text(provenance)
    if not result.ipf.converged:
        _warn(
            f"IPF did not converge in {result.ipf.iterations_used} iterations "
            f"(final deviation {result.ipf.final_deviation!r})"
        )


def cmd_shares(ns: argparse.Namespace, inputs: Inputs) -> Outputs:
    census = sio.load_composition(_note(inputs, "census", ns.census))
    hierarchy = sio.load_hierarchy(_note(inputs, "hierarchy", ns.hierarchy))
    if ns.year is None and (ns.aux or ns.projections):
        raise CliDataError("--year is required with --aux or --projections")
    aux = projected = None
    if ns.aux:
        aux = _year_entry(sio.load_aux_populations, _note(inputs, "aux", ns.aux), ns.year)
    if ns.projections:
        projections = _note(inputs, "projections", ns.projections)
        projected = _year_entry(sio.load_projections, projections, ns.year)
    shares = _build_shares(ns.mode, census, hierarchy, aux, projected, ns.cutoff)
    yield "shares.csv", _csv_text(("id", "value"), zip(shares.small_ids, shares.shares))
    if projected is not None:
        margin = distribute(projected, shares)
        yield "margin.csv", _csv_text(("id", "value"), zip(margin.ids, margin.values))


def cmd_bootstrap(ns: argparse.Namespace, inputs: Inputs) -> Outputs:
    req = _update_request(ns, inputs)
    design = sio.load_design(_note(inputs, "design", ns.design))
    aux_pool = None
    if ns.aux_pool:
        pool_dir = Path(ns.aux_pool)
        paths = sorted(pool_dir.glob("*.csv"))
        if not paths:
            raise CliDataError(f"no .csv files in --aux-pool {pool_dir}")
        for k, p in enumerate(paths):
            inputs[f"aux_pool[{k}]"] = p
        aux_pool = sio.load_margin_pool(paths, MarginLevel.SMALL_AREA)
    cfg = BootstrapConfig(
        replicates=ns.replicates,
        seed=ns.seed if ns.seed is not None else 0,
        col_resample=ns.col_resample,
        aux_resample=ns.aux_resample,
        aux_perturb_cv=ns.aux_perturb_cv,
    )
    cell = bootstrap_mse(req, design, aux_pool, cfg)
    quantiles = (*SUMMARY_COLUMNS[:3], *SUMMARY_COLUMNS[4:])
    columns = (cell.point, cell.mse, cell.cv, cell.rep_mean)
    columns += tuple(cell.rep_quantiles[name] for name in quantiles)
    rows = zip(
        [area for area in cell.area_ids for _ in cell.category_ids],
        cell.category_ids * len(cell.area_ids),
        *(column.ravel().tolist() for column in columns),
    )
    header = ("area_id", "category_id", "point", "mse", "cv", "rep_mean", *quantiles)
    yield "cell_uncertainty.csv", _csv_text(header, rows)

    report = {
        "completed_replicates": cell.completed_replicates,
        "dropped_replicates": cell.dropped_replicates,
        "drop_reasons": list(cell.drop_reasons),
        "area_ids": list(cell.area_ids),
        "category_ids": list(cell.category_ids),
        "point": cell.point,
        "mse": cell.mse,
        "cv": cell.cv,
    }
    if cell.headcount_point is not None:
        hc_rows = zip(
            cell.area_ids, cell.headcount_point, cell.headcount_mse, cell.headcount_cv
        )
        yield "headcount_cv.csv", _csv_text(("area_id", "headcount", "mse", "cv"), hc_rows)
        finite = cell.headcount_cv[np.isfinite(cell.headcount_cv)]
        summary = [("headcount_cv", *summary_row(finite))]
        yield "cv_summary.csv", _csv_text(("measure", *SUMMARY_COLUMNS), summary)
        report["headcount_point"] = cell.headcount_point
        report["headcount_mse"] = cell.headcount_mse
        report["headcount_cv"] = cell.headcount_cv
    yield "uncertainty.json", _json_text(report)


def cmd_validate(ns: argparse.Namespace, inputs: Inputs) -> Outputs:
    plan = sio.load_plan(_note(inputs, "plan", ns.plan))
    overrides = {
        k: v for k, v in (("replicates", ns.replicates), ("seed", ns.seed)) if v is not None
    }
    if overrides:
        plan = replace(plan, **overrides)
    report = run_simulation(plan)

    share_rows = []
    for q, name in enumerate(QUARTILE_NAMES):
        for strategy in plan.strategies:
            bias = report.metrics[strategy].share_bias
            mask = report.quartile_labels == q
            vals = bias[mask]
            vals = vals[~np.isnan(vals)]
            mean_bias = float(vals.mean()) if vals.size else float("nan")
            mean_abs = float(np.abs(vals).mean()) if vals.size else float("nan")
            share_rows.append((name, strategy, mean_bias, mean_abs))
    yield "share_accuracy.csv", _csv_text(
        ("quartile", "strategy", "mean_share_bias", "mean_abs_share_bias"), share_rows
    )

    perf_rows = []
    for metric in ("bias", "rmse"):
        for q, name in enumerate(QUARTILE_NAMES):
            for strategy in plan.strategies:
                table = report.quartile_summary[strategy][metric]
                perf_rows.append((metric, name, strategy, *table[q]))
    yield "performance.csv", _csv_text(
        ("metric", "quartile", "strategy", *SUMMARY_COLUMNS), perf_rows
    )

    corr_rows = [
        (name, strategy, report.correlations[strategy][q])
        for q, name in enumerate(QUARTILE_NAMES)
        for strategy in plan.strategies
    ]
    yield "correlations.csv", _csv_text(("quartile", "strategy", "pearson"), corr_rows)

    payload = {
        "area_ids": list(report.area_ids),
        "category_ids": list(report.category_ids),
        "change_scores": report.change_scores,
        "quartile_labels": report.quartile_labels,
        "quartile_names": list(QUARTILE_NAMES),
        "win_counts": report.win_counts,
        "share_accuracy": report.share_accuracy,
        "correlations": report.correlations,
        "strategies": {
            s: {
                "completed": m.completed,
                "failed": len(m.failures),
                "cell_bias": m.cell_bias,
                "cell_rmse": m.cell_rmse,
                "share_bias": m.share_bias,
                "share_rmse": m.share_rmse,
                "headcount_bias": m.headcount_bias,
                "headcount_rmse": m.headcount_rmse,
            }
            for s, m in report.metrics.items()
        },
    }
    yield "report.json", _json_text(payload)


def _mpi_summary(result: MpiResult) -> dict[str, float]:
    """The four headline measures of an MPI result."""
    return {
        k: float(getattr(result, k))
        for k in ("headcount", "intensity", "mpi", "population_base")
    }


def cmd_mpi(ns: argparse.Namespace, inputs: Inputs) -> Outputs:
    if ns.profile:
        profile = sio.load_profile(_note(inputs, "profile", ns.profile))
    else:
        profile = MpiProfile.nine_indicator()
    records = sio.load_households(_note(inputs, "households", ns.households), profile)
    result = compute_mpi(records, profile)
    payload = {
        **_mpi_summary(result),
        "indicator_headcounts": result.indicator_headcounts,
        "contributions": result.contributions,
    }
    if ns.by_subgroup:
        payload["subgroups"] = {
            group: _mpi_summary(
                compute_mpi([r for r in records if r.subgroup_id == group], profile)
            )
            for group in sorted({r.subgroup_id for r in records})
        }
    yield "mpi.json", _json_text(payload)
    if ns.hierarchy:
        hierarchy = sio.load_hierarchy(_note(inputs, "hierarchy", ns.hierarchy))
        yield "poverty_composition.csv", _cells_csv(
            tabulate_poverty(records, profile, hierarchy)
        )


def cmd_aggregate(ns: argparse.Namespace, inputs: Inputs) -> Outputs:
    px = sio.load_pixels(_note(inputs, "pixels", ns.pixels))
    polys = sio.load_polygons(_note(inputs, "polygons", ns.polygons))
    agg = aggregate_pixels(px, polys)
    yield "margin.csv", _csv_text(("id", "value"), zip(agg.margin.ids, agg.margin.values))
    summary = {
        "unassigned_count": agg.unassigned_count,
        "unassigned_mass": agg.unassigned_mass,
        "total_mass": agg.total_mass,
        "warning_over_5_percent_unassigned": agg.warning,
    }
    yield "aggregation.json", _json_text(summary)
    if agg.warning:
        _warn("more than 5% of pixel mass unassigned")


def _effects(d: LogLinearDecomposition) -> dict[str, Any]:
    return {
        k: getattr(d, k)
        for k in ("overall", "area_effects", "category_effects", "interaction")
    }


def cmd_diagnose(ns: argparse.Namespace, inputs: Inputs) -> Outputs:
    first = sio.load_composition(_note(inputs, "first", ns.first))
    second = sio.load_composition(_note(inputs, "second", ns.second))
    d_first = decompose(first)
    d_second = decompose(second)
    text = _json_text(
        {
            "association_distance": association_distance(first, second),
            "area_ids": list(first.area_ids),
            "category_ids": list(first.category_ids),
            "first": _effects(d_first),
            "second": _effects(d_second),
        }
    )
    print(text, end="")
    yield "diagnose.json", text


def _rake_flags(p: argparse.ArgumentParser, census_flag: str) -> None:
    """The flags of one raking update, shared by update and bootstrap."""
    _add(p, census_flag, dest="seed_composition", metavar="CSV", required=True)
    _add(p, "--col-margin", dest="col_margin", required=True)
    _add(p, "--projections", required=True)
    _add(p, "--hierarchy", required=True)
    _add(
        p,
        "--shares-mode",
        dest="shares_mode",
        choices=("fixed", "dynamic", "hybrid"),
        required=True,
    )
    _add(p, "--aux", default=None)
    _add(p, "--cutoff", type=float, default=0.25)
    _add(p, "--year", type=int, required=True)
    _add(p, "--tolerance", type=float, default=1e-8)
    _add(p, "--max-iter", dest="max_iter", type=int, default=1000)
    _add(p, "--zeros", type=_parse_zeros, default=("structural", 0.5))
    _add(
        p,
        "--reconcile",
        choices=("scale-col-to-row", "scale-row-to-col", "error"),
        default="scale-col-to-row",
    )


def _update_flags(p: argparse.ArgumentParser) -> None:
    _rake_flags(p, census_flag="--seed")
    _add(p, "--unit", choices=("persons", "households"), required=True)


def _bootstrap_flags(p: argparse.ArgumentParser) -> None:
    _rake_flags(p, census_flag="--census")
    _add(p, "--replicates", type=int, default=100)
    _add(p, "--design", required=True)
    _add(p, "--aux-pool", dest="aux_pool", default=None)
    _add(
        p,
        "--col-resample",
        dest="col_resample",
        choices=("psu-cluster", "iid-category", "none"),
        default="psu-cluster",
    )
    _add(
        p,
        "--aux-resample",
        dest="aux_resample",
        choices=("resample-pool", "none"),
        default="resample-pool",
    )
    _add(p, "--aux-perturb-cv", dest="aux_perturb_cv", type=float, default=0.05)


def _validate_flags(p: argparse.ArgumentParser) -> None:
    _add(p, "--plan", required=True)
    _add(p, "--replicates", type=int, default=None)


def _mpi_flags(p: argparse.ArgumentParser) -> None:
    _add(p, "--households", required=True)
    _add(p, "--profile", default=None)
    _add(p, "--hierarchy", default=None, help="also tabulate poor counts per area")
    p.add_argument("--by-subgroup", dest="by_subgroup", action="store_true")


def _shares_flags(p: argparse.ArgumentParser) -> None:
    _add(p, "--mode", choices=("fixed", "dynamic", "hybrid"), required=True)
    _add(p, "--census", required=True)
    _add(p, "--hierarchy", required=True)
    _add(p, "--aux", default=None)
    _add(p, "--projections", default=None)
    _add(p, "--year", type=int, default=None)
    _add(p, "--cutoff", type=float, default=0.25)


def _aggregate_flags(p: argparse.ArgumentParser) -> None:
    _add(p, "--pixels", required=True)
    _add(p, "--polygons", required=True)


def _diagnose_flags(p: argparse.ArgumentParser) -> None:
    _add(p, "--first", required=True)
    _add(p, "--second", required=True)


@dataclass(frozen=True)
class Subcommand:
    """One subcommand: its parser flags, its run function and its output rules.

    ``needs_out`` makes ``--out`` required (and accepted after the
    subcommand name); without it the outputs are only written when ``--out``
    is given.  ``late_seed`` also accepts ``--seed`` after the name.  An
    ``--out`` ending in ``.csv`` puts the output named ``csv_out`` exactly
    there, with the other files beside it.
    """

    name: str
    help: str
    add_flags: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace, Inputs], Outputs]
    needs_out: bool = True
    late_seed: bool = False
    csv_out: str | None = None


SUBCOMMANDS = (
    Subcommand("update", "rake a census composition to new margins",
               _update_flags, cmd_update),
    Subcommand("bootstrap", "bootstrap MSE/CV for an update",
               _bootstrap_flags, cmd_bootstrap, late_seed=True),
    Subcommand("validate", "design-based strategy comparison",
               _validate_flags, cmd_validate, late_seed=True),
    Subcommand("mpi", "Alkire-Foster poverty measures from households",
               _mpi_flags, cmd_mpi),
    Subcommand("shares", "within-region share vectors", _shares_flags, cmd_shares),
    Subcommand("aggregate", "sum pixel values into areas",
               _aggregate_flags, cmd_aggregate, csv_out="margin.csv"),
    Subcommand("diagnose", "log-linear decomposition of two compositions",
               _diagnose_flags, cmd_diagnose, needs_out=False),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spreekit",
        description="Census composition updating, uncertainty, and validation.",
    )
    _add(parser, "--seed", type=int, default=None, help="master RNG seed")
    _add(parser, "--out", default=None, help="output directory")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for spec in SUBCOMMANDS:
        p = sub.add_parser(spec.name, help=spec.help)
        spec.add_flags(p)
        # Global options repeated after the name; SUPPRESS keeps a value
        # given before the name when the option is not repeated.
        if spec.late_seed:
            p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        if spec.needs_out:
            p.add_argument("--out", default=argparse.SUPPRESS)
    return parser


class _Writer:
    """The one place a run's files are written.

    Each file is written atomically as it is produced and its name kept for
    the manifest.  Without ``--out`` (allowed only where the subcommand
    says so) nothing is written.
    """

    def __init__(self, out: str | None, spec: Subcommand):
        self.dir = Path(out) if out else None
        self.csv_name: str | None = None
        self.csv_path: Path | None = None
        self.names: list[str] = []
        if self.dir is None and spec.needs_out:
            raise CliDataError("--out is required for this subcommand")
        if self.dir is not None and spec.csv_out and self.dir.suffix == ".csv":
            self.csv_name, self.csv_path = spec.csv_out, self.dir
            self.dir = self.dir.parent

    def write(self, name: str, text: str) -> None:
        if self.dir is None:
            return
        path = self.csv_path if name == self.csv_name else self.dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
        self.names.append(path.name)

    def write_manifest(self, ns: argparse.Namespace, inputs: Inputs, started: str) -> None:
        if self.dir is None:
            return
        # The output destination is not configuration: runs into different
        # directories must stay byte-identical.
        config = {
            k: str(v) for k, v in sorted(vars(ns).items()) if k != "out" and v is not None
        }
        manifest = {
            "subcommand": ns.subcommand,
            "library_version": __version__,
            "seed": ns.seed,
            "config_digest": hashlib.sha256(
                json.dumps(config, sort_keys=True).encode()
            ).hexdigest(),
            "inputs": {
                name: {"path": str(path), "sha256": _sha256(path)}
                for name, path in sorted(inputs.items())
            },
            "outputs": sorted(self.names),
            "started": started,
            "finished": _now_iso(),
        }
        self.write("manifest.json", _json_text(manifest))


def main(argv: Sequence[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    spec = next(s for s in SUBCOMMANDS if s.name == ns.subcommand)
    started = _now_iso()
    try:
        writer = _Writer(ns.out, spec)
        inputs: Inputs = {}
        for name, text in spec.run(ns, inputs):
            writer.write(name, text)
        writer.write_manifest(ns, inputs, started)
    except (
        CliDataError,
        UpdateError,
        BootstrapError,
        sio.IngestError,
        ValueError,
        OSError,
    ) as e:
        print(
            json.dumps({"error": type(e).__name__, "message": str(e)}),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
