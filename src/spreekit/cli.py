"""Command-line entry point.

One binary with subcommands::

    spreekit [--seed N] [--out DIR] <subcommand> [flags]

Subcommands: update, bootstrap, validate, mpi, shares, aggregate, diagnose.
Any flag can also be supplied through an environment variable named
``SPREEKIT_<FLAG>`` (dashes become underscores, upper-cased); explicit
flags win over the environment.  Outputs are written atomically under
``--out`` together with a ``manifest.json`` recording input digests, the
seed, the library version, and timestamps; set ``SOURCE_DATE_EPOCH`` to
pin the timestamps for byte-reproducible runs.

Exit codes: 0 success, 1 data error (a JSON error object is printed to
stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from spreekit import __version__, io as sio
from spreekit.bootstrap import BootstrapConfig, BootstrapError, bootstrap_mse
from spreekit.composition import (
    MarginLevel,
    MarginVector,
    aggregate_to_large,
)
from spreekit.geo import aggregate_pixels
from spreekit.ipf import IpfConfig
from spreekit.loglinear import association_distance, decompose
from spreekit.margins import (
    distribute,
    dynamic_shares,
    fixed_shares,
    hybrid_shares,
    select_by_change,
)
from spreekit.mpi import MpiProfile, compute_mpi, tabulate_poverty
from spreekit.simulation import (
    QUARTILE_NAMES,
    SUMMARY_COLUMNS,
    run_simulation,
)
from spreekit.update import UpdateError, UpdateRequest, spree_update

ENV_PREFIX = "SPREEKIT_"


class CliDataError(RuntimeError):
    pass


def _env_key(flag: str) -> str:
    return ENV_PREFIX + flag.lstrip("-").replace("-", "_").upper()


def _add(parser: argparse.ArgumentParser, *flags: str, **kwargs: Any) -> None:
    """add_argument with environment-variable fallback for the default."""
    env_key = _env_key(kwargs.get("dest") or flags[0])
    if env_key in os.environ:
        raw = os.environ[env_key]
        conv = kwargs.get("type", str)
        try:
            kwargs["default"] = conv(raw)
        except (TypeError, ValueError):
            raise SystemExit(2) from None
        kwargs.pop("required", None)
    parser.add_argument(*flags, **kwargs)


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


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    os.replace(tmp, path)


def _fmt(value: Any) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


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


def _require_out(ns: argparse.Namespace) -> Path:
    if not ns.out:
        raise CliDataError("--out is required for this subcommand")
    return Path(ns.out)


def _write_manifest(
    out_dir: Path,
    ns: argparse.Namespace,
    inputs: dict[str, Path],
    outputs: list[str],
    started: str,
) -> None:
    # The output destination is not configuration: runs into different
    # directories must stay byte-identical.
    config = {
        k: str(v)
        for k, v in sorted(vars(ns).items())
        if k not in ("func", "out") and v is not None
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
        "outputs": sorted(outputs),
        "started": started,
        "finished": _now_iso(),
    }
    _atomic_write(out_dir / "manifest.json", _json_text(manifest))


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
    baseline = MarginVector(
        hierarchy.large_ids,
        aggregate_to_large(census, hierarchy).counts.sum(axis=1),
        MarginLevel.LARGE_AREA,
        census.reference_time,
    )
    selection = select_by_change(projected, baseline, cutoff)
    return hybrid_shares(
        fixed_shares(census, hierarchy), dynamic_shares(aux, hierarchy), selection
    )


def _load_update_inputs(ns: argparse.Namespace) -> tuple[UpdateRequest, dict[str, Path]]:
    inputs = {
        "seed": Path(ns.seed_composition),
        "col_margin": Path(ns.col_margin),
        "projections": Path(ns.projections),
        "hierarchy": Path(ns.hierarchy),
    }
    census = sio.load_composition(inputs["seed"])
    hierarchy = sio.load_hierarchy(inputs["hierarchy"])
    projections = sio.load_projections(inputs["projections"])
    if ns.year not in projections:
        raise CliDataError(f"year {ns.year} not present in {inputs['projections']}")
    large_totals = projections[ns.year]
    col_margin = sio.load_margin(inputs["col_margin"], MarginLevel.CATEGORY, ns.year)
    aux = None
    if ns.aux:
        inputs["aux"] = Path(ns.aux)
        aux_by_year = sio.load_aux_populations(inputs["aux"])
        if ns.year not in aux_by_year:
            raise CliDataError(f"year {ns.year} not present in {inputs['aux']}")
        aux = aux_by_year[ns.year]
    shares = _build_shares(
        ns.shares_mode, census, hierarchy, aux, large_totals, ns.cutoff
    )
    req = UpdateRequest(
        seed=census,
        col_margin=col_margin,
        large_totals=large_totals,
        shares=shares,
        ipf_config=_ipf_config(ns),
        reconcile_policy=ns.reconcile,
    )
    return req, inputs


def cmd_update(ns: argparse.Namespace) -> tuple[dict[str, Path], list[str]]:
    out_dir = _require_out(ns)
    req, inputs = _load_update_inputs(ns)
    result = spree_update(req)
    fitted = result.fitted
    rows = [
        (area, category, fitted.counts[a, j])
        for a, area in enumerate(fitted.area_ids)
        for j, category in enumerate(fitted.category_ids)
    ]
    _atomic_write(
        out_dir / "fitted.csv", _csv_text(("area_id", "category_id", "count"), rows)
    )
    provenance = dict(result.provenance)
    provenance["unit"] = ns.unit
    provenance["iterations"] = result.ipf.iterations_used
    provenance["final_deviation"] = result.ipf.final_deviation
    _atomic_write(out_dir / "provenance.json", _json_text(provenance))
    return inputs, ["fitted.csv", "provenance.json"]


def cmd_shares(ns: argparse.Namespace) -> tuple[dict[str, Path], list[str]]:
    out_dir = _require_out(ns)
    inputs = {"census": Path(ns.census), "hierarchy": Path(ns.hierarchy)}
    census = sio.load_composition(inputs["census"])
    hierarchy = sio.load_hierarchy(inputs["hierarchy"])
    aux = None
    projected = None
    if ns.aux:
        inputs["aux"] = Path(ns.aux)
        aux_by_year = sio.load_aux_populations(inputs["aux"])
        if ns.year is None:
            raise CliDataError("--year is required with --aux")
        if ns.year not in aux_by_year:
            raise CliDataError(f"year {ns.year} not present in {inputs['aux']}")
        aux = aux_by_year[ns.year]
    if ns.projections:
        inputs["projections"] = Path(ns.projections)
        projections = sio.load_projections(inputs["projections"])
        if ns.year is None or ns.year not in projections:
            raise CliDataError(f"--year naming a year in {inputs['projections']} is required")
        projected = projections[ns.year]
    shares = _build_shares(ns.mode, census, hierarchy, aux, projected, ns.cutoff)
    rows = list(zip(shares.small_ids, shares.shares))
    outputs = ["shares.csv"]
    _atomic_write(out_dir / "shares.csv", _csv_text(("id", "value"), rows))
    if projected is not None:
        margin = distribute(projected, shares)
        _atomic_write(
            out_dir / "margin.csv",
            _csv_text(("id", "value"), list(zip(margin.ids, margin.values))),
        )
        outputs.append("margin.csv")
    return inputs, outputs


def cmd_bootstrap(ns: argparse.Namespace) -> tuple[dict[str, Path], list[str]]:
    out_dir = _require_out(ns)
    req, inputs = _load_update_inputs(ns)
    inputs["design"] = Path(ns.design)
    design = sio.load_design(inputs["design"])
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
    header = (
        "area_id",
        "category_id",
        "point",
        "mse",
        "cv",
        "rep_mean",
        *SUMMARY_COLUMNS[:3],
        *SUMMARY_COLUMNS[4:],
    )
    q = cell.rep_quantiles
    rows = []
    for a, area in enumerate(cell.area_ids):
        for j, category in enumerate(cell.category_ids):
            rows.append(
                (
                    area,
                    category,
                    cell.point[a, j],
                    cell.mse[a, j],
                    cell.cv[a, j],
                    cell.rep_mean[a, j],
                    q["q2.5"][a, j],
                    q["q25"][a, j],
                    q["median"][a, j],
                    q["q75"][a, j],
                    q["q97.5"][a, j],
                )
            )
    outputs = ["cell_uncertainty.csv", "uncertainty.json"]
    _atomic_write(out_dir / "cell_uncertainty.csv", _csv_text(header, rows))

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
        hc_rows = [
            (area, cell.headcount_point[a], cell.headcount_mse[a], cell.headcount_cv[a])
            for a, area in enumerate(cell.area_ids)
        ]
        _atomic_write(
            out_dir / "headcount_cv.csv",
            _csv_text(("area_id", "headcount", "mse", "cv"), hc_rows),
        )
        finite = cell.headcount_cv[np.isfinite(cell.headcount_cv)]
        if finite.size:
            qs = np.quantile(finite, [0.025, 0.25, 0.5, 0.75, 0.975])
            summary_row = (
                "headcount_cv", qs[0], qs[1], qs[2], float(finite.mean()), qs[3], qs[4]
            )
        else:
            nan = float("nan")
            summary_row = ("headcount_cv", nan, nan, nan, nan, nan, nan)
        _atomic_write(
            out_dir / "cv_summary.csv",
            _csv_text(("measure", *SUMMARY_COLUMNS), [summary_row]),
        )
        outputs += ["headcount_cv.csv", "cv_summary.csv"]
        report["headcount_point"] = cell.headcount_point
        report["headcount_mse"] = cell.headcount_mse
        report["headcount_cv"] = cell.headcount_cv
    _atomic_write(out_dir / "uncertainty.json", _json_text(report))
    return inputs, outputs


def cmd_validate(ns: argparse.Namespace) -> tuple[dict[str, Path], list[str]]:
    out_dir = _require_out(ns)
    inputs = {"plan": Path(ns.plan)}
    plan = sio.load_plan(inputs["plan"])
    overrides = {}
    if ns.replicates is not None:
        overrides["replicates"] = ns.replicates
    if ns.seed is not None:
        overrides["seed"] = ns.seed
    if overrides:
        from dataclasses import replace

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
    _atomic_write(
        out_dir / "share_accuracy.csv",
        _csv_text(
            ("quartile", "strategy", "mean_share_bias", "mean_abs_share_bias"),
            share_rows,
        ),
    )

    perf_rows = []
    for metric in ("bias", "rmse"):
        for q, name in enumerate(QUARTILE_NAMES):
            for strategy in plan.strategies:
                table = report.quartile_summary[strategy][metric]
                perf_rows.append((metric, name, strategy, *table[q]))
    _atomic_write(
        out_dir / "performance.csv",
        _csv_text(("metric", "quartile", "strategy", *SUMMARY_COLUMNS), perf_rows),
    )

    corr_rows = [
        (name, strategy, report.correlations[strategy][q])
        for q, name in enumerate(QUARTILE_NAMES)
        for strategy in plan.strategies
    ]
    _atomic_write(
        out_dir / "correlations.csv",
        _csv_text(("quartile", "strategy", "pearson"), corr_rows),
    )

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
    _atomic_write(out_dir / "report.json", _json_text(payload))
    return inputs, [
        "share_accuracy.csv",
        "performance.csv",
        "correlations.csv",
        "report.json",
    ]


def cmd_mpi(ns: argparse.Namespace) -> tuple[dict[str, Path], list[str]]:
    out_dir = _require_out(ns)
    inputs = {"households": Path(ns.households)}
    if ns.profile:
        inputs["profile"] = Path(ns.profile)
        profile = sio.load_profile(inputs["profile"])
    else:
        profile = MpiProfile.nine_indicator()
    records = sio.load_households(inputs["households"], profile)
    result = compute_mpi(records, profile)
    payload = {
        "headcount": float(result.headcount),
        "intensity": float(result.intensity),
        "mpi": float(result.mpi),
        "population_base": float(result.population_base),
        "indicator_headcounts": {
            k: float(v) for k, v in result.indicator_headcounts.items()
        },
        "contributions": (
            {k: float(v) for k, v in result.contributions.items()}
            if result.contributions is not None
            else None
        ),
    }
    if ns.by_subgroup:
        groups = sorted({r.subgroup_id for r in records})
        payload["subgroups"] = {}
        for group in groups:
            sub = [r for r in records if r.subgroup_id == group]
            sub_result = compute_mpi(sub, profile)
            payload["subgroups"][group] = {
                "headcount": float(sub_result.headcount),
                "intensity": float(sub_result.intensity),
                "mpi": float(sub_result.mpi),
                "population_base": float(sub_result.population_base),
            }
    outputs = ["mpi.json"]
    _atomic_write(out_dir / "mpi.json", _json_text(payload))
    if ns.hierarchy:
        inputs["hierarchy"] = Path(ns.hierarchy)
        hierarchy = sio.load_hierarchy(inputs["hierarchy"])
        table = tabulate_poverty(records, profile, hierarchy)
        rows = [
            (area, category, table.counts[a, j])
            for a, area in enumerate(table.area_ids)
            for j, category in enumerate(table.category_ids)
        ]
        _atomic_write(
            out_dir / "poverty_composition.csv",
            _csv_text(("area_id", "category_id", "count"), rows),
        )
        outputs.append("poverty_composition.csv")
    return inputs, outputs


def cmd_aggregate(ns: argparse.Namespace) -> tuple[dict[str, Path], list[str]]:
    if not ns.out:
        raise CliDataError("--out is required for this subcommand")
    inputs = {"pixels": Path(ns.pixels), "polygons": Path(ns.polygons)}
    px = sio.load_pixels(inputs["pixels"])
    polys = sio.load_polygons(inputs["polygons"])
    agg = aggregate_pixels(px, polys)
    rows = list(zip(agg.margin.ids, agg.margin.values))
    text = _csv_text(("id", "value"), rows)
    out = Path(ns.out)
    if out.suffix == ".csv":
        # Spec'd single-file form: the margin lands exactly at --out and the
        # manifest sits beside it.
        _atomic_write(out, text)
        out_dir = out.parent
        outputs = [out.name]
    else:
        out_dir = out
        _atomic_write(out_dir / "margin.csv", text)
        outputs = ["margin.csv"]
    summary = {
        "unassigned_count": agg.unassigned_count,
        "unassigned_mass": agg.unassigned_mass,
        "total_mass": agg.total_mass,
        "warning_over_5_percent_unassigned": agg.warning,
    }
    _atomic_write(out_dir / "aggregation.json", _json_text(summary))
    outputs.append("aggregation.json")
    if agg.warning:
        print(
            json.dumps({"warning": "more than 5% of pixel mass unassigned"}),
            file=sys.stderr,
        )
    ns.out = str(out_dir)
    return inputs, outputs


def cmd_diagnose(ns: argparse.Namespace) -> tuple[dict[str, Path], list[str]]:
    inputs = {"first": Path(ns.first), "second": Path(ns.second)}
    first = sio.load_composition(inputs["first"])
    second = sio.load_composition(inputs["second"])
    d_first = decompose(first)
    d_second = decompose(second)
    payload = {
        "association_distance": association_distance(first, second),
        "area_ids": list(first.area_ids),
        "category_ids": list(first.category_ids),
        "first": {
            "overall": d_first.overall,
            "area_effects": d_first.area_effects,
            "category_effects": d_first.category_effects,
            "interaction": d_first.interaction,
        },
        "second": {
            "overall": d_second.overall,
            "area_effects": d_second.area_effects,
            "category_effects": d_second.category_effects,
            "interaction": d_second.interaction,
        },
    }
    text = _json_text(payload)
    print(text, end="")
    if ns.out:
        _atomic_write(Path(ns.out) / "diagnose.json", text)
        return inputs, ["diagnose.json"]
    return inputs, []


def _add_ipf_flags(p: argparse.ArgumentParser) -> None:
    _add(p, "--tolerance", type=float, default=1e-8)
    _add(p, "--max-iter", dest="max_iter", type=int, default=1000)
    _add(p, "--zeros", type=_parse_zeros, default=("structural", 0.5))
    _add(
        p,
        "--reconcile",
        choices=("scale-col-to-row", "scale-row-to-col", "error"),
        default="scale-col-to-row",
    )


def _add_update_flags(p: argparse.ArgumentParser, census_flag: str = "--seed") -> None:
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
    _add_ipf_flags(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spreekit",
        description="Census composition updating, uncertainty, and validation.",
    )
    _add(parser, "--seed", type=int, default=None, help="master RNG seed")
    _add(parser, "--out", default=None, help="output directory")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("update", help="rake a census composition to new margins")
    _add_update_flags(p)
    _add(p, "--unit", choices=("persons", "households"), required=True)
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_update)

    p = sub.add_parser("bootstrap", help="bootstrap MSE/CV for an update")
    _add_update_flags(p, census_flag="--census")
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
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
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("validate", help="design-based strategy comparison")
    _add(p, "--plan", required=True)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    _add(p, "--replicates", type=int, default=None)
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("mpi", help="Alkire-Foster poverty measures from households")
    _add(p, "--households", required=True)
    _add(p, "--profile", default=None)
    _add(p, "--hierarchy", default=None, help="also tabulate poor counts per area")
    p.add_argument("--by-subgroup", dest="by_subgroup", action="store_true")
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_mpi)

    p = sub.add_parser("shares", help="within-region share vectors")
    _add(p, "--mode", choices=("fixed", "dynamic", "hybrid"), required=True)
    _add(p, "--census", required=True)
    _add(p, "--hierarchy", required=True)
    _add(p, "--aux", default=None)
    _add(p, "--projections", default=None)
    _add(p, "--year", type=int, default=None)
    _add(p, "--cutoff", type=float, default=0.25)
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_shares)

    p = sub.add_parser("aggregate", help="sum pixel values into areas")
    _add(p, "--pixels", required=True)
    _add(p, "--polygons", required=True)
    p.add_argument("--out", default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("diagnose", help="log-linear decomposition of two compositions")
    _add(p, "--first", required=True)
    _add(p, "--second", required=True)
    p.set_defaults(func=cmd_diagnose)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    started = _now_iso()
    try:
        inputs, outputs = ns.func(ns)
        if ns.out:
            _write_manifest(Path(ns.out), ns, inputs, outputs, started)
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
