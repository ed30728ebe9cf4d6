"""Seeded synthetic inputs, CLI calls and output checks for each workload.

Every workload builds its input files (as texts, for paths under a work
directory) from a workload seed, and returns them with the CLI calls of
one run and a check per call.
The generators use their own numpy RNG, so the program under test receives
only the files.  ``smoke=True`` shrinks every size so the benchmark's own
tests can exercise each generator and check in a second or two.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

YEAR = 2013
# IPF tolerance the CLI uses by default (--tolerance 1e-8).  The margin
# checks allow a further 1e-12 for recomputing sums and targets in another
# summation order than the program.
IPF_TOLERANCE = 1e-8
FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class Call:
    """One CLI invocation: argv for ``spreekit.cli.main`` and its check.

    ``check`` reads the files the call wrote under ``out`` and returns a
    list of problems (empty when the outputs are correct).
    """

    name: str
    argv: tuple[str, ...]
    out: Path
    check: Callable[[Path], list[str]]


@dataclass(frozen=True)
class Prepared:
    """A workload's input files (path -> text), its calls and work units."""

    files: dict[Path, str]
    calls: tuple[Call, ...]
    work: int

    def write(self) -> None:
        for path, text in self.files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    prepare: Callable[[Path, int, bool], Prepared]
    # Per-layer counters that must be positive in a traced run.
    must_count: tuple[str, ...]


def derive_seed(workload: str, seed: int) -> int:
    """A non-negative 63-bit seed from the workload name and the run seed."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _num(v: float) -> str:
    return repr(float(v))


def _csv(files: dict[Path, str], path: Path, header: tuple[str, ...], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    files[path] = "\n".join(lines) + "\n"


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _read_json(path: Path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _ids(prefix: str, n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


# --- shared census-update inputs ------------------------------------------


@dataclass(frozen=True)
class CensusInputs:
    """A census with its hierarchy, projections, aux and survey margin."""

    areas: list[str]
    categories: list[str]
    regions: list[str]
    region_of: np.ndarray  # region position per area
    counts: np.ndarray  # A x J census
    projections: np.ndarray  # per region, target year
    aux: np.ndarray  # per area, target year
    col_margin: np.ndarray  # per category, target year
    paths: dict[str, Path]


def _census_inputs(
    files: dict[Path, str],
    d: Path,
    rng: np.random.Generator,
    n_areas: int,
    n_categories: int,
    n_regions: int,
    zero_share: float,
    col_skew: float,
) -> CensusInputs:
    areas = _ids("A", n_areas)
    categories = _ids("C", n_categories)
    regions = _ids("R", n_regions)
    region_of = np.arange(n_areas) * n_regions // n_areas

    counts = rng.integers(1, 400, size=(n_areas, n_categories)).astype(float)
    if zero_share > 0:
        zero = rng.random((n_areas, n_categories)) < zero_share
        # Keep one positive cell per row and per column: no all-zero lines.
        zero[np.arange(n_areas), rng.integers(0, n_categories, n_areas)] = False
        zero[rng.integers(0, n_areas, n_categories), np.arange(n_categories)] = False
        counts[zero] = 0.0

    rows = counts.sum(axis=1)
    region_rows = np.bincount(region_of, weights=rows, minlength=n_regions)
    growth = rng.uniform(-0.05, 0.15, size=n_regions)
    projections = np.round(region_rows * (1.0 + growth))
    aux = np.round(rows * (1.0 + growth[region_of]) * rng.lognormal(0.0, 0.08, n_areas))
    skew = rng.lognormal(0.0, col_skew, n_categories)
    col_margin = np.round(counts.sum(axis=0) * skew)

    paths = {
        "census": d / "census.csv",
        "hierarchy": d / "hierarchy.csv",
        "projections": d / "projections.csv",
        "aux": d / "aux.csv",
        "col_margin": d / "col_margin.csv",
    }
    _csv(
        files,
        paths["census"],
        ("area_id", "category_id", "count"),
        (
            (a, c, _num(counts[i, j]))
            for i, a in enumerate(areas)
            for j, c in enumerate(categories)
        ),
    )
    _csv(
        files,
        paths["hierarchy"],
        ("small_id", "large_id"),
        ((a, regions[region_of[i]]) for i, a in enumerate(areas)),
    )
    _csv(
        files,
        paths["projections"],
        ("large_id", "year", "population"),
        ((r, str(YEAR), _num(projections[k])) for k, r in enumerate(regions)),
    )
    _csv(
        files,
        paths["aux"],
        ("small_id", "year", "population"),
        ((a, str(YEAR), _num(aux[i])) for i, a in enumerate(areas)),
    )
    _csv(
        files,
        paths["col_margin"],
        ("id", "value"),
        ((c, _num(col_margin[j])) for j, c in enumerate(categories)),
    )
    return CensusInputs(
        areas, categories, regions, region_of, counts, projections, aux, col_margin, paths
    )


def _update_argv(ci: CensusInputs) -> list[str]:
    p = ci.paths
    return [
        "--col-margin", str(p["col_margin"]),
        "--projections", str(p["projections"]),
        "--hierarchy", str(p["hierarchy"]),
        "--shares-mode", "hybrid",
        "--aux", str(p["aux"]),
        "--year", str(YEAR),
    ]


def hybrid_targets(ci: CensusInputs, cutoff: float = 0.25) -> tuple[np.ndarray, np.ndarray]:
    """Row and column targets of a hybrid-shares update, computed here.

    Regions whose projected change |projected / census - 1| ranks in the top
    ``ceil(cutoff * K)`` (ties by position) take auxiliary shares, the rest
    census shares; the column margin is scaled onto the row total.
    """
    n_regions = len(ci.regions)
    rows = ci.counts.sum(axis=1)
    census_regions = np.bincount(ci.region_of, weights=rows, minlength=n_regions)
    aux_regions = np.bincount(ci.region_of, weights=ci.aux, minlength=n_regions)
    scores = np.abs(ci.projections / census_regions - 1.0)
    order = sorted(range(n_regions), key=lambda k: (-scores[k], k))
    dynamic = np.zeros(n_regions, dtype=bool)
    dynamic[order[: math.ceil(cutoff * n_regions)]] = True
    fixed_share = rows / census_regions[ci.region_of]
    aux_share = ci.aux / aux_regions[ci.region_of]
    share = np.where(dynamic[ci.region_of], aux_share, fixed_share)
    row_target = ci.projections[ci.region_of] * share
    col_target = ci.col_margin * (row_target.sum() / ci.col_margin.sum())
    return row_target, col_target


def _margin_problems(
    what: str, got: np.ndarray, target: np.ndarray, tolerance: float
) -> list[str]:
    dev = np.abs(got - target) / np.maximum(target, 1.0)
    worst = float(dev.max())
    if not worst <= tolerance + FLOAT_SLACK:
        return [f"{what} sums miss their targets by {worst:.3e} (> {tolerance:.0e})"]
    return []


# --- update-5k --------------------------------------------------------------


def prepare_update(d: Path, seed: int, smoke: bool) -> Prepared:
    rng = np.random.default_rng(derive_seed("update-5k", seed))
    a, j, k = (60, 5, 4) if smoke else (5000, 20, 100)
    files: dict[Path, str] = {}
    ci = _census_inputs(files, d / "in", rng, a, j, k, zero_share=0.5, col_skew=0.8)
    row_target, col_target = hybrid_targets(ci)
    out = d / "out" / "update"

    def check(out: Path) -> list[str]:
        problems = []
        fitted = np.zeros((a, j))
        area_pos = {x: i for i, x in enumerate(ci.areas)}
        cat_pos = {x: i for i, x in enumerate(ci.categories)}
        rows = _read_csv(out / "fitted.csv")
        if len(rows) != a * j:
            return [f"fitted.csv has {len(rows)} rows, expected {a * j}"]
        for r in rows:
            fitted[area_pos[r["area_id"]], cat_pos[r["category_id"]]] = float(r["count"])
        problems += _margin_problems("row", fitted.sum(axis=1), row_target, IPF_TOLERANCE)
        problems += _margin_problems("column", fitted.sum(axis=0), col_target, IPF_TOLERANCE)
        if np.any(fitted[ci.counts == 0] != 0):
            problems.append("a structural zero of the census became positive")
        provenance = _read_json(out / "provenance.json")
        if provenance.get("converged") is not True:
            problems.append("provenance.json says the fit did not converge")
        return problems

    argv = ("update", "--seed", str(ci.paths["census"]), *_update_argv(ci),
            "--unit", "persons", "--out", str(out))
    return Prepared(files, (Call("update", argv, out, check),), a * j)


# --- bootstrap-2k -----------------------------------------------------------


def prepare_bootstrap(d: Path, seed: int, smoke: bool) -> Prepared:
    rng = np.random.default_rng(derive_seed("bootstrap-2k", seed))
    if smoke:
        a, j, k, psus_per_stratum, pool, replicates = 40, 4, 4, 4, 3, 5
    else:
        a, j, k, psus_per_stratum, pool, replicates = 2000, 12, 100, 8, 20, 100
    files: dict[Path, str] = {}
    ci = _census_inputs(files, d / "in", rng, a, j, k, zero_share=0.0, col_skew=0.1)

    # Survey design: one stratum per region, PSUs of 300 persons drawn from
    # the region's census profile, every category listed in census order.
    persons = 300
    region_profile = np.zeros((k, j))
    np.add.at(region_profile, ci.region_of, ci.counts)
    design_rows = []
    for s, region in enumerate(ci.regions):
        probs = region_profile[s] / region_profile[s].sum()
        weight = ci.projections[s] / (psus_per_stratum * persons)
        for p in range(psus_per_stratum):
            drawn = rng.multinomial(persons, probs)
            for c, cat in enumerate(ci.categories):
                design_rows.append(
                    (f"{region}-P{p}", region, _num(weight), cat, _num(drawn[c]))
                )
    design = d / "in" / "design.csv"
    _csv(files, design, ("psu_id", "stratum_id", "weight", "category_id", "value"), design_rows)

    pool_dir = d / "in" / "aux_pool"
    for b in range(pool):
        values = np.round(ci.aux * rng.lognormal(0.0, 0.05, a))
        _csv(
            files,
            pool_dir / f"pool{b:02d}.csv",
            ("id", "value"),
            ((x, _num(values[i])) for i, x in enumerate(ci.areas)),
        )

    out = d / "out" / "bootstrap"

    def check(out: Path) -> list[str]:
        problems = []
        report = _read_json(out / "uncertainty.json")
        done, dropped = report["completed_replicates"], report["dropped_replicates"]
        if done + dropped != replicates:
            problems.append(f"{done} completed + {dropped} dropped != B = {replicates}")
        rows = _read_csv(out / "cell_uncertainty.csv")
        if len(rows) != a * j:
            problems.append(f"cell_uncertainty.csv has {len(rows)} rows, expected {a * j}")
        point = np.array([float(r["point"]) for r in rows]).reshape(-1, j)
        mse = np.array([float(r["mse"]) for r in rows])
        if not (np.all(np.isfinite(mse)) and np.all(mse >= 0)):
            problems.append("an MSE is negative or not finite")
        row_target, col_target = hybrid_targets(ci)
        problems += _margin_problems("point row", point.sum(axis=1), row_target, IPF_TOLERANCE)
        problems += _margin_problems("point column", point.sum(axis=0), col_target, IPF_TOLERANCE)
        return problems

    argv = (
        "bootstrap", "--census", str(ci.paths["census"]), *_update_argv(ci),
        "--design", str(design), "--aux-pool", str(pool_dir),
        "--replicates", str(replicates), "--seed", str(derive_seed("bootstrap-rng", seed) % 2**31),
        "--col-resample", "psu-cluster", "--out", str(out),
    )
    return Prepared(files, (Call("bootstrap", argv, out, check),), replicates)


# --- validate-shock ---------------------------------------------------------


def prepare_validate(d: Path, seed: int, smoke: bool) -> Prepared:
    # The shipped migration-shock scenario (12 areas, 3 strategies); the
    # workload seed picks the scenario's construction and replicate seed.
    scenario = {"aux_pool_size": 20} if smoke else {}
    replicates = 10 if smoke else 500
    plan = {"scenario": scenario, "seed": derive_seed("validate-shock", seed) % 2**31}
    if smoke:
        plan["replicates"] = replicates
    plan_path = d / "in" / "plan.json"
    files = {plan_path: json.dumps(plan, sort_keys=True) + "\n"}
    out = d / "out" / "validate"
    strategies = ("fixed", "dynamic", "hybrid")

    def check(out: Path) -> list[str]:
        problems = []
        report = _read_json(out / "report.json")
        for s in strategies:
            m = report["strategies"].get(s)
            if m is None:
                problems.append(f"strategy {s} missing from report.json")
            elif m["completed"] != replicates or m["failed"] != 0:
                problems.append(
                    f"strategy {s} completed {m['completed']} and failed {m['failed']} "
                    f"of {replicates} rounds"
                )
        if len(_read_csv(out / "performance.csv")) != 2 * 4 * len(strategies):
            problems.append("performance.csv does not hold 2 metrics x 4 quartiles x 3 strategies")
        return problems

    argv = ("validate", "--plan", str(plan_path), "--out", str(out))
    return Prepared(files, (Call("validate", argv, out, check),), replicates * len(strategies))


# --- poverty-raster ---------------------------------------------------------

# The shipped nine-indicator profile with every weight times 18: child
# mortality 1/3, schooling and attendance 1/6 each, six living standards
# 1/18 each.  A household is poor when its score reaches 1/3, i.e. 6/18.
NINE_INDICATORS = (
    "child_mortality", "years_of_schooling", "school_attendance", "cooking_fuel",
    "sanitation", "drinking_water", "electricity", "housing", "assets",
)
WEIGHTS_18 = np.array([6, 3, 3, 1, 1, 1, 1, 1, 1])
CUTOFF_18 = 6


def _ring_lines(n: int, steps: int, jitter: float, rng: np.random.Generator) -> np.ndarray:
    """Offsets of the grid lines 0..n, each cut into n * steps pieces.

    Interior lines get a perpendicular jitter below one piece length, so
    the cells they bound stay simple polygons; the outer lines are straight.
    """
    offsets = rng.uniform(-jitter, jitter, size=(n + 1, n * steps + 1))
    offsets[[0, n], :] = 0.0
    offsets[:, :: steps] = 0.0
    return offsets


def _cell_ring(r: int, c: int, steps: int, h_off: np.ndarray, v_off: np.ndarray) -> list:
    t = np.arange(steps + 1) / steps
    lo, hi = slice(c * steps, (c + 1) * steps + 1), slice(r * steps, (r + 1) * steps + 1)
    bottom = np.column_stack([c + t, r + h_off[r, lo]])
    right = np.column_stack([c + 1 + v_off[c + 1, hi], r + t])
    top = np.column_stack([c + t, r + 1 + h_off[r + 1, lo]])[::-1]
    left = np.column_stack([c + v_off[c, hi], r + t])[::-1]
    ring = np.vstack([bottom[:-1], right[:-1], top[:-1], left[:-1], bottom[:1]])
    return ring.tolist()


def prepare_poverty(d: Path, seed: int, smoke: bool) -> Prepared:
    rng = np.random.default_rng(derive_seed("poverty-raster", seed))
    if smoke:
        n_hh, n_areas, n_regions, n_groups, n_px, grid = 400, 20, 2, 2, 600, 2
    else:
        n_hh, n_areas, n_regions, n_groups, n_px, grid = 50_000, 500, 25, 4, 100_000, 20
    steps = 16  # 4 sides x 16 pieces = 64 vertices per polygon

    areas = _ids("A", n_areas)
    regions = _ids("R", n_regions)
    groups = _ids("G", n_groups)
    files: dict[Path, str] = {}
    hierarchy = d / "in" / "hierarchy.csv"
    _csv(
        files,
        hierarchy,
        ("small_id", "large_id"),
        ((x, regions[i * n_regions // n_areas]) for i, x in enumerate(areas)),
    )
    area_of = rng.integers(0, n_areas, n_hh)
    group_of = rng.integers(0, n_groups, n_hh)
    size = rng.integers(1, 9, n_hh)
    weight = rng.integers(1, 4, n_hh)
    propensity = rng.uniform(0.05, 0.5, n_areas)[area_of]
    flags = rng.random((n_hh, len(NINE_INDICATORS))) < propensity[:, None]
    households = d / "in" / "households.csv"
    _csv(
        files,
        households,
        ("household_id", "area_id", "subgroup_id", "size", "weight",
         *(f"ind_{i}" for i in NINE_INDICATORS)),
        (
            (f"H{h}", areas[area_of[h]], groups[group_of[h]], str(size[h]),
             _num(weight[h]), *("1" if f else "0" for f in flags[h]))
            for h in range(n_hh)
        ),
    )

    # Integer oracle: persons = size * weight, poor iff 18 * score >= 6.
    persons = (size * weight).astype(np.int64)
    score18 = flags.astype(np.int64) @ WEIGHTS_18
    poor = score18 >= CUTOFF_18
    mpi_out = d / "out" / "mpi"

    def check_mpi(out: Path) -> list[str]:
        problems = []
        result = _read_json(out / "mpi.json")
        total, poor_total = int(persons.sum()), int(persons[poor].sum())
        if result["headcount"] != poor_total / total:
            problems.append(f"headcount {result['headcount']!r} != oracle {poor_total}/{total}")
        intensity = Fraction(int((persons[poor] * score18[poor]).sum()), 18 * poor_total)
        if abs(result["intensity"] - float(intensity)) > 1e-12:
            problems.append(f"intensity {result['intensity']!r} != oracle {float(intensity)!r}")
        for g, name in enumerate(groups):
            m = group_of == g
            sub = result["subgroups"][name]["headcount"]
            if sub != int(persons[m & poor].sum()) / int(persons[m].sum()):
                problems.append(f"subgroup {name} headcount {sub!r} differs from the oracle")
        counts = np.zeros((n_areas, 2), dtype=np.int64)
        np.add.at(counts, (area_of, np.where(poor, 0, 1)), persons)
        pos = {x: i for i, x in enumerate(areas)}
        table = _read_csv(out / "poverty_composition.csv")
        col = {"poor": 0, "non-poor": 1}
        got = np.zeros((n_areas, 2))
        for r in table:
            got[pos[r["area_id"]], col[r["category_id"]]] = float(r["count"])
        if len(table) != 2 * n_areas or np.any(got != counts):
            problems.append("poverty_composition.csv differs from the oracle counts")
        return problems

    lines_h = _ring_lines(grid, steps, 0.3 / steps, rng)
    lines_v = _ring_lines(grid, steps, 0.3 / steps, rng)
    features = [
        {
            "type": "Feature",
            "properties": {"area_id": f"P{r:02d}{c:02d}"},
            "geometry": {
                "type": "Polygon",
                "coordinates": [_cell_ring(r, c, steps, lines_h, lines_v)],
            },
        }
        for r in range(grid)
        for c in range(grid)
    ]
    polygons = d / "in" / "polygons.geojson"
    files[polygons] = json.dumps({"type": "FeatureCollection", "features": features}) + "\n"
    # Pixels cover the grid plus a 1% margin on every side; the cells tile
    # the grid exactly, so a pixel is unassigned iff it lies outside it.
    margin = 0.01 * grid
    lon = rng.uniform(-margin, grid + margin, n_px)
    lat = rng.uniform(-margin, grid + margin, n_px)
    value = rng.integers(0, 200, n_px).astype(float)
    pixels = d / "in" / "pixels.csv"
    _csv(
        files,
        pixels, ("lon", "lat", "value"),
        ((_num(x), _num(y), _num(v)) for x, y, v in zip(lon, lat, value)),
    )
    outside = (lon <= 0) | (lon >= grid) | (lat <= 0) | (lat >= grid)
    agg_out = d / "out" / "aggregate"

    def check_aggregate(out: Path) -> list[str]:
        problems = []
        summary = _read_json(out / "aggregation.json")
        margin_rows = _read_csv(out / "margin.csv")
        assigned = sum(Fraction(r["value"]) for r in margin_rows)
        total = Fraction(summary["total_mass"])
        if assigned + Fraction(summary["unassigned_mass"]) != total:
            problems.append("assigned plus unassigned pixel mass differs from the total")
        if total != int(value.sum()):
            problems.append(f"total mass {summary['total_mass']!r} != {int(value.sum())}")
        if summary["unassigned_count"] != int(outside.sum()):
            problems.append(
                f"{summary['unassigned_count']} pixels unassigned, "
                f"{int(outside.sum())} lie outside the grid"
            )
        if len(margin_rows) != grid * grid:
            problems.append(f"margin.csv has {len(margin_rows)} areas, expected {grid * grid}")
        return problems

    return Prepared(
        files,
        (
            Call(
                "mpi",
                ("mpi", "--households", str(households), "--hierarchy", str(hierarchy),
                 "--by-subgroup", "--out", str(mpi_out)),
                mpi_out,
                check_mpi,
            ),
            Call(
                "aggregate",
                ("aggregate", "--pixels", str(pixels), "--polygons", str(polygons),
                 "--out", str(agg_out)),
                agg_out,
                check_aggregate,
            ),
        ),
        n_hh + n_px,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bootstrap-2k",
            "replicate engine: census redraw, margin resampling and 100 mid-size "
            "fits at 2000 areas x 12 categories, with real ingest and output",
            "replicates",
            prepare_bootstrap,
            ("io.rows_read", "ipf.fits", "ipf.sweeps", "bootstrap.replicates_completed",
             "composition.objects", "margins.calls", "update.calls", "rng.streams"),
        ),
        Workload(
            "validate-shock",
            "tiny tables, 500 rounds x 3 strategies: per-call overhead of object "
            "validation, distribute and 1500 small fits, almost no I/O",
            "strategy-updates",
            prepare_validate,
            ("ipf.fits", "update.calls", "margins.calls", "composition.objects",
             "simulation.census_redraws", "rng.streams"),
        ),
        Workload(
            "update-5k",
            "one large sparse fit plus a 100k-row read and write; bypasses the "
            "replicate machinery",
            "table-cells",
            prepare_update,
            ("io.rows_read", "ipf.fits", "ipf.sweeps", "update.calls", "margins.calls",
             "composition.objects"),
        ),
        Workload(
            "poverty-raster",
            "record-level paths: MPI scoring of 50k households and pixel "
            "aggregation of 100k pixels into 400 polygons",
            "input-records",
            prepare_poverty,
            ("io.rows_read", "mpi.households_scored", "composition.objects"),
        ),
    )
}
