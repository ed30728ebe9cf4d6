"""CSV and JSON ingestion for every file schema, plus matching writers.

All readers validate the full target-type invariants at load time and
raise :class:`IngestError` with file and line context.  Writers format
floats with ``repr`` so save then load is an identity, and emit rows in
the object's own id order so files are deterministic.

Schemas (UTF-8, comma-separated, ``.`` decimal point):

- composition: ``area_id,category_id,count`` (long format, absent pairs
  are zero)
- margin: ``id,value``
- hierarchy: ``small_id,large_id``
- households: ``household_id,area_id,subgroup_id,size,weight,ind_<id>...``
  with deprivation flags 1 (deprived), 0 (not deprived), empty (missing)
- projections: ``large_id,year,population``; auxiliary populations:
  ``small_id,year,population``
- pixels: ``lon,lat,value``
- survey design: ``psu_id,stratum_id,weight,category_id,value``
- poverty profile: JSON ``{"indicators": [{"id", "weight"}], "cutoff"}``
  with weights as exact fraction strings like ``"1/18"`` (plain numbers
  are snapped to the nearest fraction with denominator <= 10^6)
- polygons: GeoJSON FeatureCollection with ``properties.area_id``
- simulation plan: JSON with either an inline ``{"scenario": {...}}``
  generator config or file references per input
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from spreekit.bootstrap import SurveyDesign
from spreekit.composition import (
    AreaHierarchy,
    Composition,
    MarginLevel,
    MarginVector,
)
from spreekit.geo import AreaPolygonSet, PixelTable
from spreekit.mpi import HouseholdRecord, MpiProfile
from spreekit.scenario import ScenarioConfig, build_scenario
from spreekit.simulation import SimulationPlan


class IngestError(ValueError):
    """Schema or invariant violation, with file and line context."""


def _fail(path: Path, line: int | None, message: str) -> None:
    where = f"{path}:{line}" if line is not None else str(path)
    raise IngestError(f"{where}: {message}")


def _read_rows(path: str | Path, expected_header: Sequence[str]) -> list[list[str]]:
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        raise IngestError(f"{path}: {e}") from e
    if not rows:
        _fail(path, 1, "empty file, expected header " + ",".join(expected_header))
    header = [h.strip() for h in rows[0]]
    if header != list(expected_header):
        _fail(
            path,
            1,
            f"bad header {','.join(header)!r}, expected {','.join(expected_header)!r}",
        )
    return rows[1:]


def _parse_float(path: Path, line: int, field: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        _fail(path, line, f"{field} is not a number: {raw!r}")
    if not np.isfinite(value):
        _fail(path, line, f"{field} must be finite, got {raw!r}")
    return value


def _require_columns(path: Path, line: int, row: list[str], n: int) -> None:
    if len(row) != n:
        _fail(path, line, f"expected {n} columns, got {len(row)}")


def _wrap_invariant(path: Path, build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except IngestError:
        raise
    except ValueError as e:
        raise IngestError(f"{path}: {e}") from e


def load_composition(path: str | Path, reference_time: int = 0) -> Composition:
    path = Path(path)
    rows = _read_rows(path, ("area_id", "category_id", "count"))
    if not rows:
        _fail(path, 2, "composition has no data rows")
    # Insertion-ordered id -> position maps.
    areas: dict[str, int] = {}
    categories: dict[str, int] = {}
    cells: dict[tuple[str, str], float] = {}
    first_line: dict[tuple[str, str], int] = {}
    for i, row in enumerate(rows, start=2):
        _require_columns(path, i, row, 3)
        area, category, raw = row[0].strip(), row[1].strip(), row[2].strip()
        if not area or not category:
            _fail(path, i, "empty area_id or category_id")
        value = _parse_float(path, i, "count", raw)
        if value < 0:
            _fail(path, i, f"negative count {raw} for ({area},{category})")
        key = (area, category)
        if key in cells:
            _fail(path, i, f"duplicate cell ({area},{category}), first at line {first_line[key]}")
        cells[key] = value
        first_line[key] = i
        areas.setdefault(area, len(areas))
        categories.setdefault(category, len(categories))
    counts = np.zeros((len(areas), len(categories)))
    for (area, category), value in cells.items():
        counts[areas[area], categories[category]] = value
    return _wrap_invariant(
        path, Composition, tuple(areas), tuple(categories), counts, reference_time
    )


def save_composition(path: str | Path, c: Composition) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("area_id", "category_id", "count"))
        for a, area in enumerate(c.area_ids):
            for j, category in enumerate(c.category_ids):
                w.writerow((area, category, repr(float(c.counts[a, j]))))


def load_margin(
    path: str | Path,
    level: MarginLevel = MarginLevel.SMALL_AREA,
    reference_time: int = 0,
) -> MarginVector:
    path = Path(path)
    rows = _read_rows(path, ("id", "value"))
    ids: list[str] = []
    seen: dict[str, int] = {}
    values: list[float] = []
    for i, row in enumerate(rows, start=2):
        _require_columns(path, i, row, 2)
        ident, raw = row[0].strip(), row[1].strip()
        if not ident:
            _fail(path, i, "empty id")
        if ident in seen:
            _fail(path, i, f"duplicate id {ident!r}, first at line {seen[ident]}")
        seen[ident] = i
        value = _parse_float(path, i, "value", raw)
        if value < 0:
            _fail(path, i, f"negative value {raw} for {ident!r}")
        ids.append(ident)
        values.append(value)
    return _wrap_invariant(
        path, MarginVector, tuple(ids), np.asarray(values), level, reference_time
    )


def save_margin(path: str | Path, m: MarginVector) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("id", "value"))
        for ident, value in zip(m.ids, m.values):
            w.writerow((ident, repr(float(value))))


def load_hierarchy(path: str | Path) -> AreaHierarchy:
    path = Path(path)
    rows = _read_rows(path, ("small_id", "large_id"))
    if not rows:
        _fail(path, 2, "hierarchy has no data rows")
    pairs: list[tuple[str, str]] = []
    seen: dict[str, int] = {}
    for i, row in enumerate(rows, start=2):
        _require_columns(path, i, row, 2)
        small, large = row[0].strip(), row[1].strip()
        if not small or not large:
            _fail(path, i, "empty small_id or large_id")
        if small in seen:
            _fail(path, i, f"duplicate small_id {small!r}, first at line {seen[small]}")
        seen[small] = i
        pairs.append((small, large))
    return _wrap_invariant(path, AreaHierarchy.from_pairs, pairs)


def save_hierarchy(path: str | Path, h: AreaHierarchy) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("small_id", "large_id"))
        for small in h.small_ids:
            w.writerow((small, h.large_of(small)))


def load_households(
    path: str | Path, profile: MpiProfile | None = None
) -> tuple[HouseholdRecord, ...]:
    """Household rows with per-indicator deprivation flags.

    With a profile supplied, the ``ind_`` columns must cover exactly the
    profile's indicators.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        raise IngestError(f"{path}: {e}") from e
    if not rows:
        _fail(path, 1, "empty file, expected household header")
    header = [h.strip() for h in rows[0]]
    fixed = ("household_id", "area_id", "subgroup_id", "size", "weight")
    if tuple(header[: len(fixed)]) != fixed:
        _fail(path, 1, f"header must start with {','.join(fixed)}")
    indicator_cols = header[len(fixed) :]
    bad = [c for c in indicator_cols if not c.startswith("ind_")]
    if bad:
        _fail(path, 1, f"indicator columns must start with 'ind_': {bad}")
    indicators = tuple(c[len("ind_") :] for c in indicator_cols)
    if len(set(indicators)) != len(indicators):
        _fail(path, 1, "duplicate indicator columns")
    if profile is not None and set(indicators) != set(profile.indicators):
        _fail(
            path,
            1,
            f"indicator columns {sorted(indicators)} do not match the profile "
            f"indicators {sorted(profile.indicators)}",
        )
    records: list[HouseholdRecord] = []
    seen: dict[str, int] = {}
    for i, row in enumerate(rows[1:], start=2):
        _require_columns(path, i, row, len(header))
        hid, area, subgroup = row[0].strip(), row[1].strip(), row[2].strip()
        if not hid or not area:
            _fail(path, i, "empty household_id or area_id")
        if hid in seen:
            _fail(path, i, f"duplicate household_id {hid!r}, first at line {seen[hid]}")
        seen[hid] = i
        try:
            size = int(row[3])
        except ValueError:
            _fail(path, i, f"size is not an integer: {row[3]!r}")
        weight = _parse_float(path, i, "weight", row[4].strip())
        flags: dict[str, bool | None] = {}
        for indicator, raw in zip(indicators, row[len(fixed) :]):
            raw = raw.strip()
            if raw == "":
                flags[indicator] = None
            elif raw in ("0", "1"):
                flags[indicator] = raw == "1"
            else:
                _fail(path, i, f"ind_{indicator} must be 0, 1, or empty, got {raw!r}")
        records.append(
            _wrap_invariant(
                path, HouseholdRecord, hid, area, subgroup, size, flags, weight
            )
        )
    return tuple(records)


def save_households(
    path: str | Path,
    records: Sequence[HouseholdRecord],
    indicators: Sequence[str],
) -> None:
    header = ["household_id", "area_id", "subgroup_id", "size", "weight"] + [
        f"ind_{i}" for i in indicators
    ]
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        for r in records:
            flags = [
                ""
                if (v := r.deprivations.get(i)) is None
                else ("1" if v else "0")
                for i in indicators
            ]
            w.writerow(
                [r.household_id, r.area_id, r.subgroup_id, str(r.size), repr(float(r.weight))]
                + flags
            )


def _parse_fraction(path: Path, what: str, raw: Any) -> Fraction:
    if isinstance(raw, bool):
        raise IngestError(f"{path}: {what} must be a number or fraction string")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as e:
            raise IngestError(f"{path}: bad {what} {raw!r}: {e}") from e
    if isinstance(raw, float):
        return Fraction(raw).limit_denominator(10**6)
    raise IngestError(f"{path}: {what} must be a number or fraction string, got {raw!r}")


def load_profile(path: str | Path) -> MpiProfile:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise IngestError(f"{path}: {e}") from e
    except json.JSONDecodeError as e:
        raise IngestError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(data, dict) or "indicators" not in data:
        raise IngestError(f"{path}: expected an object with an 'indicators' list")
    entries = data["indicators"]
    if not isinstance(entries, list) or not entries:
        raise IngestError(f"{path}: 'indicators' must be a non-empty list")
    ids: list[str] = []
    weights: list[Fraction] = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or "id" not in entry or "weight" not in entry:
            raise IngestError(f"{path}: indicators[{k}] needs 'id' and 'weight'")
        ids.append(str(entry["id"]))
        weights.append(_parse_fraction(path, f"indicators[{k}].weight", entry["weight"]))
    cutoff = _parse_fraction(path, "cutoff", data.get("cutoff", "1/3"))
    return _wrap_invariant(path, MpiProfile, tuple(ids), tuple(weights), cutoff)


def save_profile(path: str | Path, profile: MpiProfile) -> None:
    data = {
        "indicators": [
            {"id": i, "weight": str(w)}
            for i, w in zip(profile.indicators, profile.weights)
        ],
        "cutoff": str(profile.poverty_cutoff),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2)
        f.write("\n")


def _load_by_year(
    path: str | Path, header: tuple[str, str, str], level: MarginLevel
) -> dict[int, MarginVector]:
    path = Path(path)
    rows = _read_rows(path, header)
    by_year: dict[int, dict[str, float]] = {}
    lines: dict[tuple[int, str], int] = {}
    for i, row in enumerate(rows, start=2):
        _require_columns(path, i, row, 3)
        ident = row[0].strip()
        if not ident:
            _fail(path, i, f"empty {header[0]}")
        try:
            year = int(row[1])
        except ValueError:
            _fail(path, i, f"year is not an integer: {row[1]!r}")
        value = _parse_float(path, i, header[2], row[2].strip())
        if value < 0:
            _fail(path, i, f"negative {header[2]} {row[2]!r}")
        key = (year, ident)
        if key in lines:
            _fail(path, i, f"duplicate ({ident},{year}), first at line {lines[key]}")
        lines[key] = i
        by_year.setdefault(year, {})[ident] = value
    out: dict[int, MarginVector] = {}
    for year in sorted(by_year):
        entries = by_year[year]
        out[year] = _wrap_invariant(
            path,
            MarginVector,
            tuple(entries),
            np.asarray(list(entries.values())),
            level,
            year,
        )
    return out


def load_projections(path: str | Path) -> dict[int, MarginVector]:
    """Large-area population projections, one margin per year."""
    return _load_by_year(
        path, ("large_id", "year", "population"), MarginLevel.LARGE_AREA
    )


def load_aux_populations(path: str | Path) -> dict[int, MarginVector]:
    """Auxiliary small-area population estimates, one margin per year."""
    return _load_by_year(
        path, ("small_id", "year", "population"), MarginLevel.SMALL_AREA
    )


def save_by_year(
    path: str | Path, margins: Mapping[int, MarginVector], header: tuple[str, str, str]
) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        for year in sorted(margins):
            m = margins[year]
            for ident, value in zip(m.ids, m.values):
                w.writerow((ident, str(year), repr(float(value))))


def load_pixels(path: str | Path) -> PixelTable:
    path = Path(path)
    rows = _read_rows(path, ("lon", "lat", "value"))
    parsed: list[tuple[float, float, float]] = []
    for i, row in enumerate(rows, start=2):
        _require_columns(path, i, row, 3)
        lon = _parse_float(path, i, "lon", row[0].strip())
        lat = _parse_float(path, i, "lat", row[1].strip())
        value = _parse_float(path, i, "value", row[2].strip())
        if value < 0:
            _fail(path, i, f"negative value {row[2]!r}")
        parsed.append((lon, lat, value))
    return _wrap_invariant(path, PixelTable.from_rows, parsed)


def save_pixels(path: str | Path, px: PixelTable) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("lon", "lat", "value"))
        for lon, lat, value in zip(px.lon, px.lat, px.value):
            w.writerow((repr(float(lon)), repr(float(lat)), repr(float(value))))


def load_design(path: str | Path) -> SurveyDesign:
    path = Path(path)
    rows = _read_rows(path, ("psu_id", "stratum_id", "weight", "category_id", "value"))
    if not rows:
        _fail(path, 2, "survey design has no data rows")
    psu, stratum, weight, category, value = [], [], [], [], []
    for i, row in enumerate(rows, start=2):
        _require_columns(path, i, row, 5)
        if not row[0].strip() or not row[1].strip() or not row[3].strip():
            _fail(path, i, "empty psu_id, stratum_id, or category_id")
        psu.append(row[0].strip())
        stratum.append(row[1].strip())
        weight.append(_parse_float(path, i, "weight", row[2].strip()))
        category.append(row[3].strip())
        value.append(_parse_float(path, i, "value", row[4].strip()))
    return _wrap_invariant(
        path,
        SurveyDesign,
        np.asarray(psu, dtype=object),
        np.asarray(stratum, dtype=object),
        np.asarray(weight, dtype=float),
        np.asarray(category, dtype=object),
        np.asarray(value, dtype=float),
    )


def save_design(path: str | Path, design: SurveyDesign) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(("psu_id", "stratum_id", "weight", "category_id", "value"))
        for i in range(len(design.weight)):
            w.writerow(
                (
                    str(design.psu[i]),
                    str(design.stratum[i]),
                    repr(float(design.weight[i])),
                    str(design.category[i]),
                    repr(float(design.value[i])),
                )
            )


def load_polygons(path: str | Path) -> AreaPolygonSet:
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise IngestError(f"{path}: {e}") from e
    except json.JSONDecodeError as e:
        raise IngestError(f"{path}: invalid JSON: {e}") from e
    return _wrap_invariant(path, AreaPolygonSet.from_geojson, data)


def load_margin_pool(paths: Iterable[str | Path], level: MarginLevel) -> tuple[MarginVector, ...]:
    """A pool of replicate margins, one CSV per entry, in the given order."""
    return tuple(load_margin(p, level) for p in paths)


def _tupled(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    return value


def load_plan(path: str | Path) -> SimulationPlan:
    """Simulation plan JSON: inline scenario config or file references.

    The inline form is ``{"scenario": {...generator fields...}}`` with
    optional top-level ``replicates``/``seed`` overrides.  The file-ref
    form names ``truth_t0``, ``truth_t``, ``hierarchy``, ``large_totals``
    CSV paths (relative to the plan file), plus optional ``design``,
    ``aux_pool`` (list of margin CSVs), ``strategies``, ``replicates``,
    ``seed``, ``quantile_cutoff``, and ``target_time``.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise IngestError(f"{path}: {e}") from e
    except json.JSONDecodeError as e:
        raise IngestError(f"{path}: invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise IngestError(f"{path}: plan must be a JSON object")

    if "scenario" in data:
        raw = dict(data["scenario"])
        for key in ("replicates", "seed"):
            if key in data:
                raw[key] = data[key]
        fields = {k: _tupled(v) for k, v in raw.items()}
        try:
            cfg = ScenarioConfig(**fields)
        except (TypeError, ValueError) as e:
            raise IngestError(f"{path}: bad scenario config: {e}") from e
        return build_scenario(cfg)

    required = ("truth_t0", "truth_t", "hierarchy", "large_totals")
    missing = [k for k in required if k not in data]
    if missing:
        raise IngestError(f"{path}: plan missing keys: {missing}")
    base = path.parent
    target_time = int(data.get("target_time", 1))
    truth_t0 = load_composition(base / data["truth_t0"], int(data.get("base_time", 0)))
    truth_t = load_composition(base / data["truth_t"], target_time)
    hierarchy = load_hierarchy(base / data["hierarchy"])
    large_totals = load_margin(
        base / data["large_totals"], MarginLevel.LARGE_AREA, target_time
    )
    design = load_design(base / data["design"]) if "design" in data else None
    aux_pool = tuple(
        load_margin(base / p, MarginLevel.SMALL_AREA, target_time)
        for p in data.get("aux_pool", [])
    )
    try:
        return SimulationPlan(
            replicates=int(data.get("replicates", 500)),
            seed=int(data.get("seed", 0)),
            truth_t0=truth_t0,
            truth_t=truth_t,
            hierarchy=hierarchy,
            large_totals_t=large_totals,
            strategies=tuple(data.get("strategies", ("fixed", "dynamic", "hybrid"))),
            survey_design=design,
            aux_pool=aux_pool,
            quantile_cutoff=float(data.get("quantile_cutoff", 0.25)),
        )
    except ValueError as e:
        raise IngestError(f"{path}: {e}") from e
