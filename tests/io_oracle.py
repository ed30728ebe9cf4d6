"""The row-by-row CSV loaders that ``spreekit.io`` replaced with one columnar reader.

Kept verbatim as oracles: ``tests/test_io_oracle.py`` checks that every
``spreekit.io`` loader returns the same object, or raises the same
``IngestError`` message, on valid and malformed files.  The one change:
households were one record object each, whose size and weight checks now
run inline before the rows become one household table.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from spreekit.bootstrap import SurveyDesign
from spreekit.composition import AreaHierarchy, Composition, MarginLevel, MarginVector
from spreekit.geo import PixelTable
from spreekit.io import IngestError
from spreekit.mpi import Households, MpiProfile

from conftest import Household, household_table


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
    if not math.isfinite(value):
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


def load_households(path: str | Path, profile: MpiProfile | None = None) -> Households:
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
    records: list[Household] = []
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
        if size < 1:
            _fail(path, None, f"household size must be >= 1, got {size}")
        if not weight > 0:
            _fail(path, None, f"weight must be positive, got {weight}")
        records.append(Household(hid, area, subgroup, size, flags, weight))
    return _wrap_invariant(path, household_table, records, indicators)


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


def _pixel_table(rows: Sequence[tuple[float, float, float]]) -> PixelTable:
    if not rows:
        return PixelTable(np.empty(0), np.empty(0), np.empty(0))
    arr = np.asarray(rows, dtype=float)
    return PixelTable(arr[:, 0], arr[:, 1], arr[:, 2])


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
    return _wrap_invariant(path, _pixel_table, parsed)


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

