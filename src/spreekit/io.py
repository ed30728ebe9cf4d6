"""CSV and JSON ingestion for every file schema, plus matching writers.

Every CSV loader reads its file in blocks of ``_BLOCK_ROWS`` rows and
checks each block's columns (ids, numbers, flags, unique keys) before it
keeps them; unique keys are checked against every earlier block too.  The
first bad line in file order raises :class:`IngestError`
``<file>:<line>: <message>`` (line 1 is the header, each CSV record one
line; in a line with several faults, the check the loader states first),
and no later block is read; a fault of the built object as a whole names
the file only.  Fields may be CSV-quoted and are stripped of surrounding
whitespace.  Numbers and flags are converted from the raw text; a stripped
copy is made only when the raw text is rejected.  A pixels file is first
parsed by numpy's text reader (:func:`_numbers`), which takes only plain
numbers, to the same bits; the csv path reads any other file, and names
any fault.

Memory: a load holds the object it returns, one block of rows and, where
keys must be unique, the keys read so far; the object's own constructor
may then copy its columns once (``Households`` keeps the loader's
columns).  Repeated ids (areas, subgroups, categories, strata, PSUs,
large areas) share one ``str`` per distinct value.  :func:`load_households`
and :func:`load_pixels` read a large file's byte ranges in forked children
by the split rule of :mod:`spreekit._fork` (:func:`_load`); each child
holds its range's parsed blocks until it sends them, and this process
takes one block from them at a time.  The object and any error are those
of one process.  numpy's reader holds each range's rows whole, a child
until it has sent them; this process joins the ranges' rows into one array
(one range is not copied), whose columns the table views.

Every CSV spreekit writes has one dialect, :func:`csv_text`: float columns
as ``repr`` of Python floats (so save then load is an identity), other
fields by ``str``, quoted with ``"`` doubled when they contain ``,``, ``"``,
``\\n`` or ``\\r``; LF line ends in command outputs, CRLF in ``save_*`` files;
rows in the object's id order.  :func:`csv_text` yields its text one block
of rows at a time, and :func:`write_text` writes those blocks as they come,
atomically, so no whole-file string is built.

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

import contextlib
import csv
import io
import json
import os
import sys
from array import array
from fractions import Fraction
from itertools import islice, repeat
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from spreekit.bootstrap import SurveyDesign
from spreekit.composition import (
    AreaHierarchy,
    Composition,
    MarginLevel,
    MarginVector,
    check_integer,
)
from spreekit._fork import forked, split
from spreekit.geo import AreaPolygonSet, PixelTable
from spreekit.mpi import Households, MpiProfile, _people
from spreekit.scenario import ScenarioConfig, build_scenario
from spreekit.simulation import SimulationPlan


class IngestError(ValueError):
    """Schema or invariant violation, with file and line context."""


# Rows per block, in which every CSV is read and written.  Below the
# collector's first-generation threshold (700 allocations by default), so a
# block's row lists are mostly freed before a collection can promote them:
# at 4096 rows a 150k-row load ran about 170 young and two full collections.
_BLOCK_ROWS = 512
# The fewest rows :func:`csv_text` gives a process.  On two CPUs, beside a
# 64 MiB heap, a split of bootstrap's cell table in two saves 9% at 1024
# rows (one block each) and 27% at 2048; ranges of 1024 rows leave room
# for a slower fork on a loaded host.
_ROWS_PER_PROCESS = 1024
# The fewest bytes :func:`load_households` and :func:`load_pixels` give a
# process.  On two CPUs, a split in two is even with one process at 256 KiB
# files (128 KiB a range), and saves 15-22% at 512 KiB and 22-31% at 1 MiB.
_BYTES_PER_PROCESS = 256 * 1024


def _fail(path: Path, line: int, message: str) -> None:
    raise IngestError(f"{path}:{line}: {message}")


class _Span(io.RawIOBase):
    """A raw binary file read 8 KiB at most at a time, from where it stands
    up to byte ``end``, or to its end where ``end`` is None.  ``lines``
    counts the lines read, a last one without ``\\n`` too; it is None after
    a whole read with no ``\\n``, as a line that long may hold a field longer
    than the ``csv`` module takes (:func:`csv.field_size_limit`)."""

    ends: int | None = 0
    tail = False  # whether the last byte read is not \n

    def __init__(self, raw: io.RawIOBase, end: int | None) -> None:
        self.raw, self.left = raw, (sys.maxsize if end is None else end) - raw.tell()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        view = memoryview(buffer)[: min(max(self.left, 0), 1 << 13)]
        n = self.raw.readinto(view)
        self.left -= n
        chunk = view[:n].tobytes()
        ends = chunk.count(b"\n")
        if self.ends is not None:
            self.ends = None if n == len(view) > 0 and not ends else self.ends + ends
        if n:
            self.tail = chunk[-1] != ord("\n")
        return n

    @property
    def lines(self) -> int | None:
        return None if self.ends is None else self.ends + self.tail


def _csv_blocks(path: Path, lo: int = 0, hi: int | None = None) -> Iterator[list[list[str]]]:
    """The first row of the file's bytes ``lo`` to ``hi - 1`` (to its end
    where ``hi`` is None) alone, no row where there is none, then its other
    rows ``_BLOCK_ROWS`` at a time, read as they are parsed.  A record the
    ``csv`` module rejects, such as one with an overlong field, ends them:
    the rows before it in its block come as a last block, then IngestError
    names its line, counted from ``lo``.  A range with an end is parsed
    ``strict``, so that one cut inside a quoted field fails rather than
    close the quote."""
    done, block = 0, []  # records in the blocks yielded; the block being read
    try:
        with open(path, "rb", buffering=0) as raw:
            if lo:
                raw.seek(lo)
            binary = io.BufferedReader(raw if hi is None else _Span(raw, hi))
            rows = csv.reader(
                io.TextIOWrapper(binary, encoding="utf-8", newline=""), strict=hi is not None
            )
            block.extend(islice(rows, 1))  # extend keeps the rows read before an error
            while True:
                yield block
                done += len(block)
                block = []
                block.extend(islice(rows, _BLOCK_ROWS))
                if not block:
                    return
    except OSError as e:
        raise IngestError(f"{path}: {e}") from e
    except csv.Error as e:
        if block:
            yield block
        _fail(path, done + len(block) + 1, str(e))


def _bounds(path: Path) -> list[int | None]:
    """Where the file's byte ranges start, then its size: the ranges of at
    least :data:`_BYTES_PER_PROCESS` bytes :func:`~spreekit._fork.split`
    gives, each cut moved to just after the next ``\\n``.  ``[0, None]``
    for one range."""
    with contextlib.suppress(OSError):
        size = os.stat(path).st_size
        bounds = split(size, _BYTES_PER_PROCESS)
        if len(bounds) > 2:
            with open(path, "rb") as f:
                cuts = {0, size}
                for cut in bounds[1:-1]:
                    f.seek(cut - 1)
                    f.readline()
                    cuts.add(min(f.tell(), size))
            return sorted(cuts)
    return [0, None]


def _quoted(text: str) -> str:
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _is_float(column: Sequence[Any]) -> bool:
    if isinstance(column, np.ndarray):
        return column.dtype.kind == "f"
    return all(isinstance(v, (float, np.floating)) for v in column)


def csv_text(
    header: Sequence[str], columns: Iterable[Sequence[Any]], line_end: str
) -> Iterator[str]:
    """The CSV text of equal-length ``columns`` under ``header``: the header
    line, then ``_BLOCK_ROWS`` rows at a time.

    The rows are split into contiguous ranges of whole blocks (the last also
    takes a part block), each of at least :data:`_ROWS_PER_PROCESS` rows, by
    the split rule of :mod:`spreekit._fork`.  When the first block of rows
    is asked for, a child is forked for each range but the first.  This
    process yields the first range block by block; each child formats its
    range with the same code and sends its blocks, which are yielded one at
    a time, in range order.  The text, and any error, is that of one
    process.  Every child has ended when the generator is exhausted or
    closed.
    """
    columns = list(columns)
    lengths = {len(column) for column in columns}
    if len(columns) != len(header) or len(lengths) > 1:
        raise ValueError(f"{len(header)} header fields for columns of lengths {sorted(lengths)}")
    yield ",".join(map(_quoted, header)) + line_end
    floats = list(map(_is_float, columns))

    def blocks(lo: int, hi: int) -> Iterator[str]:
        for start in range(lo, hi, _BLOCK_ROWS):
            fields = [
                map(repr, np.asarray(block, dtype=float).tolist()) if is_float
                else map(_quoted, map(str, block))
                for column, is_float in zip(columns, floats)
                for block in [column[start : start + _BLOCK_ROWS]]
            ]
            yield line_end.join(map(",".join, zip(*fields))) + line_end

    # Whole blocks, at least _ROWS_PER_PROCESS rows a range; the last also
    # takes the part block.
    rows = max(lengths, default=0)
    fewest = -(-_ROWS_PER_PROCESS // _BLOCK_ROWS)
    bounds = [_BLOCK_ROWS * b for b in split(rows // _BLOCK_ROWS, fewest)[:-1]]
    bounds.append(rows)
    with forked(blocks, bounds, "rows") as children:
        yield from blocks(bounds[0], bounds[1])
        for text in children:
            yield from text


def write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, or its chunks as they are produced, as UTF-8 to
    ``<path>.tmp``, then move that file to ``path``.  If producing or
    writing a chunk fails, ``<path>.tmp`` is removed, ``path`` is left as
    it was and a generator of chunks is closed."""
    tmp = Path(f"{path}.tmp")
    chunks = (text,) if isinstance(text, str) else text
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        getattr(chunks, "close", lambda: None)()
        tmp.unlink(missing_ok=True)
        raise


def long_ids(rows: Sequence[str], columns: Sequence[str]) -> tuple[list[str], tuple[str, ...]]:
    """The row and column id of each cell of a table, row by row."""
    return [r for r in rows for _ in columns], tuple(columns) * len(rows)


_COMPOSITION_HEADER = ("area_id", "category_id", "count")
_MARGIN_HEADER = ("id", "value")
_HIERARCHY_HEADER = ("small_id", "large_id")
_HOUSEHOLD_HEADER = ("household_id", "area_id", "subgroup_id", "size", "weight")
_PROJECTIONS_HEADER = ("large_id", "year", "population")
_AUX_HEADER = ("small_id", "year", "population")
_PIXELS_HEADER = ("lon", "lat", "value")
_DESIGN_HEADER = ("psu_id", "stratum_id", "weight", "category_id", "value")


def composition_csv(c: Composition, line_end: str) -> Iterator[str]:
    """The long ``area_id,category_id,count`` form of a composition."""
    columns = (*long_ids(c.area_ids, c.category_ids), c.counts.ravel())
    return csv_text(_COMPOSITION_HEADER, columns, line_end)


def margin_csv(ids: Sequence[str], values: np.ndarray, line_end: str) -> Iterator[str]:
    """The ``id,value`` form of a vector."""
    return csv_text(_MARGIN_HEADER, (ids, values), line_end)


def _wrap_invariant(path: Path, build, *args):
    try:
        return build(*args)
    except ValueError as e:
        raise IngestError(f"{path}: {e}") from e


class _Columns:
    """One block of a CSV file's data rows as columns, and the first fault in them.

    ``start`` is the block's first data row in the file.  ``n`` is the row
    of the earliest fault found so far in the block.  A check keeps a fault
    only above it, so the fault kept is the one a row-by-row walk running
    the checks in their stated order would meet first; as every earlier
    block was clean, it is also the file's first fault.  Columns are tuples
    because the garbage collector stops tracking a tuple of strings, numbers
    or flags after one pass, where it would walk a list on every full
    collection.
    """

    def __init__(self, path: Path, rows: list[list[str]], width: int, start: int) -> None:
        self.path = path
        self.start = start
        self.n = len(rows)
        self.fault: str | None = None
        widths = list(map(len, rows))
        if widths.count(width) != len(rows):
            i = next(i for i, w in enumerate(widths) if w != width)
            self.flag(i, f"expected {width} columns, got {widths[i]}")
        self._raw = list(zip(*rows[: self.n])) or [()] * width

    def flag(self, i: int, message: str) -> None:
        """Record a fault at data row ``i`` unless an earlier one is known."""
        if i < self.n:
            self.n, self.fault = i, message

    def raw(self, k: int) -> Sequence[str]:
        return self._raw[k][: self.n]

    def text(self, k: int) -> tuple[str, ...]:
        return tuple(map(str.strip, self.raw(k)))

    def ids(self, k: int, pool: dict[str, str]) -> tuple[str, ...]:
        """``text(k)`` with one ``str`` per distinct value, kept in ``pool``."""
        column = self.text(k)
        return tuple(map(pool.setdefault, column, column))

    def check(self, bad: Sequence[bool] | np.ndarray, message: Callable[[int], str]) -> None:
        """Flag the first row where ``bad`` holds."""
        hits = np.flatnonzero(bad)
        if hits.size:
            self.flag(int(hits[0]), message(int(hits[0])))

    def nonempty(self, message: str, *columns: Sequence[str]) -> None:
        for column in columns:
            if "" in column:
                self.flag(column.index(""), message)

    def unique(self, keys: Sequence, seen: dict, message: Callable[[int, int], str]) -> None:
        """Flag the first key that is in ``seen`` or earlier in ``keys``;
        ``message`` gets its row and the line of its first occurrence.

        ``seen`` holds the keys of the earlier blocks, one per data row in
        file order, and takes this block's.
        """
        before = len(seen)
        seen.update(zip(keys, repeat(None)))
        if len(seen) - before < len(keys):
            first = {key: line for line, key in enumerate(islice(seen, before), 2)}
            for i, key in enumerate(keys):
                if key in first:
                    self.flag(i, message(i, first[key]))
                    break
                first[key] = self.start + i + 2

    def parse(
        self, column: Sequence[str], convert: Callable[[str], Any], message: Callable[[str], str]
    ) -> tuple:
        """``convert`` of each entry up to the first one it rejects."""
        try:
            return tuple(map(convert, column))
        except (ValueError, KeyError):
            pass
        for i, raw in enumerate(column):
            try:
                convert(raw)
            except (ValueError, KeyError):
                self.flag(i, message(raw))
                return tuple(map(convert, column[:i]))

    def floats(self, k: int, field: str) -> np.ndarray:
        """Column ``k`` as finite floats."""
        raw = self.raw(k)
        try:
            values = np.fromiter(map(float, raw), float, len(raw))
        except ValueError:
            parsed = self.parse(self.text(k), float, lambda v: f"{field} is not a number: {v!r}")
            values = np.array(parsed, dtype=float)
        nonfinite = ~np.isfinite(values)
        self.check(nonfinite, lambda i: f"{field} must be finite, got {raw[i].strip()!r}")
        return values

    def done(self) -> None:
        if self.fault is not None:
            _fail(self.path, self.start + self.n + 2, self.fault)


def _read(
    path: Path, expected: str, hi: int | None = None
) -> tuple[list[str], Iterator[list[list[str]]]]:
    """The file's stripped header and its data blocks, up to byte ``hi``
    where it is given; ``expected`` names the header an empty file lacks."""
    blocks = _csv_blocks(path, 0, hi)
    first = next(blocks)
    if not first:
        _fail(path, 1, f"empty file, expected {expected}")
    return [h.strip() for h in first[0]], blocks


def _column_blocks(
    path: Path, blocks: Iterator[list[list[str]]], width: int, required: str | None = None
) -> Iterator[_Columns]:
    """Each data block as columns; ``required`` names what needs some rows."""
    start = 0
    for rows in blocks:
        yield _Columns(path, rows, width, start)
        start += len(rows)
    if required and not start:
        _fail(path, 2, f"{required} has no data rows")


def _check_header(path: Path, got: Sequence[str], header: Sequence[str]) -> None:
    if list(got) != list(header):
        _fail(path, 1, f"bad header {','.join(got)!r}, expected {','.join(header)!r}")


def _columns(path: Path, header: Sequence[str], required: str | None = None) -> Iterator[_Columns]:
    """The file's data blocks under ``header``; ``required`` names what needs some rows."""
    got, blocks = _read(path, "header " + ",".join(header))
    _check_header(path, got, header)
    return _column_blocks(path, blocks, len(header), required)


# What a load sets up for a header: ``parse(t)`` checks one block of data
# rows (IngestError at its first fault) and gives its parts; ``keep(*parts)``
# appends them to the columns, and ``absorb(*parts)`` those of a block that
# a child parsed; ``done()`` builds the object from the columns.
_Begun = tuple[Callable[[_Columns], tuple], Callable[..., None], Callable[..., None], Callable]


def _load(path: Path, expected: str, begin: Callable[[list[str]], _Begun]) -> Any:
    """The object that ``begin(header)`` sets up the load of, for the
    file's stripped header (``expected`` names the header an empty file
    lacks).

    A file of at least two ranges of :data:`_BYTES_PER_PROCESS` bytes is cut
    into byte ranges by the split rule of :mod:`spreekit._fork`
    (:func:`_bounds`).  This process reads the header, forks a child for
    each range but the first, and reads the first range.  Each child sends
    each parsed block, which this process absorbs in file order.  If any
    of this raises IngestError or UnicodeDecodeError (a range cut inside a
    quoted field, a fault, a unique key in two ranges), or a child is lost,
    the file is read again in one process, whose object or error is the
    one given.
    """
    bounds = _bounds(path)
    if len(bounds) > 2:
        with contextlib.suppress(IngestError, UnicodeDecodeError, ChildProcessError):
            return _load_ranges(path, expected, begin, bounds)
    return _load_ranges(path, expected, begin, [0, None])


def _numbers(path: Path, header: Sequence[str], bounds: list[int | None]) -> np.ndarray | None:
    """The file's data rows parsed by numpy, as a view with one row a
    column of the file; or None, where the csv path must read it
    (:func:`_load`).

    Each byte range of ``bounds`` is parsed as it is read by one
    ``np.loadtxt`` call, in a child forked for each range but the first as
    in :func:`_load`.  The rows are taken only under ``header`` and where
    each line of every range gives one row of ``len(header)`` numbers (numpy
    skips a blank line, which the csv path rejects); an empty range, any
    error or a lost child gives None.  numpy rejects a quote, ``_``, a
    non-ASCII digit and a lone ``\\r``, and converts as ``float`` does, with
    ``PyOS_string_to_double``, so every value taken has the csv path's bits."""
    first = ",".join(header).encode()

    def rows(lo: int, hi: int | None) -> list[np.ndarray | None]:
        with open(path, "rb", buffering=0) as raw:
            raw.seek(lo)
            span = _Span(raw, hi)
            binary = io.BufferedReader(span)
            if not lo and binary.readline(len(first) + 2) not in (first + b"\n", first + b"\r\n"):
                return [None]
            # A first row, so numpy does not warn that it found none.
            if binary.peek(1)[:1] in (b"", b"\n", b"\r"):
                return [None]
            # Lines end at \n alone: numpy fails on a \r inside one.
            text = io.TextIOWrapper(binary, encoding="utf-8", newline="\n")
            table = np.loadtxt(text, delimiter=",", comments=None, dtype=float, ndmin=2)
        lines = span.lines
        whole = lines is not None and len(table) == lines - (not lo)
        return [table if whole and table.shape[1] == len(header) else None]

    try:
        with forked(rows, bounds, "bytes") as children:
            parts = rows(bounds[0], bounds[1])
            for child in children:
                if parts[-1] is None:
                    break
                parts.extend(child)
    except Exception:  # whatever numpy raises, the csv path gives the error
        return None
    if parts[-1] is None:
        return None
    return (parts[0] if len(parts) == 1 else np.concatenate(parts)).T


def _load_ranges(
    path: Path, expected: str, begin: Callable[[list[str]], _Begun], bounds: list[int | None]
) -> Any:
    header, blocks = _read(path, expected, bounds[1])
    parse, keep, absorb, done = begin(header)

    def parsed(lo: int, hi: int) -> Iterator[tuple]:
        return map(parse, _column_blocks(path, _csv_blocks(path, lo, hi), len(header)))

    with forked(parsed, bounds, "bytes") as children:
        for t in _column_blocks(path, blocks, len(header)):
            keep(*parse(t))
        for parts in children:
            for part in parts:
                absorb(*part)
    return done()


def load_composition(path: str | Path, reference_time: int = 0) -> Composition:
    path = Path(path)
    seen: dict[tuple[str, str], None] = {}
    # Id positions in order of first appearance; absent cells stay zero.
    areas: dict[str, int] = {}
    categories: dict[str, int] = {}
    row, col, counts = array("q"), array("q"), array("d")
    for t in _columns(path, _COMPOSITION_HEADER, "composition"):
        area, category, raw = t.text(0), t.text(1), t.raw(2)
        t.nonempty("empty area_id or category_id", area, category)
        count = t.floats(2, "count")
        t.check(
            count < 0, lambda i: f"negative count {raw[i].strip()} for ({area[i]},{category[i]})"
        )
        t.unique(
            list(zip(area, category)),
            seen,
            lambda i, first: f"duplicate cell ({area[i]},{category[i]}), first at line {first}",
        )
        t.done()
        row.extend(areas.setdefault(a, len(areas)) for a in area)
        col.extend(categories.setdefault(c, len(categories)) for c in category)
        counts.frombytes(count.tobytes())
    table = np.zeros((len(areas), len(categories)))
    table[np.frombuffer(row, np.int64), np.frombuffer(col, np.int64)] = np.frombuffer(counts)
    return _wrap_invariant(
        path, Composition, tuple(areas), tuple(categories), table, reference_time
    )


def save_composition(path: str | Path, c: Composition) -> None:
    write_text(path, composition_csv(c, "\r\n"))


def load_margin(
    path: str | Path,
    level: MarginLevel = MarginLevel.SMALL_AREA,
    reference_time: int = 0,
) -> MarginVector:
    path = Path(path)
    seen: dict[str, None] = {}
    values = array("d")
    for t in _columns(path, _MARGIN_HEADER):
        ids, raw = t.text(0), t.raw(1)
        t.nonempty("empty id", ids)
        t.unique(ids, seen, lambda i, first: f"duplicate id {ids[i]!r}, first at line {first}")
        value = t.floats(1, "value")
        t.check(value < 0, lambda i: f"negative value {raw[i].strip()} for {ids[i]!r}")
        t.done()
        values.frombytes(value.tobytes())
    # Every row added one key, so ``seen`` holds the ids in file order.
    return _wrap_invariant(
        path, MarginVector, tuple(seen), np.frombuffer(values), level, reference_time
    )


def save_margin(path: str | Path, m: MarginVector) -> None:
    write_text(path, margin_csv(m.ids, m.values, "\r\n"))


def load_hierarchy(path: str | Path) -> AreaHierarchy:
    path = Path(path)
    seen: dict[str, None] = {}
    large: list[str] = []
    pool: dict[str, str] = {}
    for t in _columns(path, _HIERARCHY_HEADER, "hierarchy"):
        small, big = t.text(0), t.ids(1, pool)
        t.nonempty("empty small_id or large_id", small, big)
        t.unique(
            small, seen, lambda i, first: f"duplicate small_id {small[i]!r}, first at line {first}"
        )
        t.done()
        large.extend(big)
    return _wrap_invariant(path, AreaHierarchy.from_pairs, list(zip(seen, large)))


def save_hierarchy(path: str | Path, h: AreaHierarchy) -> None:
    columns = (h.small_ids, tuple(h.assignments.values()))
    write_text(path, csv_text(_HIERARCHY_HEADER, columns, "\r\n"))


# Flag codes: not deprived, deprived, missing.
_FLAGS = {"0": 0, "1": 1, "": 2}


def load_households(path: str | Path, profile: MpiProfile | None = None) -> Households:
    """The household table, with per-indicator deprivation flags.

    With a profile supplied, the ``ind_`` columns must cover exactly the
    profile's indicators.  A large file is read in several processes
    (:func:`_load`); the table, or the error, is that of one process.
    """
    path = Path(path)

    def begin(header: list[str]) -> _Begun:
        if tuple(header[: len(_HOUSEHOLD_HEADER)]) != _HOUSEHOLD_HEADER:
            _fail(path, 1, f"header must start with {','.join(_HOUSEHOLD_HEADER)}")
        indicator_cols = header[len(_HOUSEHOLD_HEADER) :]
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
        seen: dict[str, None] = {}
        pool: dict[str, str] = {}
        areas: list[str] = []
        subgroups: list[str] = []
        # Sizes stay Python ints, so the table's own check sees each one whole.
        sizes: list[int] = []
        weights, codes = array("d"), array("b")

        def parse(t: _Columns) -> tuple:
            hid, area, subgroup = t.text(0), t.ids(1, pool), t.ids(2, pool)
            t.nonempty("empty household_id or area_id", hid, area)
            t.unique(
                hid, seen,
                lambda i, first: f"duplicate household_id {hid[i]!r}, first at line {first}",
            )
            size = t.parse(t.raw(3), int, lambda raw: f"size is not an integer: {raw!r}")
            weight = t.floats(4, "weight")
            flag_columns = []
            for k, indicator in enumerate(indicators, start=len(_HOUSEHOLD_HEADER)):
                try:
                    flag_columns.append(bytes(map(_FLAGS.get, t.raw(k))))
                except TypeError:  # a field that is not a flag code as it stands
                    flag_columns.append(bytes(t.parse(
                        t.text(k),
                        _FLAGS.__getitem__,
                        lambda raw: f"ind_{indicator} must be 0, 1, or empty, got {raw!r}",
                    )))
            t.check([s < 1 for s in size], lambda i: f"household size must be >= 1, got {size[i]}")
            t.check(~(weight > 0), lambda i: f"weight must be positive, got {float(weight[i])}")
            t.done()
            flags = np.frombuffer(b"".join(flag_columns), np.int8).reshape(len(indicators), t.n)
            return hid, area, subgroup, size, weight.tobytes(), flags.T.tobytes()

        def keep(hid, area, subgroup, size, weight: bytes, flags: bytes) -> None:
            # ``parse`` has put the ids in ``seen``.
            areas.extend(area)
            subgroups.extend(subgroup)
            sizes.extend(size)
            weights.frombytes(weight)
            codes.frombytes(flags)

        def absorb(hid, area, subgroup, *rest) -> None:
            before = len(seen)
            seen.update(zip(hid, repeat(None)))
            if len(seen) - before < len(hid):
                raise IngestError(f"{path}: a household_id is in two ranges")
            # One str per distinct id, as in one process.
            keep(hid, map(pool.setdefault, area, area), map(pool.setdefault, subgroup, subgroup),
                 *rest)

        def done() -> Households:
            # ``t.unique`` has proved the keys unique, so the table need not.
            household_ids = tuple(seen)
            flag_codes = np.frombuffer(codes, dtype=np.int8).reshape(len(seen), len(indicators))
            flags, missing = flag_codes == 1, flag_codes == 2
            # The table keeps its columns uncopied: free the key dict and the codes first.
            seen.clear()
            del flag_codes, codes[:]
            households = _wrap_invariant(
                path, Households._adopt, household_ids, areas, subgroups, sizes,
                np.frombuffer(weights), indicators, flags, missing,
            )
            for column in areas, subgroups, sizes:  # the table holds its own tuples and array
                column.clear()
            _wrap_invariant(path, _people, households)
            return households

        return parse, keep, absorb, done

    return _load(path, "household header", begin)


def save_households(path: str | Path, households: Households) -> None:
    flag_text = np.array(list(_FLAGS))[np.where(households.missing, 2, households.flags)]
    columns = (
        households.household_ids, households.area_ids, households.subgroup_ids,
        households.size, households.weight, *flag_text.T,
    )
    header = (*_HOUSEHOLD_HEADER, *(f"ind_{i}" for i in households.indicators))
    write_text(path, csv_text(header, columns, "\r\n"))


def _load_json(path: Path) -> Any:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise IngestError(f"{path}: {e}") from e
    except json.JSONDecodeError as e:
        raise IngestError(f"{path}: invalid JSON: {e}") from e


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
    data = _load_json(path)
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
    write_text(path, json.dumps(data, indent=2) + "\n")


def _load_by_year(
    path: str | Path, header: tuple[str, str, str], level: MarginLevel
) -> dict[int, MarginVector]:
    path = Path(path)
    seen: dict[tuple[int, str], None] = {}
    by_year: dict[int, dict[str, float]] = {}
    for t in _columns(path, header):
        ident = t.text(0)
        t.nonempty(f"empty {header[0]}", ident)
        year = t.parse(t.raw(1), int, lambda raw: f"year is not an integer: {raw!r}")
        raw = t.raw(2)
        value = t.floats(2, header[2])
        t.check(value < 0, lambda i: f"negative {header[2]} {raw[i]!r}")
        t.unique(
            list(zip(year, ident)),
            seen,
            lambda i, first: f"duplicate ({ident[i]},{year[i]}), first at line {first}",
        )
        t.done()
        for y, i, v in zip(year, ident, value.tolist()):
            by_year.setdefault(y, {})[i] = v
    return {
        y: _wrap_invariant(
            path, MarginVector, tuple(e), np.asarray(list(e.values())), level, y
        )
        for y, e in sorted(by_year.items())
    }


def load_projections(path: str | Path) -> dict[int, MarginVector]:
    """Large-area population projections, one margin per year."""
    return _load_by_year(path, _PROJECTIONS_HEADER, MarginLevel.LARGE_AREA)


def load_aux_populations(path: str | Path) -> dict[int, MarginVector]:
    """Auxiliary small-area population estimates, one margin per year."""
    return _load_by_year(path, _AUX_HEADER, MarginLevel.SMALL_AREA)


def save_by_year(
    path: str | Path, margins: Mapping[int, MarginVector], header: tuple[str, str, str]
) -> None:
    rows = [(ident, str(year), value) for year in sorted(margins)
            for ident, value in zip(margins[year].ids, margins[year].values.tolist())]
    columns = list(zip(*rows)) or [()] * len(header)  # no rows: empty columns, not none
    write_text(path, csv_text(header, columns, "\r\n"))


def load_pixels(path: str | Path) -> PixelTable:
    """The pixel table.  A large file is read in several processes.  A
    file of plain numbers is parsed by numpy (:func:`_numbers`); any other,
    or a value the table rejects, is read again by the csv path
    (:func:`_load`).  The table, or the error, is that of the csv path in
    one process."""
    path = Path(path)
    columns = _numbers(path, _PIXELS_HEADER, _bounds(path))
    if columns is not None:
        with contextlib.suppress(ValueError):  # the csv path names its line
            return PixelTable(*columns)

    def begin(header: list[str]) -> _Begun:
        _check_header(path, header, _PIXELS_HEADER)
        columns = array("d"), array("d"), array("d")

        def parse(t: _Columns) -> tuple[bytes, bytes, bytes]:
            x = t.floats(0, "lon")
            y = t.floats(1, "lat")
            raw = t.raw(2)
            v = t.floats(2, "value")
            t.check(v < 0, lambda i: f"negative value {raw[i]!r}")
            t.done()
            return x.tobytes(), y.tobytes(), v.tobytes()

        def keep(*parts: bytes) -> None:
            for column, part in zip(columns, parts):
                column.frombytes(part)

        def done() -> PixelTable:
            return _wrap_invariant(path, PixelTable, *map(np.frombuffer, columns))

        return parse, keep, keep, done

    return _load(path, "header " + ",".join(_PIXELS_HEADER), begin)


def save_pixels(path: str | Path, px: PixelTable) -> None:
    write_text(path, csv_text(_PIXELS_HEADER, (px.lon, px.lat, px.value), "\r\n"))


def load_design(path: str | Path) -> SurveyDesign:
    path = Path(path)
    pool: dict[str, str] = {}
    psu: list[str] = []
    stratum: list[str] = []
    category: list[str] = []
    weight, value = array("d"), array("d")
    for t in _columns(path, _DESIGN_HEADER, "survey design"):
        ids = t.ids(0, pool), t.ids(1, pool), t.ids(3, pool)
        t.nonempty("empty psu_id, stratum_id, or category_id", *ids)
        w = t.floats(2, "weight")
        v = t.floats(4, "value")
        t.done()
        for column, block in zip((psu, stratum, category), ids):
            column.extend(block)
        weight.frombytes(w.tobytes())
        value.frombytes(v.tobytes())
    return _wrap_invariant(
        path,
        SurveyDesign,
        np.asarray(psu, dtype=object),
        np.asarray(stratum, dtype=object),
        np.frombuffer(weight),
        np.asarray(category, dtype=object),
        np.frombuffer(value),
    )


def save_design(path: str | Path, design: SurveyDesign) -> None:
    columns = (design.psu, design.stratum, design.weight, design.category, design.value)
    write_text(path, csv_text(_DESIGN_HEADER, columns, "\r\n"))


def load_polygons(path: str | Path) -> AreaPolygonSet:
    path = Path(path)
    data = _load_json(path)
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

    The inline form is ``{"scenario": {...}}``.  Its object takes the
    :class:`~spreekit.scenario.ScenarioConfig` fields, each optional:
    ``regions``, ``areas_per_region``, ``region_populations``,
    ``region_growth``, ``base_shares``, ``share_changes``, ``poverty_t0``,
    ``poverty_t``, ``aux_cv``, ``aux_bias_range``, ``aux_pool_size``,
    ``aux_exact``, ``psus_per_region``, ``persons_per_psu``,
    ``replicates``, ``seed``, ``quantile_cutoff`` and ``strategies``; any
    other key is a bad scenario config.  Top-level ``replicates`` and
    ``seed`` override the scenario's; no other top-level key is allowed.

    The file-ref form requires the CSV paths ``truth_t0``, ``truth_t``,
    ``hierarchy`` and ``large_totals`` (relative to the plan file).  It
    takes as options ``design``, ``aux_pool`` (a list of margin CSVs),
    ``strategies``, ``quantile_cutoff``, ``replicates`` (default 500),
    ``seed`` (default 0), ``base_time`` (default 0) and ``target_time``
    (default 1); any other key is an error.  Counts, seeds and times must
    be JSON integers.
    """
    path = Path(path)
    data = _load_json(path)
    if not isinstance(data, dict):
        raise IngestError(f"{path}: plan must be a JSON object")

    required = ("truth_t0", "truth_t", "hierarchy", "large_totals")
    options = ("design", "aux_pool", "strategies", "quantile_cutoff", "replicates", "seed",
               "base_time", "target_time")
    known = ("scenario", "replicates", "seed") if "scenario" in data else (*required, *options)
    if unknown := sorted(set(data) - set(known)):
        raise IngestError(f"{path}: unknown plan keys: {unknown}")

    if "scenario" in data:
        try:
            raw = {**data.pop("scenario"), **data}  # top-level replicates and seed win
            cfg = ScenarioConfig(**{k: _tupled(v) for k, v in raw.items()})
        except (TypeError, ValueError) as e:
            raise IngestError(f"{path}: bad scenario config: {e}") from e
        try:
            return build_scenario(cfg)
        except ValueError as e:
            raise IngestError(f"{path}: {e}") from e

    missing = [k for k in required if k not in data]
    if missing:
        raise IngestError(f"{path}: plan missing keys: {missing}")
    for keys, ok, what in (
        ((*required, "design"), lambda v: isinstance(v, str), "a path string"),
        (("aux_pool", "strategies"),
         lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v), "a list of strings"),
        (("quantile_cutoff",), lambda v: type(v) in (int, float), "a number"),
    ):
        if bad := [k for k in keys if k in data and not ok(data[k])]:
            raise IngestError(f"{path}: {bad[0]} must be {what}")
    base_time = _wrap_invariant(path, check_integer, "base_time", data.get("base_time", 0))
    target_time = _wrap_invariant(path, check_integer, "target_time", data.get("target_time", 1))
    base = path.parent
    truth_t0 = load_composition(base / data["truth_t0"], base_time)
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
        optional = {
            k: cast(data[k])
            for k, cast in (("strategies", tuple), ("quantile_cutoff", float))
            if k in data
        }
        return SimulationPlan(
            replicates=data.get("replicates", 500),
            seed=data.get("seed", 0),
            truth_t0=truth_t0,
            truth_t=truth_t,
            hierarchy=hierarchy,
            large_totals_t=large_totals,
            survey_design=design,
            aux_pool=aux_pool,
            **optional,
        )
    except ValueError as e:
        raise IngestError(f"{path}: {e}") from e
