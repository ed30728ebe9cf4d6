"""Core data model: compositions, margins, and the area hierarchy.

A composition is a non-negative contingency table of population counts over
small areas (rows) and categories of interest (columns).  Small areas nest in
disjoint large areas; margins are carried as labelled vectors.  All types are
immutable after construction.  Every public constructor checks its ids for
duplicates; ids one has checked pass unchecked into the next, and a slice or
concatenation of them is a plain tuple, checked again.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np


class MarginLevel(str, Enum):
    """Which slice of the table a margin vector describes."""

    SMALL_AREA = "small-area"
    LARGE_AREA = "large-area"
    CATEGORY = "category"


def check_integer(name: str, value: object, minimum: int | None = None) -> int:
    """``value`` as an int; ValueError naming ``name`` for a bool, what
    ``operator.index`` refuses, or a value below ``minimum``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    return value


class _Ids(tuple):
    """Unique ``str`` ids: made by :func:`_check_unique`, or by a loader
    that has proved them unique itself."""
    __slots__ = ()


def _check_unique(ids: Sequence[str], what: str) -> tuple[str, ...]:
    """``ids`` as checked ``str`` ids, or ValueError naming ``what`` and the
    repeated ids; ids it has checked before pass through unchanged."""
    if type(ids) is _Ids:
        return ids
    ids = _Ids(map(str, ids))
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        dupes = sorted({i for i in ids if i in seen or seen.add(i)})  # type: ignore[func-returns-value]
        raise ValueError(f"duplicate {what}: {dupes}")
    return ids


def _as_readonly(values, shape_name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise ValueError(f"{shape_name} contains non-finite values")
    if np.logical_or.reduce(arr < 0, axis=None):
        raise ValueError(f"{shape_name} contains negative values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Composition:
    """A x J table of non-negative counts (persons or households).

    Identifiers are opaque strings; their order is the ingestion order and is
    preserved by every operation.  Counts are reals rather than integers
    because raking output and dasymetric estimates are fractional.
    """

    area_ids: tuple[str, ...]
    category_ids: tuple[str, ...]
    counts: np.ndarray
    reference_time: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "area_ids", _check_unique(self.area_ids, "area ids"))
        object.__setattr__(
            self, "category_ids", _check_unique(self.category_ids, "category ids")
        )
        arr = _as_readonly(self.counts, "counts")
        if arr.ndim != 2 or arr.shape != (len(self.area_ids), len(self.category_ids)):
            raise ValueError(
                f"counts shape {arr.shape} does not match "
                f"({len(self.area_ids)}, {len(self.category_ids)})"
            )
        object.__setattr__(self, "counts", arr)

    @property
    def n_areas(self) -> int:
        return len(self.area_ids)

    @property
    def n_categories(self) -> int:
        return len(self.category_ids)

    def total(self) -> float:
        return float(self.counts.sum())


@dataclass(frozen=True)
class AreaHierarchy:
    """Assignment of each small area to exactly one large area.

    ``large_ids`` fixes the ordering of large areas; every large id referenced
    by an assignment must appear there.
    """

    assignments: Mapping[str, str]
    large_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "large_ids", _check_unique(self.large_ids, "large ids"))
        assignments = {str(s): str(l) for s, l in self.assignments.items()}
        known = {l: i for i, l in enumerate(self.large_ids)}
        orphans = sorted({l for l in assignments.values() if l not in known})
        if orphans:
            raise ValueError(f"assignments reference unknown large ids: {orphans}")
        object.__setattr__(self, "assignments", assignments)
        object.__setattr__(self, "_index", {s: known[l] for s, l in assignments.items()})

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "AreaHierarchy":
        """Build from (small_id, large_id) pairs; large order = first appearance."""
        assignments: dict[str, str] = {}
        for small, large in pairs:
            small, large = str(small), str(large)
            if small in assignments:
                raise ValueError(f"small area {small!r} assigned twice")
            assignments[small] = large
        return cls(assignments, tuple(dict.fromkeys(assignments.values())))

    @property
    def small_ids(self) -> tuple[str, ...]:
        return tuple(self.assignments)

    def large_of(self, small_id: str) -> str:
        return self.large_ids[self._large_index((small_id,))[0]]

    def _large_index(self, area_ids: Sequence[str]) -> list[int]:
        """Each area's large area, as its position in ``large_ids``: the one join
        of areas to the hierarchy, a ValueError naming the first 20 it lacks."""
        index: dict[str, int] = self._index  # type: ignore[attr-defined]
        try:
            return [index[a] for a in area_ids]
        except KeyError:
            missing = [a for a in area_ids if a not in index][:20]
            raise ValueError(f"areas not assigned in hierarchy: {missing}") from None

    def group_positions(self, area_ids: Sequence[str]) -> dict[str, np.ndarray]:
        """Positions of ``area_ids`` grouped by large area (large id order)."""
        groups: list[list[int]] = [[] for _ in self.large_ids]
        for pos, k in enumerate(self._large_index(area_ids)):
            groups[k].append(pos)
        return {l: np.asarray(p, dtype=int) for l, p in zip(self.large_ids, groups)}


@dataclass(frozen=True)
class MarginVector:
    """Labelled vector of non-negative totals at one aggregation level."""

    ids: tuple[str, ...]
    values: np.ndarray
    level: MarginLevel
    reference_time: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", _check_unique(self.ids, "margin ids"))
        arr = _as_readonly(self.values, "margin values")
        if arr.ndim != 1 or arr.shape[0] != len(self.ids):
            raise ValueError(
                f"margin values shape {arr.shape} does not match {len(self.ids)} ids"
            )
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "level", MarginLevel(self.level))

    def total(self) -> float:
        return float(self.values.sum())

    def as_dict(self) -> dict[str, float]:
        return {i: float(v) for i, v in zip(self.ids, self.values)}

    def with_values(self, values: np.ndarray) -> "MarginVector":
        return MarginVector(self.ids, values, self.level, self.reference_time)


@dataclass(frozen=True)
class ProbabilityMatrix:
    """Row-normalised composition: within-area category probabilities.

    Rows with zero source population cannot be normalised; they are kept as
    zero rows and listed in ``zero_row_ids`` so samplers can skip them.
    """

    area_ids: tuple[str, ...]
    category_ids: tuple[str, ...]
    probs: np.ndarray
    zero_row_ids: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "area_ids", _check_unique(self.area_ids, "area ids"))
        object.__setattr__(
            self, "category_ids", _check_unique(self.category_ids, "category ids")
        )
        arr = _as_readonly(self.probs, "probabilities")
        if arr.shape != (len(self.area_ids), len(self.category_ids)):
            raise ValueError("probability matrix shape does not match ids")
        if np.any(arr > 1 + 1e-12):
            raise ValueError("probabilities exceed 1")
        zero = set(self.zero_row_ids)
        row_sums = arr.sum(axis=1)
        for i in np.flatnonzero(np.abs(row_sums - 1.0) > 1e-9):
            if self.area_ids[i] not in zero:
                raise ValueError(f"row {self.area_ids[i]!r} sums to {row_sums[i]!r}, expected 1")
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "zero_row_ids", tuple(self.zero_row_ids))


def row_margins(c: Composition) -> MarginVector:
    """Per-area population totals (sum over categories)."""
    return MarginVector(
        c.area_ids, c.counts.sum(axis=1), MarginLevel.SMALL_AREA, c.reference_time
    )


def column_margins(c: Composition) -> MarginVector:
    """Per-category totals over all areas."""
    return MarginVector(
        c.category_ids, c.counts.sum(axis=0), MarginLevel.CATEGORY, c.reference_time
    )


def aggregate_to_large(c: Composition, h: AreaHierarchy) -> Composition:
    """Collapse the small-area rows of ``c`` into large-area rows.

    Every area of ``c`` must be assigned in ``h``; totals are conserved.
    """
    out = np.zeros((len(h.large_ids), c.n_categories))
    np.add.at(out, h._large_index(c.area_ids), c.counts)
    return Composition(h.large_ids, c.category_ids, out, c.reference_time)


def to_probabilities(c: Composition) -> ProbabilityMatrix:
    """Within-area category probabilities; zero-total rows are flagged."""
    totals = c.counts.sum(axis=1)
    zero = totals == 0
    safe = np.where(zero, 1.0, totals)
    probs = c.counts / safe[:, None]
    probs[zero] = 0.0
    flagged = tuple(a for a, z in zip(c.area_ids, zero) if z)
    return ProbabilityMatrix(c.area_ids, c.category_ids, probs, flagged)
