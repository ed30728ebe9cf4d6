from __future__ import annotations

import _thread
import contextlib
import dataclasses
import os
import threading
import time
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np
import pytest
from hypothesis import settings

from spreekit import AreaHierarchy, Composition, Households, MarginLevel, MarginVector

FIXTURES = Path(__file__).parent.parent / "fixtures"

# Every property draws the same examples on every run: derandomised, with no
# example database and no per-example deadline.
settings.register_profile("spreekit", derandomize=True, database=None, deadline=None)
settings.load_profile("spreekit")


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@contextlib.contextmanager
def another_thread_alive(raw: bool = False):
    """A second thread, alive until the block ends; with ``raw``, one
    started through ``_thread``, which ``threading`` does not list."""
    started, release = threading.Event(), threading.Event()

    def run():
        started.set()
        release.wait()

    before = _thread._count()
    if raw:
        _thread.start_new_thread(run, ())
    else:
        thread = threading.Thread(target=run)
        thread.start()
    started.wait()
    try:
        yield
    finally:
        release.set()
        # A raw thread cannot be joined: wait until Python stops counting it.
        while _thread._count() > before:
            time.sleep(0.001)


def fake_cpus(monkeypatch, n: int) -> None:
    """Make this process seem to run on ``n`` CPUs, the count every split
    of :mod:`spreekit._fork` reads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def random_positive_table(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Strictly positive table with entries spread across a few magnitudes."""
    return np.exp(rng.uniform(0.0, 6.0, size=(rows, cols)))


def make_composition(counts, reference_time: int = 0) -> Composition:
    counts = np.asarray(counts, dtype=float)
    areas = tuple(f"a{i + 1}" for i in range(counts.shape[0]))
    cats = tuple(f"c{j + 1}" for j in range(counts.shape[1]))
    return Composition(areas, cats, counts, reference_time)


def make_margin(values, level: MarginLevel, prefix: str, reference_time: int = 0) -> MarginVector:
    values = np.asarray(values, dtype=float)
    ids = tuple(f"{prefix}{i + 1}" for i in range(values.size))
    return MarginVector(ids, values, level, reference_time)


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Same shape and dtype, equal bit for bit except that NaN matches NaN."""
    nan = np.isnan(want)
    return bool(
        got.shape == want.shape
        and got.dtype == want.dtype
        and np.array_equal(np.isnan(got), nan)
        and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
    )


def report_bits(x):
    """``x`` (a report, a dataclass, or containers of arrays and scalars) as
    nested tuples in which every array is its dtype, shape and bytes and
    every float its hex: equal only when equal bit for bit."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return tuple((f.name, report_bits(getattr(x, f.name))) for f in dataclasses.fields(x))
    if isinstance(x, dict):
        return tuple((k, report_bits(v)) for k, v in x.items())
    if isinstance(x, (tuple, list)):
        return tuple(report_bits(v) for v in x)
    if isinstance(x, float):
        return x.hex()
    return x


def two_region_hierarchy(n_areas: int) -> AreaHierarchy:
    """First half of the areas in region g1, the rest in g2."""
    half = n_areas // 2
    pairs = [(f"a{i + 1}", "g1" if i < half else "g2") for i in range(n_areas)]
    return AreaHierarchy.from_pairs(pairs)


class Household(NamedTuple):
    """One household as a test writes it down; ``deprivations`` maps each
    indicator to True, False or None (missing)."""

    household_id: str
    area_id: str
    subgroup_id: str
    size: int
    deprivations: Mapping[str, bool | None]
    weight: float = 1.0


def household_table(
    records: Sequence[Household], indicators: Sequence[str] | None = None
) -> Households:
    """The household table of ``records``; indicators default to the first record's."""
    if indicators is None:
        indicators = tuple(records[0].deprivations) if records else ()
    flags = [[r.deprivations[i] for i in indicators] for r in records]
    shape = (len(records), len(indicators))
    return Households(
        tuple(r.household_id for r in records),
        tuple(r.area_id for r in records),
        tuple(r.subgroup_id for r in records),
        [r.size for r in records],
        [r.weight for r in records],
        tuple(indicators),
        np.array([[bool(f) for f in row] for row in flags], dtype=bool).reshape(shape),
        np.array([[f is None for f in row] for row in flags], dtype=bool).reshape(shape),
    )
