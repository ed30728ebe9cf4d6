from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from spreekit import AreaHierarchy, Composition, MarginLevel, MarginVector

FIXTURES = Path(__file__).parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


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


def two_region_hierarchy(n_areas: int) -> AreaHierarchy:
    """First half of the areas in region g1, the rest in g2."""
    half = n_areas // 2
    pairs = [(f"a{i + 1}", "g1" if i < half else "g2") for i in range(n_areas)]
    return AreaHierarchy.from_pairs(pairs)
