"""Alkire-Foster style multidimensional poverty computation.

Household deprivation flags are combined with indicator weights into a
deprivation score; households at or above the poverty cutoff are poor.
Outputs are the headcount ratio, the average intensity among the poor, their
product (the index), per-indicator headcounts, and the percentage
contribution of each indicator.  Weights and the cutoff are exact rationals
so that e.g. six one-eighteenth deprivations land exactly on the 1/3 cutoff.

:func:`compute_mpi` and :func:`tabulate_poverty` score all households at
once in exact integer arithmetic: with ``L`` the lcm of the weight and
cutoff denominators, a score is the integer ``flags @ (weights * L)``, the
poverty test compares it with ``cutoff * L`` exactly, and ``score / L`` is
the correctly rounded float of the rational score.  They give the same
numbers and raise the same errors as :func:`deprivation_score` and
:func:`is_poor` applied household by household.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from spreekit.composition import AreaHierarchy, Composition, _check_unique

POVERTY_CATEGORIES = ("poor", "non-poor")

# Shipped indicator ids, by dimension (health, education, living standards).
NUTRITION = "nutrition"
CHILD_MORTALITY = "child_mortality"
YEARS_OF_SCHOOLING = "years_of_schooling"
SCHOOL_ATTENDANCE = "school_attendance"
LIVING_STANDARD_INDICATORS = (
    "cooking_fuel",
    "sanitation",
    "drinking_water",
    "electricity",
    "housing",
    "assets",
)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x)


@dataclass(frozen=True)
class MpiProfile:
    """Indicator weights and the poverty cutoff.

    Weights must be positive and sum to one; the cutoff defaults to 1/3 and
    the comparison is inclusive (a score exactly at the cutoff is poor).
    """

    indicators: tuple[str, ...]
    weights: tuple[Fraction, ...]
    poverty_cutoff: Fraction = Fraction(1, 3)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "indicators", _check_unique(self.indicators, "indicator ids")
        )
        weights = tuple(_as_fraction(w) for w in self.weights)
        if len(weights) != len(self.indicators):
            raise ValueError("one weight per indicator required")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        total = sum(weights)
        if abs(float(total) - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {float(total)!r}, expected 1")
        cutoff = _as_fraction(self.poverty_cutoff)
        if not 0 < cutoff <= 1:
            raise ValueError("poverty cutoff must lie in (0, 1]")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "poverty_cutoff", cutoff)

    def weight_of(self, indicator: str) -> Fraction:
        try:
            return self.weights[self.indicators.index(indicator)]
        except ValueError:
            raise KeyError(f"unknown indicator {indicator!r}") from None

    @classmethod
    def nine_indicator(cls) -> "MpiProfile":
        """Default profile: no nutrition data, child mortality carries the
        full health-dimension weight of 1/3."""
        indicators = (
            CHILD_MORTALITY,
            YEARS_OF_SCHOOLING,
            SCHOOL_ATTENDANCE,
            *LIVING_STANDARD_INDICATORS,
        )
        weights = (
            Fraction(1, 3),
            Fraction(1, 6),
            Fraction(1, 6),
            *([Fraction(1, 18)] * 6),
        )
        return cls(indicators, weights)

    @classmethod
    def ten_indicator(cls) -> "MpiProfile":
        """Global profile with nutrition present (health split 1/6 + 1/6)."""
        indicators = (
            NUTRITION,
            CHILD_MORTALITY,
            YEARS_OF_SCHOOLING,
            SCHOOL_ATTENDANCE,
            *LIVING_STANDARD_INDICATORS,
        )
        weights = (
            Fraction(1, 6),
            Fraction(1, 6),
            Fraction(1, 6),
            Fraction(1, 6),
            *([Fraction(1, 18)] * 6),
        )
        return cls(indicators, weights)


@dataclass(frozen=True)
class HouseholdRecord:
    """One household: location, subgroup, size, and deprivation flags.

    A flag is True (deprived), False (not deprived), or None (missing) --
    missingness must be resolved before scoring.  ``weight`` is an optional
    survey design weight multiplying household size; default 1.
    """

    household_id: str
    area_id: str
    subgroup_id: str
    size: int
    deprivations: Mapping[str, bool | None]
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"household size must be >= 1, got {self.size}")
        if not self.weight > 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        flags = {
            str(k): (None if v is None else bool(v))
            for k, v in self.deprivations.items()
        }
        object.__setattr__(self, "deprivations", flags)


@dataclass(frozen=True)
class MpiResult:
    """Poverty measures plus per-indicator detail.

    ``contributions`` is the percentage decomposition of poverty across
    indicators (weighted uncensored headcounts, normalised to sum to one);
    it is None when the headcount is zero, where contributions are undefined.
    """

    headcount: float
    intensity: float
    mpi: float
    indicator_headcounts: dict[str, float]
    contributions: dict[str, float] | None
    population_base: float


def _check_flags(r: HouseholdRecord, p: MpiProfile) -> None:
    have = set(r.deprivations)
    want = set(p.indicators)
    if have != want:
        missing = sorted(want - have)
        extra = sorted(have - want)
        raise ValueError(
            f"household {r.household_id!r} flags do not cover the profile "
            f"(missing {missing}, extra {extra})"
        )


def deprivation_score(r: HouseholdRecord, p: MpiProfile) -> Fraction:
    """Weighted number of deprivations of a household, in [0, 1].

    Exact rational arithmetic; a missing flag is an error (resolve
    missingness at ingestion, no imputation happens here).
    """
    _check_flags(r, p)
    score = Fraction(0)
    for indicator, weight in zip(p.indicators, p.weights):
        flag = r.deprivations[indicator]
        if flag is None:
            raise ValueError(
                f"household {r.household_id!r} has a missing flag for "
                f"{indicator!r}; resolve missingness at ingestion before scoring"
            )
        if flag:
            score += weight
    return score


def is_poor(score: Fraction | float, p: MpiProfile) -> bool:
    """Poor iff the deprivation score reaches the cutoff (inclusive)."""
    if not 0 <= score <= 1:
        raise ValueError(f"score {score!r} outside [0, 1]")
    return score >= p.poverty_cutoff


# Households per block while building the flag matrix: bounds the Python
# lists and integer temporaries to well under a MiB.
_BLOCK = 4096


def _score(
    records: Sequence[HouseholdRecord], p: MpiProfile
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """Flags, rejected mask, integer scores, their denominator, poor mask.

    ``flags`` is (N, K) in profile order.  ``bad`` marks the households
    :func:`deprivation_score` rejects (missing or extra flags, or a
    ``None`` flag); their flags read False.  ``L``, the lcm of the weight
    and cutoff denominators, makes each score the integer ``flags @
    (weights * L)``: score / L is the exact rational score and the cutoff
    test is an integer compare.  int64 holds the scores when ``L`` and the
    largest score (the sum of the scaled weights) stay within 2**53, where
    score / L is also correctly rounded; above that the same expressions
    run on Python ints.
    """
    cutoff, k = p.poverty_cutoff, len(p.indicators)
    denom = math.lcm(cutoff.denominator, *(w.denominator for w in p.weights))
    scaled = [w.numerator * (denom // w.denominator) for w in p.weights]
    dtype = np.int64 if max(denom, sum(scaled)) <= 2**53 else object
    weights = np.array(scaled, dtype=dtype)
    flags = np.empty((len(records), k), dtype=bool)
    bad = np.empty(len(records), dtype=bool)
    score = np.empty(len(records), dtype=dtype)
    for start in range(0, len(records), _BLOCK):
        block = records[start:start + _BLOCK]
        rows = slice(start, start + len(block))
        table = [list(map(r.deprivations.get, p.indicators)) for r in block]
        bad[rows] = [len(r.deprivations) != k or None in row for r, row in zip(block, table)]
        flags[rows] = np.array(table, dtype=bool).reshape(len(block), k)
        score[rows] = flags[rows].astype(dtype) @ weights
    poor = score >= cutoff.numerator * (denom // cutoff.denominator)
    return flags, bad, score, denom, poor


def _reject(r: HouseholdRecord, p: MpiProfile) -> None:
    """Raise the per-record scorer's error for a household it rejects."""
    is_poor(deprivation_score(r, p), p)
    raise AssertionError(f"household {r.household_id!r} scores without error")


def compute_mpi(records: Sequence[HouseholdRecord], p: MpiProfile) -> MpiResult:
    """Headcount, intensity, index, and indicator detail over households.

    Each household counts with size * weight, making the headcount the
    share of *people* in poor households.
    """
    if not records:
        raise ValueError("no household records supplied")
    base = np.array([r.size * r.weight for r in records])
    flags, bad, score, denom, poor = _score(records, p)
    # Every flag is checked before any score, as household by household.
    if bad.any():
        _reject(records[int(np.argmax(bad))], p)
    if (score > denom).any():
        _reject(records[int(np.argmax(score > denom))], p)
    score_f = (score / denom).astype(float, copy=False)

    total = float(base.sum())
    poor_base = float(base[poor].sum())
    headcount = poor_base / total
    intensity = float((base[poor] * score_f[poor]).sum()) / poor_base if poor_base else 0.0
    mpi = headcount * intensity

    indicator_headcounts = {
        indicator: float(base[flags[:, k]].sum()) / total
        for k, indicator in enumerate(p.indicators)
    }

    contributions: dict[str, float] | None = None
    if headcount > 0:
        weighted = {
            i: float(p.weight_of(i)) * h for i, h in indicator_headcounts.items()
        }
        norm = sum(weighted.values())
        contributions = {i: v / norm for i, v in weighted.items()}

    return MpiResult(headcount, intensity, mpi, indicator_headcounts, contributions, total)


def tabulate_poverty(
    records: Sequence[HouseholdRecord],
    p: MpiProfile,
    h: AreaHierarchy,
    subgroup: str | None = None,
) -> Composition:
    """Person counts of poor vs non-poor per small area, ready as a seed.

    Restricts to households of ``subgroup`` when given (records outside the
    subgroup are dropped entirely).  Areas follow the hierarchy's ordering;
    areas without records get zero rows.  Counts are summed in record order.
    """
    area_ids = h.small_ids
    pos = {a: i for i, a in enumerate(area_ids)}
    if subgroup is not None:
        records = [r for r in records if r.subgroup_id == subgroup]
    n = len(records)
    rows = np.fromiter((pos.get(r.area_id, -1) for r in records), np.intp, n)
    _, bad, score, denom, poor = _score(records, p)
    rejected = (rows < 0) | bad | (score > denom)
    if rejected.any():
        r = records[int(np.argmax(rejected))]
        if r.area_id not in pos:
            raise KeyError(f"household {r.household_id!r} in unknown area {r.area_id!r}")
        _reject(r, p)
    cells = 2 * rows + np.where(poor, 0, 1)
    people = np.fromiter((r.size * r.weight for r in records), float, n)
    counts = np.bincount(cells, weights=people, minlength=2 * len(area_ids))
    return Composition(area_ids, POVERTY_CATEGORIES, counts.reshape(-1, 2))


def headcount_from_composition(c: Composition) -> np.ndarray:
    """Per-area poor share from a {poor, non-poor} composition.

    Returns NaN for areas with zero total population (headcount undefined
    there); callers should treat NaN as a flagged absent value.
    """
    if set(c.category_ids) != set(POVERTY_CATEGORIES):
        raise ValueError(
            f"composition categories {c.category_ids} are not {POVERTY_CATEGORIES}"
        )
    return _poor_share(c.counts, c.category_index("poor"))


def _poor_share(counts: np.ndarray, poor_col: int) -> np.ndarray:
    """Poor share over the last (category) axis; NaN where the total is zero."""
    totals = counts.sum(axis=-1)
    safe = np.where(totals > 0, totals, 1.0)
    return np.where(totals > 0, counts[..., poor_col] / safe, np.nan)
