"""Alkire-Foster style multidimensional poverty computation.

Household deprivation flags are combined with indicator weights into a
deprivation score; households at or above the poverty cutoff are poor.
Outputs are the headcount ratio, the average intensity among the poor, their
product (the index), per-indicator headcounts, and the percentage
contribution of each indicator.  Weights and the cutoff are exact rationals
so that e.g. six one-eighteenth deprivations land exactly on the 1/3 cutoff.

Households are one column table, :class:`Households`, from
:func:`spreekit.io.load_households` through the scorers to
:func:`spreekit.io.save_households`; its constructor is the one check of
the table, and :meth:`Households.subset` selects rows, such as a subgroup.

:func:`compute_mpi` and :func:`tabulate_poverty` score all households at
once in exact integer arithmetic: with ``L`` the lcm of the weight and
cutoff denominators, a score is the integer ``flags @ (weights * L)``, the
poverty test compares it with ``cutoff * L`` exactly, and ``score / L`` is
the correctly rounded float of the rational score.  A table scores against
a profile whose indicators equal its own as a set.  The scorers give the
same numbers and raise the same errors, for the first rejected household in
row order, as the exact :class:`~fractions.Fraction` reference
:func:`deprivation_score` and :func:`is_poor` applied row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from typing import Sequence

import numpy as np

from spreekit.composition import AreaHierarchy, Composition, _adopted, _check_unique

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
        weights = tuple(Fraction(w) for w in self.weights)
        if len(weights) != len(self.indicators):
            raise ValueError("one weight per indicator required")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        try:
            total = float(sum(weights))
        except OverflowError:  # a sum past the float range
            total = math.inf
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        cutoff = Fraction(self.poverty_cutoff)
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


@dataclass(frozen=True, eq=False)
class Households:
    """Households as one column table; row ``i`` is one household.

    ``flags[i, k]`` is True where household ``i`` is deprived in
    ``indicators[k]``; ``missing[i, k]`` marks a missing flag, which reads
    False in ``flags`` and must be resolved before scoring.  ``weight`` is
    the survey design weight multiplying ``size``.  The constructor checks
    for equal column lengths, unique household and indicator ids, integer
    sizes >= 1 and positive weights; the arrays are read-only copies of
    those given.
    """

    household_ids: tuple[str, ...]
    area_ids: tuple[str, ...]
    subgroup_ids: tuple[str, ...]
    size: np.ndarray
    weight: np.ndarray
    indicators: tuple[str, ...]
    flags: np.ndarray
    missing: np.ndarray

    def __post_init__(self) -> None:
        columns = [getattr(self, name) for name in self.__dataclass_fields__]
        vars(self).update(vars(Households._adopt(*columns, copy=True)))

    @classmethod
    def _adopt(cls, *columns, copy: bool = False) -> "Households":
        """The table over ``columns``, checked as the constructor checks
        them but for repeated ids, that keeps them uncopied: for a caller
        that built them for the table alone, with ids it has proved unique.
        Its arrays are made read-only in place; id lists become tuples, and
        ids must be ``str`` already.  With ``copy``, the constructor's own
        checks and copies."""
        household_ids, area_ids, subgroup_ids, size, weight, indicators, flags, missing = columns
        n, k = len(household_ids), len(indicators)
        array = np.array if copy else np.asarray
        size = array(size, dtype=None if n else np.int64)
        weight = array(weight, dtype=float)
        flags, missing = array(flags, dtype=bool), array(missing, dtype=bool)
        shapes = dict(
            area_ids=(len(area_ids),), subgroup_ids=(len(subgroup_ids),),
            size=size.shape, weight=weight.shape, flags=flags.shape, missing=missing.shape,
        )
        for name, shape in shapes.items():
            want = (n, k) if name in ("flags", "missing") else (n,)
            if shape != want:
                raise ValueError(
                    f"ragged household columns: {name} has shape {shape}, expected {want}"
                )
        if size.dtype.kind != "i":
            raise ValueError(f"household sizes must be integers below 2**63, got {size.dtype}")
        if (size < 1).any():
            raise ValueError(f"household size must be >= 1, got {size[np.argmax(size < 1)]}")
        if not (weight > 0).all():
            raise ValueError(f"weight must be positive, got {float(weight[np.argmin(weight > 0)])}")
        flags[missing] = False
        ids = (lambda column: tuple(map(str, column))) if copy else tuple
        unique = _check_unique if copy else lambda column, what: tuple(column)
        return _adopted(
            cls, unique(household_ids, "household ids"), ids(area_ids), ids(subgroup_ids), size,
            weight, unique(indicators, "indicator ids"), flags, missing,
        )

    def __len__(self) -> int:
        return len(self.household_ids)

    def subset(self, mask: Sequence[bool] | np.ndarray) -> "Households":
        """The households where ``mask`` is True, in row order."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise ValueError(f"mask shape {mask.shape} does not match {len(self)} households")
        keep = mask.tolist()
        area, subgroup = (tuple(compress(ids, keep)) for ids in (self.area_ids, self.subgroup_ids))
        # A subset of unique ids is unique, and indexing copies the arrays.
        return Households._adopt(
            tuple(compress(self.household_ids, keep)), area, subgroup, self.size[mask],
            self.weight[mask], self.indicators, self.flags[mask], self.missing[mask],
        )


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


def _profile_columns(households: Households, p: MpiProfile) -> list[int]:
    """The table column of each profile indicator, in profile order."""
    if set(households.indicators) != set(p.indicators):
        raise ValueError(
            f"household indicators {sorted(households.indicators)} do not match "
            f"the profile indicators {sorted(p.indicators)}"
        )
    return [households.indicators.index(i) for i in p.indicators]


def deprivation_score(households: Households, i: int, p: MpiProfile) -> Fraction:
    """Weighted number of deprivations of household ``i``, in [0, 1].

    Exact rational arithmetic; a missing flag is an error (resolve
    missingness at ingestion, no imputation happens here).
    """
    score = Fraction(0)
    for indicator, weight, k in zip(p.indicators, p.weights, _profile_columns(households, p)):
        if households.missing[i, k]:
            raise ValueError(
                f"household {households.household_ids[i]!r} has a missing flag for "
                f"{indicator!r}; resolve missingness at ingestion before scoring"
            )
        if households.flags[i, k]:
            score += weight
    return score


def is_poor(score: Fraction | float, p: MpiProfile) -> bool:
    """Poor iff the deprivation score reaches the cutoff (inclusive)."""
    if not 0 <= score <= 1:
        raise ValueError(f"score {score!r} outside [0, 1]")
    return score >= p.poverty_cutoff


def _score(
    households: Households, p: MpiProfile
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Flags in profile order, integer scores, their denominator, poor mask.

    ``L``, the lcm of the weight and cutoff denominators, makes each score
    the integer ``flags @ (weights * L)``: score / L is the exact rational
    score and the cutoff test is an integer compare.  int64 holds the
    scores when ``L`` and the largest score (the sum of the scaled weights)
    stay within 2**53, where score / L is also correctly rounded; above
    that the matmul runs on Python ints.  Missing flags read False.
    """
    flags = households.flags[:, _profile_columns(households, p)]
    cutoff = p.poverty_cutoff
    denom = math.lcm(cutoff.denominator, *(w.denominator for w in p.weights))
    scaled = [w.numerator * (denom // w.denominator) for w in p.weights]
    if max(denom, sum(scaled)) <= 2**53:
        # Flag column times its scaled weight, summed column by column:
        # exact integers, without an int64 copy of the flags.
        score = np.zeros(len(flags), dtype=np.int64)
        term = np.empty_like(score)
        for k, w in enumerate(scaled):
            score += np.multiply(flags[:, k], w, out=term, dtype=np.int64)
    else:
        score = flags.astype(object) @ np.array(scaled, dtype=object)
    poor = score >= cutoff.numerator * (denom // cutoff.denominator)
    return flags, score, denom, poor


def compute_mpi(households: Households, p: MpiProfile) -> MpiResult:
    """Headcount, intensity, index, and indicator detail over households.

    Each household counts with size * weight, making the headcount the
    share of *people* in poor households.
    """
    return _measures(p, *_checked_scores(households, p))


def _checked_scores(households: Households, p: MpiProfile) -> tuple[np.ndarray, ...]:
    """``compute_mpi``'s checks, then its per-household columns for ``_measures``."""
    if not len(households):
        raise ValueError("no household records supplied")
    flags, score, denom, poor = _score(households, p)
    # Every flag is checked before any score, as household by household.
    for rejected in (households.missing.any(axis=1), score > denom):
        if rejected.any():
            is_poor(deprivation_score(households, int(np.argmax(rejected)), p), p)
    score_f = (score / denom).astype(float, copy=False)
    return _people(households), flags, score_f, poor


def _people(households: Households) -> np.ndarray:
    """Each household's people, ``size * weight``, which the scorers sum.

    Raises ValueError naming the first household whose people, or the sum
    of people up to it, is not finite.
    """
    with np.errstate(over="ignore"):
        people = households.size * households.weight
        running, total = np.cumsum(people), people.sum()
    past = ~np.isfinite(running)
    if len(people) and (past[-1] or not np.isfinite(total)):
        i = int(np.argmax(past)) if past[-1] else len(people) - 1
        what = "the people sum" if np.isfinite(people[i]) else "size * weight"
        raise ValueError(f"household {households.household_ids[i]!r}: {what} is not finite")
    return people


def _measures(
    p: MpiProfile, base: np.ndarray, flags: np.ndarray, score_f: np.ndarray, poor: np.ndarray
) -> MpiResult:
    """The measures over rows of people, profile-order flags, float scores, poor."""
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


def _subgroup_mpi(households: Households, p: MpiProfile) -> dict[str, MpiResult]:
    """``compute_mpi`` of each subgroup, in id order, from one scoring: a
    subgroup's rows, in row order, give the bits of its subset's result."""
    scored = _checked_scores(households, p)
    groups = np.array(households.subgroup_ids, dtype=object)
    masks = {group: groups == group for group in sorted(set(households.subgroup_ids))}
    return {group: _measures(p, *(c[mask] for c in scored)) for group, mask in masks.items()}


def tabulate_poverty(households: Households, p: MpiProfile, h: AreaHierarchy) -> Composition:
    """Person counts of poor vs non-poor per small area, ready as a seed.

    Areas follow the hierarchy's ordering; areas without households get
    zero rows.  Counts are summed in row order.  A household in an area the
    hierarchy lacks is an error, raised like a scoring error for the first
    rejected household in row order.
    """
    area_ids = h.small_ids
    pos = {a: i for i, a in enumerate(area_ids)}
    rows = np.fromiter(map(pos.get, households.area_ids, repeat(-1)), np.intp, len(households))
    _, score, denom, poor = _score(households, p)
    rejected = (rows < 0) | households.missing.any(axis=1) | (score > denom)
    if rejected.any():
        i = int(np.argmax(rejected))
        if rows[i] < 0:
            raise ValueError(
                f"household {households.household_ids[i]!r} in unknown area "
                f"{households.area_ids[i]!r}"
            )
        is_poor(deprivation_score(households, i, p), p)
    cells = 2 * rows + np.where(poor, 0, 1)
    counts = np.bincount(cells, weights=_people(households), minlength=2 * len(area_ids))
    return Composition(area_ids, POVERTY_CATEGORIES, counts.reshape(-1, 2))


def headcount_from_composition(c: Composition) -> np.ndarray:
    """Per-area poor share from a {poor, non-poor} composition.

    Returns NaN for areas with zero total population (headcount undefined
    there); callers should treat NaN as a flagged absent value.
    """
    poor_col = _poor_column(c.category_ids)
    if poor_col is None:
        raise ValueError(
            f"composition categories {c.category_ids} are not {POVERTY_CATEGORIES}"
        )
    return _poor_share(c.counts, poor_col)


def _poor_column(category_ids: Sequence[str]) -> int | None:
    """Position of ``"poor"`` when the categories are {poor, non-poor}, else None."""
    return category_ids.index("poor") if set(category_ids) == set(POVERTY_CATEGORIES) else None


def _poor_share(counts: np.ndarray, poor_col: int) -> np.ndarray:
    """Poor share over the last (category) axis; NaN where the total is zero."""
    totals = counts.sum(axis=-1)
    share = np.full(totals.shape, np.nan)
    np.divide(counts[..., poor_col], totals, out=share, where=totals > 0)
    return share
