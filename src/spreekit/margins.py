"""Row-margin construction: population shares, distribution, reconciliation.

Large-area totals (from demographic projections) are spread to small areas
through within-large-area population shares.  Shares can be frozen at the
census (fixed), re-estimated each year from auxiliary population data
(dynamic), or mixed per region (hybrid: dynamic only where projections show
the strongest change).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple, Sequence

import numpy as np

from spreekit.composition import (
    AreaHierarchy,
    Composition,
    MarginLevel,
    MarginVector,
    _adopted,
    _check_unique,
    aggregate_to_large,
    row_margins,
)

SHARE_SUM_TOL = 1e-9
# Share of large areas the hybrid margin gives dynamic shares by default.
QUANTILE_CUTOFF = 0.25

Provenance = Literal["fixed-census", "dynamic-auxiliary", "hybrid"]
ReconcilePolicy = Literal["scale-col-to-row", "scale-row-to-col", "error"]

# Mismatches at float noise level are left untouched rather than scaled by a
# factor within an ulp of 1, which would perturb exact degenerate pipelines.
_RECONCILE_NOISE_TOL = 1e-12


@dataclass(frozen=True)
class ShareVector:
    """Within-large-area population shares for every small area.

    Shares of the small areas inside each large area sum to one; the
    provenance records which construction produced them.
    """

    small_ids: tuple[str, ...]
    shares: np.ndarray
    hierarchy: AreaHierarchy
    reference_time: int = 0
    provenance: Provenance = "fixed-census"

    def __post_init__(self) -> None:
        object.__setattr__(self, "small_ids", _check_unique(self.small_ids, "small ids"))
        arr = np.array(self.shares, dtype=float)
        if arr.shape != (len(self.small_ids),):
            raise ValueError("shares shape does not match small ids")
        if not np.all((arr >= 0) & (arr <= 1 + SHARE_SUM_TOL)):
            raise ValueError("shares must lie in [0, 1]")
        groups = self.hierarchy.group_positions(self.small_ids)
        for large, pos in groups.items():
            if pos.size == 0:
                continue
            s = arr[pos].sum()
            if abs(s - 1.0) > SHARE_SUM_TOL:
                raise ValueError(
                    f"shares in large area {large!r} sum to {s!r}, expected 1"
                )
        arr.setflags(write=False)
        object.__setattr__(self, "shares", arr)
        object.__setattr__(self, "_groups", groups)


@dataclass(frozen=True)
class HybridSelection:
    """Large areas that switch to dynamic shares, by projected change.

    The selected set is the top ``quantile_cutoff`` fraction of large areas
    by change score (ceiling count, ties broken by id order).
    """

    selected_large_ids: tuple[str, ...]
    change_scores: dict[str, float]
    quantile_cutoff: float

    def __post_init__(self) -> None:
        if not 0 < self.quantile_cutoff < 1:
            raise ValueError("quantile_cutoff must lie in (0, 1)")
        unknown = [s for s in self.selected_large_ids if s not in self.change_scores]
        if unknown:
            raise ValueError(f"selected ids without change scores: {unknown}")
        object.__setattr__(self, "selected_large_ids", tuple(self.selected_large_ids))


class ReconcileResult(NamedTuple):
    row: MarginVector
    col: MarginVector
    factor: float


def _large_area_shares(
    ids: tuple[str, ...],
    values: np.ndarray,
    h: AreaHierarchy,
    reference_time: int,
    provenance: Provenance,
    source: str,
) -> ShareVector:
    """Each area's value over its large-area total; a large area whose
    ``source`` population is zero, or whose total overflows, raises."""
    shares = np.empty(len(ids))
    groups = h.group_positions(ids)
    overflowed = None
    for large, pos in groups.items():
        if pos.size == 0:
            continue
        large_total = values[pos].sum()
        if large_total <= 0:
            raise ValueError(
                f"large area {large!r} has zero {source} population; shares undefined"
            )
        if large_total == np.inf and overflowed is None:
            overflowed = large
        shares[pos] = values[pos] / large_total
    if overflowed is not None:
        s = shares[groups[overflowed]].sum()
        raise ValueError(f"shares in large area {overflowed!r} sum to {s!r}, expected 1")
    # Values >= 0 over their finite group sum: in [0, 1], summing to one but for rounding.
    return _adopted(ShareVector, ids, shares, h, reference_time, provenance, _groups=groups)


def fixed_shares(census: Composition, h: AreaHierarchy) -> ShareVector:
    """Shares frozen at the census: area total over its large-area total."""
    totals = row_margins(census).values
    return _large_area_shares(
        census.area_ids, totals, h, census.reference_time, "fixed-census", "census"
    )


def dynamic_shares(aux_pop: MarginVector, h: AreaHierarchy) -> ShareVector:
    """Shares from an auxiliary small-area population estimate.

    Only the within-large-area distribution of the auxiliary values is used,
    never their totals, so any positive rescaling of the input leaves the
    shares unchanged.
    """
    return _large_area_shares(
        aux_pop.ids,
        aux_pop.values,
        h,
        aux_pop.reference_time,
        "dynamic-auxiliary",
        "auxiliary",
    )


def _totals_at(totals: MarginVector, large_ids: Sequence[str]) -> list[float]:
    """``totals`` at ``large_ids``, joined by id; ValueError naming the first 20 it lacks."""
    by_id = totals.as_dict()
    missing = [l for l in large_ids if l not in by_id][:20]
    if missing:
        raise ValueError(f"no total supplied for large areas: {missing}")
    return [by_id[l] for l in large_ids]


def census_baseline(census: Composition, h: AreaHierarchy) -> MarginVector:
    """Large-area census totals: the baseline :func:`select_by_change` ranks
    projected totals against."""
    return MarginVector(
        h.large_ids,
        aggregate_to_large(census, h).counts.sum(axis=1),
        MarginLevel.LARGE_AREA,
        census.reference_time,
    )


def select_by_change(
    projected: MarginVector,
    baseline: MarginVector,
    quantile_cutoff: float = QUANTILE_CUTOFF,
) -> HybridSelection:
    """Pick the large areas with the strongest projected population change.

    Change score is the absolute relative change |projected/baseline - 1|,
    so both growth and decline count, with ``projected`` read at the ids of
    ``baseline``.  Selects ceil(cutoff * K) areas; equal scores are resolved
    by id order for reproducibility.
    """
    if np.any(baseline.values <= 0):
        zero = [i for i, v in zip(baseline.ids, baseline.values) if v <= 0]
        raise ValueError(f"baseline population must be positive, got zero for: {zero}")
    if not 0 < quantile_cutoff < 1:
        raise ValueError("quantile_cutoff must lie in (0, 1)")
    scores = np.abs(np.array(_totals_at(projected, baseline.ids)) / baseline.values - 1.0)
    n_select = math.ceil(quantile_cutoff * len(baseline.ids))
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    selected = tuple(baseline.ids[i] for i in order[:n_select])
    return HybridSelection(
        selected,
        {i: float(s) for i, s in zip(baseline.ids, scores)},
        quantile_cutoff,
    )


def hybrid_shares(
    fixed: ShareVector, dynamic: ShareVector, sel: HybridSelection
) -> ShareVector:
    """Dynamic shares inside selected large areas, fixed shares elsewhere.

    Each large area is taken wholesale from one source, so per-large-area
    sums stay one.
    """
    if fixed.small_ids != dynamic.small_ids:
        raise ValueError("fixed and dynamic share vectors cover different small areas")
    if fixed.hierarchy.assignments != dynamic.hierarchy.assignments:
        raise ValueError("fixed and dynamic share vectors use different hierarchies")
    use_dynamic = np.zeros(len(fixed.small_ids), dtype=bool)
    for large in set(sel.selected_large_ids) & fixed._groups.keys():  # type: ignore[attr-defined]
        use_dynamic[fixed._groups[large]] = True  # type: ignore[attr-defined]
    shares = np.where(use_dynamic, dynamic.shares, fixed.shares)
    # Each large area's shares are one checked vector's, whole.
    return _adopted(
        ShareVector, fixed.small_ids, shares, fixed.hierarchy, dynamic.reference_time, "hybrid",
        _groups=fixed._groups,  # type: ignore[attr-defined]
    )


def _conserving_block(total: float, shares_block: np.ndarray) -> np.ndarray:
    """total * shares with one entry absorbing the rounding residual.

    Recomputes a single positive-share entry as the total minus the exact
    sum of the others, trying the largest share first and then the
    remaining entries from smallest up (a finer float grid can represent
    the residual when the largest cannot).  The accepted candidate makes
    the exact sum of the returned floats equal the total; zero shares stay
    exactly zero.  ``tests/test_margins.py`` checks the residual against
    the exact rational difference, rounded.
    """
    shares = shares_block.tolist()
    block = [total * share for share in shares]
    negated = [-v for v in block]

    def residual(idx: int) -> float:
        return math.fsum([total, *negated[:idx], *negated[idx + 1 :]]) or 0.0

    order = sorted(range(len(shares)), key=shares.__getitem__)
    for idx in (order[-1], *order[:-1]):
        if shares[idx] <= 0.0:
            continue
        cand = residual(idx)
        if cand <= 0.0:
            continue
        old = block[idx]
        block[idx] = cand
        if math.fsum(block) == total:
            return np.array(block)
        block[idx] = old
    # Degenerate ulp-scale inputs: keep the nearest-rounded largest entry.
    anchor = order[-1]
    block[anchor] = max(residual(anchor), 0.0)
    return np.array(block)


def distribute(large_totals: MarginVector, shares: ShareVector) -> MarginVector:
    """Small-area margin: each large total spread by the within-area shares.

    Totals are matched by id; every large area with small areas needs one.
    Conservation is exact, not approximate: the values returned for the
    small areas of one large area sum back to its total in exact (not
    merely floating-point) arithmetic.  ``shares`` keeps its last margin
    for the same ``large_totals`` object: both are immutable, and the memo
    holds its key, so that key's id cannot pass to another object.
    """
    if large_totals.level is not MarginLevel.LARGE_AREA:
        raise ValueError("large_totals must be a large-area margin")
    memo = shares.__dict__.get("_distributed")
    if memo is not None and memo[0] is large_totals:
        return memo[1]
    groups = {l: p for l, p in shares._groups.items() if p.size}  # type: ignore[attr-defined]
    values = np.empty(len(shares.small_ids))
    for total, pos in zip(_totals_at(large_totals, list(groups)), groups.values()):
        values[pos] = _conserving_block(total, shares.shares[pos])
    # Values >= 0 that make up each group's finite total (_conserving_block).
    margin = _adopted(
        MarginVector, shares.small_ids, values, MarginLevel.SMALL_AREA, large_totals.reference_time
    )
    object.__setattr__(shares, "_distributed", (large_totals, margin))
    return margin


def reconcile_margins(
    row: MarginVector,
    col: MarginVector,
    policy: ReconcilePolicy = "scale-col-to-row",
) -> ReconcileResult:
    """Force the two margin totals to agree so raking can run.

    Default scales the column margin onto the row total: row margins derive
    from demographic projections, which serve as the population benchmark.
    Under ``error`` a relative mismatch above 1e-6 raises instead.
    """
    total_r, total_c = row.total(), col.total()
    if total_r <= 0 or total_c <= 0:
        raise ValueError("margin totals must be positive to reconcile")
    mismatch = abs(total_r - total_c) / max(total_r, total_c)
    if mismatch <= _RECONCILE_NOISE_TOL:
        return ReconcileResult(row, col, 1.0)
    if policy == "scale-col-to-row":
        factor = total_r / total_c
        return ReconcileResult(row, col._times(factor), factor)
    if policy == "scale-row-to-col":
        factor = total_c / total_r
        return ReconcileResult(row._times(factor), col, factor)
    if policy == "error":
        if mismatch > 1e-6:
            raise ValueError(
                f"margin totals disagree by {mismatch:.3e} relative "
                f"(rows {total_r!r}, columns {total_c!r})"
            )
        return ReconcileResult(row, col, 1.0)
    raise ValueError(f"unknown reconcile policy {policy!r}")
