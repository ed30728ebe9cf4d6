"""Design-based Monte Carlo harness comparing margin strategies.

Each round replicates the base-year census (Poisson row totals, multinomial
split), builds the fixed, dynamic, and hybrid row margins from that
replicate, re-runs the update against a resampled column margin, and scores
the result against an independently replicated target-year census.  Metrics
are aggregated per area, then grouped into quartiles of the true
within-region share change.

Replicate r draws from RNG stream r, in this order: base-year census
replication, target-year census replication, then column-margin resampling.
The dynamic margin uses pool entry ``r % len(aux_pool)`` and consumes no
randomness.

Shares are built once and reused wherever the result cannot differ: the
fixed shares once per round (the hybrid margin reuses them) and the
dynamic shares once per aux-pool entry, each of which keeps the margin
:func:`~spreekit.margins.distribute` spreads the large-area totals into.
Each truth keeps its census proportions (:func:`replicate_census`).  A
build that fails is not kept, so every strategy and round that needs it
records the same failure.

Means over rounds are the sum over the round count, the arithmetic of
``np.mean``, and the per-area mean over categories is
``bootstrap._nan_mean``.  A strategy that completes no round therefore goes
through the same aggregation as any other, on empty stacks, and reports NaN
metrics without a warning.  The summary quantiles are
:data:`~spreekit.bootstrap.QUANTILE_LEVELS`.

:func:`run_simulation` splits the rounds into contiguous ranges of at
least :data:`_ROUNDS_PER_PROCESS` rounds each, by the split rule of
:mod:`spreekit._fork`, the first run by the calling process and each other
by a forked child.  The stacks live in anonymous shared memory, held
once: every process writes round r's truth and fits at row r of the
caller's own arrays, and a child sends back only its failed rounds.  The
caller aggregates the stacks once.  Round r draws only from stream r
wherever it runs, and every cache a process builds gives the bits a fresh
build gives, so no byte of the report depends on the process count.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from spreekit import rng as rngmod
from spreekit._fork import forked, split
from spreekit.bootstrap import (
    QUANTILE_LABELS,
    QUANTILE_LEVELS,
    SurveyDesign,
    _check_stack,
    _nan_mean,
    _redraw_census,
    resample_column_margin,
)
from spreekit.composition import (
    AreaHierarchy,
    Composition,
    MarginVector,
    _adopted,
    _census_proportions,
    check_integer,
    column_margins,
    row_margins,
)
from spreekit.margins import (
    QUANTILE_CUTOFF,
    ShareVector,
    census_baseline,
    dynamic_shares,
    fixed_shares,
    hybrid_shares,
    select_by_change,
)
from spreekit.mpi import _poor_column, _poor_share
from spreekit.update import UpdateError, UpdateRequest, spree_update

STRATEGIES = ("fixed", "dynamic", "hybrid")
QUARTILE_NAMES = ("lowest", "second", "third", "highest")
SUMMARY_COLUMNS = (*QUANTILE_LABELS[:3], "mean", *QUANTILE_LABELS[3:])


def summary_row(values: np.ndarray) -> np.ndarray:
    """The :data:`SUMMARY_COLUMNS` of ``values``; all NaN when it is empty.

    Callers drop the values they do not want summarised (NaN or non-finite)
    first.
    """
    if not values.size:
        return np.full(len(SUMMARY_COLUMNS), np.nan)
    qs = np.quantile(values, QUANTILE_LEVELS)
    return np.array([qs[0], qs[1], qs[2], values.mean(), qs[3], qs[4]])


def quartile_grouping(change_scores: Sequence[float]) -> np.ndarray:
    """Quartile label (0 = lowest .. 3 = highest) per area.

    Areas are ranked by ascending absolute change, ties broken by position,
    and split into four groups whose sizes differ by at most one; the
    earlier groups absorb the remainder, so 103 areas split 26/26/26/25.
    A NaN score ranks after every number, infinities included, so it lands
    in the highest groups.
    """
    scores = np.abs(np.asarray(change_scores, dtype=float))
    n = len(scores)
    if n < 4:
        raise ValueError("quartile grouping needs at least 4 areas")
    base, rem = divmod(n, 4)
    sizes = [base + (q < rem) for q in range(4)]
    labels = np.empty(n, dtype=int)
    labels[np.argsort(scores, kind="stable")] = np.repeat(np.arange(4), sizes)
    return labels


def replicate_census(truth: Composition, rng: np.random.Generator) -> Composition:
    """Redraw a census: Poisson row totals with the truth's as means, then a
    multinomial split per area (:func:`spreekit.bootstrap._redraw_census`).
    Zero-total rows stay zero.  The row totals and proportions are computed
    on the first call for ``truth`` and kept on it.
    """
    draw = truth.__dict__.get("_census_draw")
    if draw is None:
        draw = (truth.counts.sum(axis=1), *_census_proportions(truth.counts))
        object.__setattr__(truth, "_census_draw", draw)
    # Poisson totals split multinomially: whole numbers >= 0, in a new array.
    counts = _redraw_census(rng, *draw)
    return _adopted(Composition, truth.area_ids, truth.category_ids, counts, truth.reference_time)


def _within_large_shares(
    row_totals: np.ndarray, positions: dict[str, np.ndarray]
) -> np.ndarray:
    shares = np.zeros_like(row_totals)
    for pos in positions.values():
        block = row_totals[pos].sum()
        if block > 0:
            shares[pos] = row_totals[pos] / block
    return shares


@dataclass(frozen=True)
class SimulationPlan:
    """Inputs for one Monte Carlo comparison run.

    Areas are grouped into quartiles of the absolute relative change of the
    true within-region share between the two truth censuses (infinite when
    a share appears from zero).  Every round redraws both censuses; without
    a ``survey_design`` the column margin is the target-year replicate's own.
    Each update runs with :class:`UpdateRequest`'s default raking controls
    and reconcile policy.
    """

    replicates: int
    seed: int
    truth_t0: Composition
    truth_t: Composition
    hierarchy: AreaHierarchy
    large_totals_t: MarginVector
    strategies: tuple[str, ...] = STRATEGIES
    survey_design: SurveyDesign | None = None
    aux_pool: tuple[MarginVector, ...] = ()
    quantile_cutoff: float = QUANTILE_CUTOFF

    def __post_init__(self) -> None:
        check_integer("seed", self.seed, 0)
        check_integer("replicates", self.replicates, 1)
        if (
            self.truth_t.area_ids != self.truth_t0.area_ids
            or self.truth_t.category_ids != self.truth_t0.category_ids
        ):
            raise ValueError("truth compositions must share area and category ids")
        if not self.strategies:
            raise ValueError("at least one strategy required")
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            raise ValueError(f"unknown strategies: {unknown}")
        repeated = [s for s in dict.fromkeys(self.strategies) if self.strategies.count(s) > 1]
        if repeated:
            raise ValueError(f"repeated strategies: {repeated}")
        needs_aux = {"dynamic", "hybrid"} & set(self.strategies)
        if needs_aux and not self.aux_pool:
            raise ValueError("dynamic/hybrid strategies need a non-empty aux_pool")
        for m in self.aux_pool:
            if m.ids != self.truth_t0.area_ids:
                raise ValueError("aux_pool ids must match the truth area ids")


@dataclass(frozen=True)
class StrategyMetrics:
    """Per-area accuracy of one margin strategy.

    Cell metrics follow the replicate-ratio displays (NaN where the mean
    replicate truth is zero).  Share metrics compare the estimated
    within-region shares against the true target-year shares.  Headcount
    metrics are present only for {poor, non-poor} compositions.
    """

    strategy: str
    completed: int
    failures: tuple[str, ...]
    cell_bias: np.ndarray
    cell_rmse: np.ndarray
    share_bias: np.ndarray
    share_rmse: np.ndarray
    headcount_bias: np.ndarray | None = None
    headcount_rmse: np.ndarray | None = None


@dataclass(frozen=True)
class SimulationReport:
    area_ids: tuple[str, ...]
    category_ids: tuple[str, ...]
    change_scores: np.ndarray
    quartile_labels: np.ndarray
    metrics: dict[str, StrategyMetrics]
    share_accuracy: dict[str, np.ndarray]
    quartile_summary: dict[str, dict[str, np.ndarray]]
    correlations: dict[str, np.ndarray]
    win_counts: dict[str, int]


def _relative(est: np.ndarray, tru: np.ndarray, metric) -> np.ndarray:
    """``metric(est - tru, mean truth, n, rescaled)`` over the first axis;
    NaN where the mean truth is zero.

    Where the result or the mean truth is not finite (and the mean truth is
    not zero), both are recomputed with ``rescaled`` true from the values
    divided by the least power of two that is at least twice the round
    count: exact but for subnormals, and small enough that no sum over the
    rounds of the values or of their differences overflows.  The metrics
    are ratios, so the factor cancels; every other result keeps its bits.
    """
    n = len(tru)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        denom = tru.sum(axis=0) / n
        out = metric(est - tru, denom, n, False)
        redo = (~np.isfinite(out) | ~np.isfinite(denom)) & (denom != 0)
        if redo.any():
            k = float(2 ** (2 * n - 1).bit_length())
            denom_k = (tru / k).sum(axis=0) / n
            out = np.where(redo, metric(est / k - tru / k, denom_k, n, True), out)
            denom = np.where(redo, denom_k, denom)
    return np.where(denom == 0, np.nan, out)


def _nd_bias(est: np.ndarray, tru: np.ndarray) -> np.ndarray:
    """Relative bias over the first axis; see :func:`_relative`."""
    return _relative(est, tru, lambda diff, denom, n, _: diff.sum(axis=0) / n / denom)


def _nd_rmse(est: np.ndarray, tru: np.ndarray) -> np.ndarray:
    """Relative RMSE over the first axis; see :func:`_relative`.  Rescaled,
    the differences are divided by the mean truth before they are squared,
    so that the squares do not overflow either."""

    def rmse(diff: np.ndarray, denom: np.ndarray, n: int, rescaled: bool) -> np.ndarray:
        if rescaled:
            return np.sqrt(((diff / denom) ** 2).sum(axis=0) / n) * np.sign(denom)
        # ``diff`` is a temporary: square it in place, bitwise ``diff**2``.
        return np.sqrt(np.square(diff, out=diff).sum(axis=0) / n) / denom

    return _relative(est, tru, rmse)


def _pearson_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pearson correlation of each row of ``x`` with the same row of ``y``.

    Row ``r`` is bitwise ``np.corrcoef(x[r], y[r])[0, 1]``, as the oracle
    tests in ``tests/test_simulation.py`` check; NaN where ``n < 2`` or
    either row has zero ``np.std``.
    """
    xy = np.stack([x, y], axis=1).astype(float, copy=False)
    rows, _, n = xy.shape
    if n < 2:
        return np.full(rows, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        xy -= xy.mean(axis=2, keepdims=True)
        flat = (np.sum(xy * xy, axis=2) / n == 0).any(axis=1)
        cov = np.matmul(xy, xy.transpose(0, 2, 1))
        cov *= np.true_divide(1, n - 1)
        std = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
        r = np.clip(cov[:, 0, 1] / std[:, 0] / std[:, 1], -1, 1)
    r[flat] = np.nan
    return r


def _win_counts(share_bias: dict[str, np.ndarray]) -> dict[str, int]:
    """Areas won per strategy: the least absolute share bias, the first
    strategy on a tie; NaN never wins, and an all-NaN area counts for none."""
    abs_bias = np.abs(list(share_bias.values()))
    best = np.argsort(abs_bias, axis=0, kind="stable")[0]
    wins = np.bincount(best[~np.isnan(abs_bias).all(axis=0)], minlength=len(share_bias))
    return dict(zip(share_bias, wins.tolist()))


def quartile_means(values: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Mean of the non-NaN ``values`` in each quartile; NaN where there are none."""
    means = np.full(4, np.nan)
    for q in range(4):
        v = values[labels == q]
        v = v[~np.isnan(v)]
        if v.size:
            means[q] = v.mean()
    return means


# Per strategy: the failed rounds and their messages.
_Played = tuple[list[list[int]], list[list[str]]]


def _shared(shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed float64 array of ``shape`` in anonymous memory that the
    children this process forks write into.  An empty array maps one
    element, since no mapping is empty."""
    n = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * max(n, 1)), dtype=float)[:n].reshape(shape)


# The fewest rounds :func:`run_simulation` gives a process.  On two CPUs,
# in medians of 200 alternating runs, a split of the shipped scenario or
# the mini plan in two loses at 8 to 12 rounds (by 8-30%), is about even
# at 16 and wins from 20.
_ROUNDS_PER_PROCESS = 10


def run_simulation(plan: SimulationPlan) -> SimulationReport:
    """Run the replication study and aggregate the comparison report.

    Rounds where a strategy's update fails are dropped for that strategy
    only and recorded in its ``failures``; the report carries the completed
    count per strategy.  Round r's tables go into row r of stacks
    allocated before the first round.  A plan whose stacks would pass the
    memory budget of :mod:`spreekit.bootstrap` fails before its first
    round.

    The rounds are split as the module states.  This process runs the
    first range and a forked child each other range, writing into this
    process's stacks, which are held once; every byte of the report is
    that of a one-process run, and so is an error: the one from the lowest
    round that raises.  Every child has ended when this returns or raises.
    """
    h = plan.hierarchy
    area_ids = plan.truth_t0.area_ids
    category_ids = plan.truth_t0.category_ids
    n_strategies, rounds = len(plan.strategies), plan.replicates
    # All the run holds that grows with the round count: every round's
    # target-year truth, per strategy the fitted table and shares of each
    # round, and the per-area headcounts of the truth and of one strategy's
    # fits.
    shapes = [
        (rounds, len(area_ids), len(category_ids)),
        (n_strategies, rounds, len(area_ids), len(category_ids)),
        (n_strategies, rounds, len(area_ids)),
        (2, rounds, len(area_ids)),
    ]
    _check_stack("simulation", shapes, ValueError)
    positions = h.group_positions(area_ids)
    t_time = plan.truth_t.reference_time

    rows_t0 = row_margins(plan.truth_t0).values
    rows_t = row_margins(plan.truth_t).values
    shares_t0 = _within_large_shares(rows_t0, positions)
    shares_t = _within_large_shares(rows_t, positions)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(shares_t0 > 0, shares_t / np.where(shares_t0 > 0, shares_t0, 1.0), np.inf)
    change_scores = np.abs(ratio - 1.0)
    change_scores[(shares_t0 == 0) & (shares_t == 0)] = 0.0
    labels = quartile_grouping(change_scores)

    selection = None
    if "hybrid" in plan.strategies:
        selection = select_by_change(
            plan.large_totals_t, census_baseline(plan.truth_t0, h), plan.quantile_cutoff
        )

    dynamic_by_entry: dict[int, ShareVector] = {}

    def dynamic_for(r: int) -> ShareVector:
        k = r % len(plan.aux_pool)
        if k not in dynamic_by_entry:
            dynamic_by_entry[k] = dynamic_shares(plan.aux_pool[k], h)
        return dynamic_by_entry[k]

    truth_cells, fitted_cells, fitted_shares = map(_shared, shapes[:3])

    def play(lo: int, hi: int) -> _Played:
        """Rounds ``lo`` to ``hi - 1``, each into its row of the stacks."""
        failed: list[list[int]] = [[] for _ in plan.strategies]
        failures: list[list[str]] = [[] for _ in plan.strategies]
        for r in range(lo, hi):
            rng = rngmod.stream(plan.seed, r)
            census0 = replicate_census(plan.truth_t0, rng)
            census_t = replicate_census(plan.truth_t, rng)
            truth_cells[r] = census_t.counts
            if plan.survey_design is not None:
                col = resample_column_margin(plan.survey_design, rng, t_time)
            else:
                col = column_margins(census_t)
            fixed: ShareVector | None = None
            for s, strategy in enumerate(plan.strategies):
                try:
                    if strategy != "dynamic" and fixed is None:
                        fixed = fixed_shares(census0, h)
                    if strategy == "fixed":
                        sv = fixed
                    elif strategy == "dynamic":
                        sv = dynamic_for(r)
                    else:
                        sv = hybrid_shares(fixed, dynamic_for(r), selection)
                    req = UpdateRequest(
                        seed=census0,
                        col_margin=col,
                        large_totals=plan.large_totals_t,
                        shares=sv,
                    )
                    res = spree_update(req)
                except (UpdateError, ValueError) as e:
                    failed[s].append(r)
                    failures[s].append(f"replicate {r}: {e}")
                    continue
                fitted_cells[s, r] = res.fitted.counts
                fitted_shares[s, r] = sv.shares
        return failed, failures

    bounds = split(rounds, _ROUNDS_PER_PROCESS)
    with forked(lambda lo, hi: [play(lo, hi)], bounds, "rounds") as played:
        failed, failures = play(bounds[0], bounds[1])
        for [(child_failed, child_failures)] in played:
            for s in range(len(failed)):
                failed[s] += child_failed[s]
                failures[s] += child_failures[s]

    poor_col = _poor_column(category_ids)

    def headcounts(cells: np.ndarray) -> np.ndarray:
        """Per round and area: the poor share, or else the total."""
        return cells.sum(axis=2) if poor_col is None else _poor_share(cells, poor_col)

    # Row by row, so the rows of the completed rounds are a strategy's own.
    truth_h = headcounts(truth_cells)

    metrics: dict[str, StrategyMetrics] = {}
    share_accuracy: dict[str, np.ndarray] = {}
    quartile_summary: dict[str, dict[str, np.ndarray]] = {}
    correlations: dict[str, np.ndarray] = {}

    for s, strategy in enumerate(plan.strategies):
        n = rounds - len(failed[s])
        tru_cells, tru_h = truth_cells, truth_h
        if failed[s]:
            # The strategy's own stacks keep its completed rounds, moved to
            # the front in round order; the shared truths are copied.
            kept = np.delete(np.arange(rounds), failed[s])
            for i in range(failed[s][0], n):
                fitted_cells[s, i] = fitted_cells[s, kept[i]]
                fitted_shares[s, i] = fitted_shares[s, kept[i]]
            tru_cells, tru_h = (np.delete(t, failed[s], axis=0) for t in (truth_cells, truth_h))
        est_cells, est_shares = fitted_cells[s, :n], fitted_shares[s, :n]

        cell_bias = _nd_bias(est_cells, tru_cells)
        cell_rmse = _nd_rmse(est_cells, tru_cells)
        tru_shares = np.broadcast_to(shares_t, est_shares.shape)
        share_bias = _nd_bias(est_shares, tru_shares)
        share_rmse = _nd_rmse(est_shares, tru_shares)

        est_h = headcounts(est_cells)
        if poor_col is not None:
            headcount_bias = per_area_bias = _nd_bias(est_h, tru_h)
            headcount_rmse = per_area_rmse = _nd_rmse(est_h, tru_h)
        else:
            headcount_bias = headcount_rmse = None
            per_area_bias = _nan_mean(cell_bias, axis=1)
            per_area_rmse = _nan_mean(cell_rmse, axis=1)

        metrics[strategy] = StrategyMetrics(
            strategy, n, tuple(failures[s]), cell_bias, cell_rmse,
            share_bias, share_rmse, headcount_bias, headcount_rmse,
        )

        share_accuracy[strategy] = quartile_means(share_bias, labels)

        summary = {}
        for name, values in (("bias", per_area_bias), ("rmse", per_area_rmse)):
            by_quartile = [values[labels == q] for q in range(4)]
            summary[name] = np.array([summary_row(v[~np.isnan(v)]) for v in by_quartile])
        quartile_summary[strategy] = summary

        corr = np.full(4, np.nan)
        for q in range(4):
            mask = labels == q
            per_rep = _pearson_rows(est_h[:, mask], tru_h[:, mask])
            per_rep = per_rep[~np.isnan(per_rep)]
            if per_rep.size:
                corr[q] = per_rep.mean()
        correlations[strategy] = corr

    win_counts = _win_counts({s: m.share_bias for s, m in metrics.items()})

    return SimulationReport(
        area_ids,
        category_ids,
        change_scores,
        labels,
        metrics,
        share_accuracy,
        quartile_summary,
        correlations,
        win_counts,
    )
