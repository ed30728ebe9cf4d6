"""Mixed semiparametric bootstrap for cell-level MSE and CV.

Per replicate, the census composition is re-drawn (Poisson row totals, then
a multinomial split within each area), the row margin is resampled from the
auxiliary side, the column margin is resampled from the survey design, and
the update is re-run on the replicate composition.  The cell MSE is the mean
squared difference between the re-updated replicate and the replicate
composition it was raked from.

Replicate b draws from RNG stream b (see :mod:`spreekit.rng`), in this fixed
order, which independent re-implementations must follow to reproduce runs:

1. Poisson row totals: one vectorised ``rng.poisson`` over areas.
2. Multinomial split: one vectorised ``rng.multinomial`` over areas, with
   totals forced to zero on zero-mass areas.  It consumes the stream
   exactly as one draw per positive-mass area in area order would
   (zero-mass areas and zero totals draw nothing).  Steps 1 and 2 are
   :func:`_redraw_census`, which the validation harness uses too; the split
   proportions are the point fit's, computed once per run.
3. Auxiliary row margin: one ``rng.integers(0, len(pool))`` when a replicate
   pool is supplied, else one vectorised ``rng.lognormal`` over areas for
   the labelled perturbation fallback.
4. Column margin: under ``psu-cluster``, one ``rng.integers(0, high)`` whose
   ``high`` holds each stratum's PSU count once per PSU, strata in
   first-appearance order (PSUs within a stratum in first-appearance order);
   it consumes the stream exactly as one ``rng.integers(0, n, size=n)`` per
   stratum in that order would.  Under ``iid-category``, a single
   ``rng.integers(0, n_obs, size=n_obs)`` over observations.

The margins drawn in steps 3 and 4 go to the reconcile step as they are.

One helper thread draws censuses (steps 1 and 2) ahead of the replicates
that use them: while the main thread works on replicate b, the censuses of
the next three (:data:`_CENSUSES_AHEAD`) are queued on the helper, each as
:func:`_redraw_census` on its own stream with the proportions computed
before the helper started.  When census b is not ready, the main thread
does not wait idle: it takes back the furthest queued census the helper
has not started and draws it itself.  Either way each census is drawn
once, by one thread, from its own stream, and before the main thread draws
steps 3 and 4 from that stream.  No draw depends on which thread makes it,
so no output depends on how the threads are scheduled.  Without a census
redraw no helper thread starts.  A census draw that raises ends the run:
the censuses still queued are not drawn.

Replicates are aggregated as they complete, in replicate order, so a run
holds one (B, A, J) stack of fitted tables and nothing else of that size:
running sums of squared differences, and one (B, A) array for the
headcount.  The five replicate quantiles (:data:`QUANTILE_LEVELS`) are
numpy's linear ones (Hyndman & Fan 1996, type 7), read from chunks of
cells sorted in one reused buffer.  Every zero quantile is +0.0, also
where a ``-0`` margin value puts -0.0 cells in the stack.  The oracle tests
in ``tests/test_bootstrap.py`` pin the sums and quantiles bit for bit to
numpy's over the whole stack.  A run whose stack would pass
:data:`_MAX_STACK_BYTES` fails with a :class:`BootstrapError` before the
point fit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from spreekit import rng as rngmod
from spreekit.composition import (
    Composition,
    MarginLevel,
    MarginVector,
    _adopted,
    _census_proportions,
    _check_unique,
    _finite,
    check_integer,
)
from spreekit.ipf import IpfError, ipf_fit
from spreekit.margins import reconcile_margins
from spreekit.mpi import _poor_column, _poor_share
from spreekit.update import UpdateRequest, spree_update

ColResample = Literal["psu-cluster", "iid-category", "none"]
AuxResample = Literal["resample-pool", "none"]
CensusResample = Literal["poisson-multinomial", "none"]

QUANTILE_LABELS = ("q2.5", "q25", "median", "q75", "q97.5")
QUANTILE_LEVELS = (0.025, 0.25, 0.5, 0.75, 0.975)
# Share of replicates whose raking may fail before a run is aborted.
_MAX_DROPPED_FRACTION = 0.10
# Largest float64 replicate stack a run may hold, in bytes: a run that would
# need more fails before its first replicate, not by running out of memory.
_MAX_STACK_BYTES = 4 * 2**30
# Bytes of the one buffer each chunk of cells is sorted in.
_QUANTILE_CHUNK_BYTES = 2**20
# Censuses queued on the helper thread beyond the replicate being raked.
_CENSUSES_AHEAD = 3


def _nan_mean(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Mean of the non-NaN ``values`` along ``axis``; NaN where there are none.

    The arithmetic of ``np.nanmean`` (NaN replaced by zero, summed, divided
    by the non-NaN count) without its warning for an all-NaN slice.
    """
    counted = ~np.isnan(values)
    with np.errstate(invalid="ignore"):
        return np.where(counted, values, 0.0).sum(axis=axis) / counted.sum(axis=axis)


class BootstrapError(RuntimeError):
    pass


def _check_stack(
    stage: str,
    shapes: Sequence[tuple[int, ...]],
    error: type[Exception],
    what: str = "replicate stack",
) -> None:
    """Raise ``error`` when float64 arrays of ``shapes`` together pass the budget."""
    nbytes = 8 * sum(map(math.prod, shapes))
    if nbytes > _MAX_STACK_BYTES:
        dims = " + ".join(" x ".join(map(str, shape)) for shape in shapes)
        if len(shapes) == 1:
            stacks = f"a {dims} {what} needs"
        else:
            stacks = f"{what}s of {dims} need"
        raise error(f"{stage}: {stacks} {nbytes} bytes, over the budget of {_MAX_STACK_BYTES}")


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count, master seed, and resampling switches.

    ``census_resample="poisson-multinomial"`` redraws each replicate's census
    (draw steps 1 and 2); ``"none"`` gives every replicate the point
    composition itself and draws nothing for it.  With all three
    ``*_resample`` switches ``"none"`` every noise source is degenerate: each
    replicate is raked to its own margins and the MSE is exactly zero, which
    anchors the formula tests.
    """

    replicates: int = 100
    seed: int = 0
    col_resample: ColResample = "psu-cluster"
    aux_resample: AuxResample = "resample-pool"
    aux_perturb_cv: float = 0.05
    census_resample: CensusResample = "poisson-multinomial"

    def __post_init__(self) -> None:
        check_integer("replicates", self.replicates, 1)
        check_integer("seed", self.seed, 0)
        if self.aux_perturb_cv < 0:
            raise ValueError("aux_perturb_cv must be >= 0")

    @property
    def fully_degenerate(self) -> bool:
        return self.census_resample == self.aux_resample == self.col_resample == "none"


@dataclass(frozen=True)
class SurveyDesign:
    """Per-observation survey records feeding the column margin.

    Each observation contributes ``weight * value`` to its PSU's category
    total, added in observation order.  Categories, strata and PSUs keep
    first-appearance order; resampling draws PSUs with replacement within
    each stratum, keeping the per-stratum PSU count.
    """

    psu: np.ndarray
    stratum: np.ndarray
    weight: np.ndarray
    category: np.ndarray
    value: np.ndarray
    category_ids: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        psu = np.asarray(self.psu, dtype=object)
        stratum = np.asarray(self.stratum, dtype=object)
        category = np.asarray(self.category, dtype=object)
        weight = np.asarray(self.weight, dtype=float)
        value = np.asarray(self.value, dtype=float)
        n = len(psu)
        if not (len(stratum) == len(category) == len(weight) == len(value) == n):
            raise ValueError("design arrays must have equal length")
        if n == 0:
            raise ValueError("empty survey design")
        if np.any(weight <= 0):
            raise ValueError("design weights must be positive")
        if np.any(value < 0) or not np.all(np.isfinite(value)):
            raise ValueError("design values must be finite and non-negative")

        cat_pos: dict[str, int] = {}
        cat_index = np.array([cat_pos.setdefault(str(c), len(cat_pos)) for c in category], np.intp)
        cat_ids = _check_unique(cat_pos, "category ids")

        psu_pos: dict[tuple[str, str], int] = {}
        psu_index = np.asarray(
            [psu_pos.setdefault(k, len(psu_pos)) for k in zip(map(str, stratum), map(str, psu))],
            dtype=np.intp,
        )
        totals = np.zeros((len(psu_pos), len(cat_ids)))
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(totals, (psu_index, cat_index), weight * value)
        if not np.all(np.isfinite(totals)):
            raise ValueError("design weight * value must be finite")
        by_stratum: dict[str, list[int]] = {}
        for i, (s, _) in enumerate(psu_pos):
            by_stratum.setdefault(s, []).append(i)
        # The PSU draw's layout: PSU rows grouped by stratum, each stratum's
        # PSU count and first position there, and the strata of each count.
        sizes = np.asarray([len(rows) for rows in by_stratum.values()])
        starts = np.cumsum(sizes) - sizes
        size_groups = tuple(
            (idx, starts[idx][:, None] + np.arange(n))
            for n in np.unique(sizes)
            for idx in [np.flatnonzero(sizes == n)]
        )

        object.__setattr__(self, "psu", psu)
        object.__setattr__(self, "stratum", stratum)
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "category_ids", cat_ids)
        object.__setattr__(self, "_cat_index", cat_index)
        object.__setattr__(self, "_strata", tuple(by_stratum))
        object.__setattr__(self, "_psu_totals", totals)
        object.__setattr__(self, "_psu_rows", np.concatenate(list(by_stratum.values())))
        object.__setattr__(self, "_draw_high", np.repeat(sizes, sizes))
        object.__setattr__(self, "_draw_start", np.repeat(starts, sizes))
        object.__setattr__(self, "_size_groups", size_groups)

    @property
    def strata(self) -> tuple[str, ...]:
        return self._strata  # type: ignore[attr-defined]


def resample_column_margin(
    design: SurveyDesign, rng: np.random.Generator, reference_time: int = 0
) -> MarginVector:
    """Column margin from PSUs redrawn with replacement within strata.

    Each stratum's drawn PSU totals are summed, then the strata are added
    in stratum order: the sums of a per-stratum loop, bit for bit.
    """
    d = design
    chosen = rng.integers(0, d._draw_high) + d._draw_start  # type: ignore[attr-defined]
    drawn = d._psu_totals[d._psu_rows[chosen]]  # type: ignore[attr-defined]
    per_stratum = np.empty((len(d.strata), len(d.category_ids)))
    for idx, pos in d._size_groups:  # type: ignore[attr-defined]
        per_stratum[idx] = drawn[pos].sum(axis=1)
    # Sums of finite PSU totals >= 0: finite but for an overflow.
    totals = _finite(np.add.accumulate(per_stratum, axis=0)[-1], "margin values")
    return _adopted(MarginVector, d.category_ids, totals, MarginLevel.CATEGORY, reference_time)


def _resample_iid(
    design: SurveyDesign, rng: np.random.Generator, reference_time: int = 0
) -> MarginVector:
    """Observation-level resample, ignoring the cluster structure."""
    n = len(design.weight)
    chosen = rng.integers(0, n, size=n)
    totals = np.bincount(
        design._cat_index[chosen],  # type: ignore[attr-defined]
        weights=(design.weight * design.value)[chosen],
        minlength=len(design.category_ids),
    )
    # Products >= 0, finite as the PSU totals that sum them are: only these sums can overflow.
    totals = _finite(totals, "margin values")
    return _adopted(MarginVector, design.category_ids, totals, MarginLevel.CATEGORY, reference_time)


def _redraw_census(
    rng: np.random.Generator, lam: np.ndarray, zero: np.ndarray, probs: np.ndarray
) -> np.ndarray:
    """A census redrawn: Poisson row totals of mean ``lam``, zero on the
    ``zero`` rows, each split multinomially over its row's ``probs`` (steps
    1 and 2 of the module's draw order)."""
    totals = rng.poisson(lam)
    totals[zero] = 0
    return rng.multinomial(totals, probs).astype(float)


def resample_aux_margin(
    pool: Sequence[MarginVector] | MarginVector,
    rng: np.random.Generator,
    perturb_cv: float = 0.05,
) -> MarginVector:
    """Replicate of the auxiliary-based row margin.

    A pool of pre-generated replicate margins is sampled uniformly.  Given
    only a single vector there is nothing to resample from, so an area-level
    multiplicative lognormal perturbation with unit mean and the given CV is
    applied instead; this fallback is a pragmatic stand-in, not a resampling
    scheme, and ``perturb_cv=0`` returns the vector unchanged.
    """
    if isinstance(pool, MarginVector):
        if perturb_cv == 0:
            return pool
        sigma = math.sqrt(math.log(1.0 + perturb_cv**2))
        factors = rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=len(pool.ids))
        return pool._times(factors)
    if len(pool) == 0:
        raise ValueError("empty auxiliary pool")
    return pool[int(rng.integers(0, len(pool)))]


@dataclass(frozen=True)
class CellUncertainty:
    """Per-cell MSE/CV plus replicate summaries.

    CV is reported only where the point estimate is strictly positive (NaN
    elsewhere).  When the composition categories are {poor, non-poor} the
    per-area headcount-ratio uncertainty is filled in as well.
    """

    area_ids: tuple[str, ...]
    category_ids: tuple[str, ...]
    point: np.ndarray
    mse: np.ndarray
    cv: np.ndarray
    rep_mean: np.ndarray
    rep_quantiles: dict[str, np.ndarray]
    completed_replicates: int
    dropped_replicates: int
    drop_reasons: tuple[str, ...]
    headcount_point: np.ndarray | None = None
    headcount_mse: np.ndarray | None = None
    headcount_cv: np.ndarray | None = None


def _replicate_quantiles(cells: np.ndarray) -> np.ndarray:
    """The :data:`QUANTILE_LEVELS` of each column of the (B, m) ``cells``, as
    a (5, m) array, read from chunks of cells sorted in one reused buffer."""
    n, m = cells.shape
    out = np.empty((len(QUANTILE_LEVELS), m))
    # np.quantile's "linear" read-out: the order statistics lo and hi around
    # each virtual index (both the last one from n - 1 on) and the weight t.
    vi = (n - 1) * np.array(QUANTILE_LEVELS)
    lo = np.where(vi >= n - 1, -1, np.floor(vi)).astype(np.intp)
    hi = np.where(lo < 0, -1, lo + 1)
    t = (vi - lo)[:, None]
    width = max(1, min(_QUANTILE_CHUNK_BYTES // (8 * n), m))
    buf = np.empty((width, n))
    for c in range(0, m, width):
        chunk = buf[: min(width, m - c)]
        # Adding +0.0 copies the chunk and turns -0.0 into +0.0.
        np.add(cells[:, c : c + width].T, 0.0, out=chunk)
        chunk.sort(axis=1)
        a, b, q = chunk[:, lo].T, chunk[:, hi].T, out[:, c : c + width]
        diff = b - a
        np.add(a, diff * t, out=q)
        np.subtract(b, diff * (1 - t), out=q, where=t >= 0.5)
        # A cell holding NaN sorts it last and reads it, as np.quantile does.
        np.copyto(q, chunk[:, -1], where=np.isnan(chunk[:, -1]))
    return out


def bootstrap_mse(
    req: UpdateRequest,
    design: SurveyDesign | None,
    aux_pool: Sequence[MarginVector] | None = None,
    cfg: BootstrapConfig = BootstrapConfig(),
) -> CellUncertainty:
    """Bootstrap the update in ``req`` and estimate per-cell MSE and CV.

    Requires a converged point estimate.  Replicates whose raking fails
    (for example a replicate row drawn to zero against a positive target)
    are dropped and counted; more than 10% dropped aborts the run.  The MSE
    divisor is the completed replicate count.  A run whose replicate stack
    would pass the memory budget fails before the point fit.
    """
    shape = (cfg.replicates, len(req.seed.area_ids), len(req.seed.category_ids))
    _check_stack("bootstrap", [shape], BootstrapError)
    point = spree_update(req)
    if not point.ipf.converged:
        raise BootstrapError("point estimate did not converge; cannot bootstrap")
    fitted = point.fitted.counts
    area_ids = point.fitted.area_ids
    category_ids = point.fitted.category_ids
    lam = point.row_margin_used.values

    if cfg.col_resample != "none":
        if design is None:
            raise BootstrapError("survey design required unless col_resample='none'")
        if design.category_ids != category_ids:
            raise BootstrapError(
                "survey design categories do not match the composition categories"
            )
    if cfg.aux_resample == "resample-pool" and aux_pool:
        for m in aux_pool:
            if m.ids != area_ids:
                raise BootstrapError("auxiliary pool ids do not match the seed areas")

    t = point.row_margin_used.reference_time

    def one_replicate(
        b: int, rng: np.random.Generator, mult: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | str:
        if cfg.fully_degenerate:
            # Zero-variance limit: the margins are the converged point fit's own
            # (finite) sums, so raking is an exact no-op and the MSE vanishes identically.
            row_m = _adopted(MarginVector, area_ids, mult.sum(axis=1), MarginLevel.SMALL_AREA, t)
            col_m = _adopted(MarginVector, category_ids, mult.sum(axis=0), MarginLevel.CATEGORY, t)
        else:
            if cfg.aux_resample == "resample-pool":
                row_m = resample_aux_margin(
                    aux_pool or point.row_margin_used, rng, cfg.aux_perturb_cv
                )
            else:
                row_m = point.row_margin_used
            if cfg.col_resample == "psu-cluster":
                col_m = resample_column_margin(design, rng, t)
            elif cfg.col_resample == "iid-category":
                col_m = _resample_iid(design, rng, t)
            else:
                col_m = point.col_margin_used

        try:
            row_m, col_m, _ = reconcile_margins(row_m, col_m, req.reconcile_policy)
            # A census draw, whole numbers >= 0 in a new array, or the point fit.
            seed_b = _adopted(Composition, area_ids, category_ids, mult, t)
            res = ipf_fit(seed_b, row_m, col_m, req.ipf_config)
        except (IpfError, ValueError) as e:
            return f"replicate {b}: {e}"
        if not res.converged:
            return f"replicate {b}: did not converge (deviation {res.final_deviation:.3e})"
        return res.fitted.counts, mult

    poor_col = _poor_column(category_ids)
    stack = np.empty(shape)
    # Squares are never -0.0, so starting from zeros changes no bit.
    sq_sum = np.zeros(fitted.shape)
    # numpy sums a one-cell stack's column pairwise, not row after row.
    sq_cells = np.empty(shape) if fitted.size == 1 else None
    h_sq = np.empty(shape[:2]) if poor_col is not None else None
    reasons = []
    n = 0
    # Imported here, so that the other commands do not load it.
    from concurrent.futures import Future, ThreadPoolExecutor

    if cfg.census_resample != "none":
        zero, probs = _census_proportions(fitted)

    helper = ThreadPoolExecutor(1)
    try:
        # Each replicate's stream, and its census (steps 1-2): a future while
        # queued on the helper, an array once drawn here, None if not redrawn.
        queued: deque[tuple[np.random.Generator, Future | np.ndarray | None]] = deque()

        def queue(b: int) -> None:
            rng = rngmod.stream(cfg.seed, b)
            if cfg.census_resample == "none":
                queued.append((rng, None))
            else:
                queued.append((rng, helper.submit(_redraw_census, rng, lam, zero, probs)))

        def take() -> tuple[np.random.Generator, np.ndarray]:
            """The next replicate's stream and census.  While the helper is
            still drawing that census, this thread draws the furthest queued
            census the helper has not started, rather than wait."""
            rng, census = queued.popleft()
            if isinstance(census, Future):
                if not census.done():
                    for i in reversed(range(len(queued))):
                        later_rng, later = queued[i]
                        if isinstance(later, Future) and later.cancel():
                            queued[i] = later_rng, _redraw_census(later_rng, lam, zero, probs)
                            break
                census = census.result()
            return rng, fitted if census is None else census

        for b in range(min(_CENSUSES_AHEAD, cfg.replicates)):
            queue(b)
        for b in range(cfg.replicates):
            if b + _CENSUSES_AHEAD < cfg.replicates:
                queue(b + _CENSUSES_AHEAD)
            rng, mult = take()
            outcome = one_replicate(b, rng, mult)
            if isinstance(outcome, str):
                reasons.append(outcome)
                continue
            fitted_b, mult = outcome
            stack[n] = fitted_b
            sq = np.square(fitted_b - mult)
            sq_sum += sq
            if sq_cells is not None:
                sq_cells[n] = sq
            if h_sq is not None:
                h_sq[n] = np.square(_poor_share(fitted_b, poor_col) - _poor_share(mult, poor_col))
            n += 1
    finally:
        # After an error the censuses still queued are not drawn.
        helper.shutdown(cancel_futures=True)

    dropped = len(reasons)
    if dropped > _MAX_DROPPED_FRACTION * cfg.replicates:
        detail = "; ".join(reasons[:5])
        raise BootstrapError(
            f"{dropped}/{cfg.replicates} replicates dropped (limit "
            f"{_MAX_DROPPED_FRACTION:.0%}): {detail}"
        )

    stack = stack[:n]
    if sq_cells is not None:
        sq_sum = sq_cells[:n].sum(axis=0)
    mse = sq_sum / n
    cv = np.where(fitted > 0, np.sqrt(mse) / np.where(fitted > 0, fitted, 1.0), np.nan)
    rep_mean = stack.mean(axis=0)
    quantiles = _replicate_quantiles(stack.reshape(n, -1))
    rep_quantiles = dict(zip(QUANTILE_LABELS, quantiles.reshape(-1, *fitted.shape)))

    headcount_point = headcount_mse = headcount_cv = None
    if h_sq is not None:
        headcount_point = _poor_share(fitted, poor_col)
        # NaN for an area that has no population in any replicate.
        headcount_mse = _nan_mean(h_sq[:n], axis=0)
        headcount_cv = np.where(
            headcount_point > 0,
            np.sqrt(headcount_mse) / np.where(headcount_point > 0, headcount_point, 1.0),
            np.nan,
        )

    return CellUncertainty(
        area_ids,
        category_ids,
        fitted.copy(),
        mse,
        cv,
        rep_mean,
        rep_quantiles,
        n,
        dropped,
        tuple(reasons),
        headcount_point,
        headcount_mse,
        headcount_cv,
    )
