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
   totals rounded half to even and forced to zero on zero-mass areas.  It
   consumes the stream exactly as one draw per positive-mass area in area
   order would (zero-mass areas and zero totals draw nothing).
3. Auxiliary row margin: one ``rng.integers(0, len(pool))`` when a replicate
   pool is supplied, else one vectorised ``rng.lognormal`` over areas for
   the labelled perturbation fallback.
4. Column margin: under ``psu-cluster``, one ``rng.integers(0, n, size=n)``
   per stratum in first-appearance order (PSUs within a stratum in
   first-appearance order); under ``iid-category``, a single
   ``rng.integers(0, n_obs, size=n_obs)`` over observations.

The margins drawn in steps 3 and 4 go to the reconcile step as they are.  The
five replicate quantiles (:data:`QUANTILE_LEVELS`, named by
:data:`QUANTILE_LABELS`, also the quantile columns of the validation
summaries) come from one ``np.quantile`` call over the replicate stack, and
``_nan_mean`` is the one NaN-skipping mean of the replicate layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from spreekit import rng as rngmod
from spreekit.composition import (
    Composition,
    MarginLevel,
    MarginVector,
    check_integer,
    to_probabilities,
)
from spreekit.ipf import IpfError, ipf_fit
from spreekit.margins import reconcile_margins
from spreekit.mpi import POVERTY_CATEGORIES, _poor_share
from spreekit.update import UpdateRequest, spree_update

ColResample = Literal["psu-cluster", "iid-category", "none"]
AuxResample = Literal["resample-pool", "none"]

QUANTILE_LABELS = ("q2.5", "q25", "median", "q75", "q97.5")
QUANTILE_LEVELS = (0.025, 0.25, 0.5, 0.75, 0.975)
# Share of replicates whose raking may fail before a run is aborted.
_MAX_DROPPED_FRACTION = 0.10


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


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count, master seed, and resampling switches.

    ``poisson_mode`` / ``multinomial_mode`` set to ``"mean"`` replace the
    census replication draws by their expectation; together with
    ``aux_resample="none"``, ``aux_perturb_cv=0`` and ``col_resample="none"``
    every noise source is degenerate and the MSE is exactly zero, which
    anchors the formula tests.
    """

    replicates: int = 100
    seed: int = 0
    col_resample: ColResample = "psu-cluster"
    aux_resample: AuxResample = "resample-pool"
    aux_perturb_cv: float = 0.05
    poisson_mode: Literal["sample", "mean"] = "sample"
    multinomial_mode: Literal["sample", "mean"] = "sample"

    def __post_init__(self) -> None:
        check_integer("replicates", self.replicates, 1)
        check_integer("seed", self.seed, 0)
        if self.aux_perturb_cv < 0:
            raise ValueError("aux_perturb_cv must be >= 0")

    @property
    def fully_degenerate(self) -> bool:
        return (
            self.poisson_mode == "mean"
            and self.multinomial_mode == "mean"
            and self.aux_resample == "none"
            and self.col_resample == "none"
        )


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

        cat_ids = tuple(dict.fromkeys(str(c) for c in category))
        cat_pos = {c: i for i, c in enumerate(cat_ids)}
        cat_index = np.asarray([cat_pos[str(c)] for c in category], dtype=np.intp)

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
        psus_by_stratum = {s: np.asarray(rows, dtype=int) for s, rows in by_stratum.items()}

        object.__setattr__(self, "psu", psu)
        object.__setattr__(self, "stratum", stratum)
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "category_ids", cat_ids)
        object.__setattr__(self, "_cat_index", cat_index)
        object.__setattr__(self, "_strata", tuple(psus_by_stratum))
        object.__setattr__(self, "_psu_totals", totals)
        object.__setattr__(self, "_psus_by_stratum", psus_by_stratum)

    @property
    def strata(self) -> tuple[str, ...]:
        return self._strata  # type: ignore[attr-defined]


def resample_column_margin(
    design: SurveyDesign, rng: np.random.Generator, reference_time: int = 0
) -> MarginVector:
    """Column margin from PSUs redrawn with replacement within strata."""
    totals = np.zeros(len(design.category_ids))
    psu_totals = design._psu_totals  # type: ignore[attr-defined]
    for s in design.strata:
        rows = design._psus_by_stratum[s]  # type: ignore[attr-defined]
        chosen = rng.integers(0, rows.size, size=rows.size)
        totals += psu_totals[rows[chosen]].sum(axis=0)
    return MarginVector(design.category_ids, totals, MarginLevel.CATEGORY, reference_time)


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
    return MarginVector(design.category_ids, totals, MarginLevel.CATEGORY, reference_time)


def _split_rows(
    rng: np.random.Generator, totals: np.ndarray, probs: np.ndarray, row_mass: np.ndarray
) -> np.ndarray:
    """Multinomial split of each row total over the row's probabilities.

    Totals round half to even; rows without mass get zero.  One vectorised
    call consumes the stream exactly as one draw per positive-mass row, in
    row order, would: zero totals take no randomness.
    """
    n = np.where(row_mass > 0, np.rint(totals), 0).astype(np.int64)
    return rng.multinomial(n, probs).astype(float)


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
        return pool.with_values(pool.values * factors)
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
    divisor is the completed replicate count.
    """
    point = spree_update(req)
    if not point.ipf.converged:
        raise BootstrapError("point estimate did not converge; cannot bootstrap")
    fitted = point.fitted.counts
    area_ids = point.fitted.area_ids
    category_ids = point.fitted.category_ids
    lam = point.row_margin_used.values
    probs = to_probabilities(point.fitted).probs
    row_mass = fitted.sum(axis=1)

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

    def one_replicate(b: int) -> tuple[np.ndarray, np.ndarray] | str:
        rng = rngmod.stream(cfg.seed, b)

        if cfg.fully_degenerate:
            # Zero-variance limit: the replicate composition is the point
            # composition and the margins are its own realised margins, so
            # raking is an exact no-op and the MSE vanishes identically.
            mult = fitted.copy()
            row_m = MarginVector(area_ids, mult.sum(axis=1), MarginLevel.SMALL_AREA, t)
            col_m = MarginVector(category_ids, mult.sum(axis=0), MarginLevel.CATEGORY, t)
        else:
            if cfg.poisson_mode == "sample":
                pois = rng.poisson(lam).astype(float)
            else:
                pois = row_mass.copy()
            if cfg.multinomial_mode == "sample":
                mult = _split_rows(rng, pois, probs, row_mass)
            else:
                mult = pois[:, None] * probs

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
            seed_b = Composition(area_ids, category_ids, mult, t)
            res = ipf_fit(seed_b, row_m, col_m, req.ipf_config)
        except (IpfError, ValueError) as e:
            return f"replicate {b}: {e}"
        if not res.converged:
            return f"replicate {b}: did not converge (deviation {res.final_deviation:.3e})"
        return res.fitted.counts, mult

    outcomes = [one_replicate(b) for b in range(cfg.replicates)]

    reasons = tuple(o for o in outcomes if isinstance(o, str))
    pairs = [o for o in outcomes if not isinstance(o, str)]
    dropped = len(reasons)
    if dropped > _MAX_DROPPED_FRACTION * cfg.replicates:
        detail = "; ".join(reasons[:5])
        raise BootstrapError(
            f"{dropped}/{cfg.replicates} replicates dropped (limit "
            f"{_MAX_DROPPED_FRACTION:.0%}): {detail}"
        )

    fitted_reps = np.stack([p[0] for p in pairs])
    mult_reps = np.stack([p[1] for p in pairs])
    diff = fitted_reps - mult_reps
    mse = (diff**2).sum(axis=0) / len(pairs)
    cv = np.where(fitted > 0, np.sqrt(mse) / np.where(fitted > 0, fitted, 1.0), np.nan)
    rep_mean = fitted_reps.mean(axis=0)
    rep_quantiles = dict(zip(QUANTILE_LABELS, np.quantile(fitted_reps, QUANTILE_LEVELS, axis=0)))

    headcount_point = headcount_mse = headcount_cv = None
    if set(category_ids) == set(POVERTY_CATEGORIES):
        poor_col = category_ids.index("poor")
        headcount_point = _poor_share(fitted, poor_col)
        h_diff = _poor_share(fitted_reps, poor_col) - _poor_share(mult_reps, poor_col)
        # NaN for an area that has no population in any replicate.
        headcount_mse = _nan_mean(h_diff**2, axis=0)
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
        len(pairs),
        dropped,
        reasons,
        headcount_point,
        headcount_mse,
        headcount_cv,
    )
