"""Iterative proportional fitting of a seed table to target margins.

Alternating row/column rescaling (raking).  The sweep order is fixed
(rows first) for bit-reproducibility, and the fitted table preserves every
odds ratio of the seed on its positive support.

A sweep makes four passes over the table: scale the rows, sum the columns,
scale the columns, then sum the rows, which the next sweep scales by.  The
columns are summed again for the convergence check only on a sweep whose
rows are within tolerance, or on the last one: on any other the fit cannot
stop, and a NaN cell makes its row's deviation NaN as well as its column's.
A row or column whose sum is zero gets a factor of exactly 1.0.  Sums,
factors and deviations live in buffers allocated once per fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from spreekit.composition import Composition, MarginVector

ZeroMode = Literal["structural", "epsilon"]


class IpfError(ValueError):
    """Raised when inputs make a fit impossible (not for non-convergence)."""


@dataclass(frozen=True)
class IpfConfig:
    """Raking controls.

    tolerance is the max absolute relative deviation of fitted margins from
    their targets (denominator max(target, 1)).  Under ``structural`` zero
    handling a zero seed cell stays zero; ``epsilon`` mode adds ``epsilon``
    to zero cells before fitting, which practitioners may prefer when zero
    counts would otherwise degrade the update.
    """

    tolerance: float = 1e-8
    max_iterations: int = 1000
    zero_mode: ZeroMode = "structural"
    epsilon: float = 0.5

    def __post_init__(self) -> None:
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.zero_mode not in ("structural", "epsilon"):
            raise ValueError(f"unknown zero_mode {self.zero_mode!r}")
        if self.zero_mode == "epsilon" and not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")


@dataclass(frozen=True)
class IpfResult:
    fitted: Composition
    iterations_used: int
    converged: bool
    final_deviation: float
    worst_margin: tuple[str, str, float]  # (axis, id, deviation) diagnostic
    config: IpfConfig

    def __post_init__(self) -> None:
        if self.converged and self.final_deviation > self.config.tolerance:
            raise ValueError("converged result above tolerance")


def ipf_fit(
    seed: Composition,
    row_target: MarginVector,
    col_target: MarginVector,
    cfg: IpfConfig = IpfConfig(),
) -> IpfResult:
    """Rake ``seed`` to the target row and column margins.

    Alternates row and column rescaling (rows first) until both margins match
    within ``cfg.tolerance`` or ``cfg.max_iterations`` sweeps are spent.
    Non-convergence is surfaced via ``converged=False`` rather than an
    exception; the caller decides whether the last iterate is usable.

    Raises
    ------
    IpfError
        On id mismatch, on margin totals differing by more than 1e-6
        relative (reconcile first), when mass would have to be created
        in an all-zero row or column, or at the first sweep whose margin
        deviation is NaN, or at a last sweep whose deviation is infinite (the
        raking overflowed).
    """
    if seed.area_ids != row_target.ids:
        raise IpfError("row target ids do not match seed area ids")
    if seed.category_ids != col_target.ids:
        raise IpfError("column target ids do not match seed category ids")
    # MarginVector values are finite, non-negative and read-only.
    rt, ct = row_target.values, col_target.values
    total_r, total_c = np.add.reduce(rt), np.add.reduce(ct)
    if abs(total_r - total_c) > 1e-6 * max(total_r, total_c, 1.0):
        raise IpfError(
            f"margin totals disagree (rows {total_r!r}, columns {total_c!r}); "
            "reconcile the margins before fitting"
        )

    counts = np.array(seed.counts, dtype=float)
    if cfg.zero_mode == "epsilon":
        counts[counts == 0] = cfg.epsilon

    row_sums, col_sums = np.empty_like(rt), np.empty_like(ct)
    row_dev, col_dev = np.empty_like(rt), np.empty_like(ct)

    # Mass cannot be created in a row/column with no seed support.  Rows are
    # checked before the columns are summed, so a column sum that overflows
    # cannot warn ahead of a dead row.
    np.add.reduce(counts, axis=1, out=row_sums)
    if not row_sums.all():
        dead_rows = [seed.area_ids[i] for i in np.flatnonzero((row_sums == 0) & (rt > 0))]
        if dead_rows:
            raise IpfError(f"positive row target but all-zero seed row for: {dead_rows}")
    np.add.reduce(counts, axis=0, out=col_sums)
    if not col_sums.all():
        dead_cols = [seed.category_ids[i] for i in np.flatnonzero((col_sums == 0) & (ct > 0))]
        if dead_cols:
            raise IpfError(f"positive column target but all-zero seed column for: {dead_cols}")

    row_scales, col_scales = np.maximum(rt, 1.0), np.maximum(ct, 1.0)
    row_factors, col_factors = np.empty_like(rt), np.empty_like(ct)
    row_live, col_live = np.empty(rt.shape, bool), np.empty(ct.shape, bool)
    row_factors_2d = row_factors[:, None]
    tolerance, last = cfg.tolerance, cfg.max_iterations
    converged = False
    for iterations in range(1, last + 1):
        np.greater(row_sums, 0, out=row_live)
        row_factors.fill(1.0)
        np.divide(rt, row_sums, out=row_factors, where=row_live)
        counts *= row_factors_2d
        np.add.reduce(counts, axis=0, out=col_sums)
        np.greater(col_sums, 0, out=col_live)
        col_factors.fill(1.0)
        np.divide(ct, col_sums, out=col_factors, where=col_live)
        counts *= col_factors
        np.add.reduce(counts, axis=1, out=row_sums)
        np.subtract(row_sums, rt, out=row_dev)
        np.abs(row_dev, out=row_dev)
        np.divide(row_dev, row_scales, out=row_dev)
        row_max = np.maximum.reduce(row_dev)
        if row_max != row_max:
            # An overflow left NaN cells, which no later sweep removes.
            raise IpfError(f"margin deviation is NaN at sweep {iterations}: the raking overflowed")
        if row_max <= tolerance or iterations == last:
            if row_max == np.inf:
                # Infinite cells on the last sweep: the next would make them NaN.
                raise IpfError(
                    f"margin deviation is infinite at sweep {iterations}: the raking overflowed"
                )
            np.add.reduce(counts, axis=0, out=col_sums)
            np.subtract(col_sums, ct, out=col_dev)
            np.abs(col_dev, out=col_dev)
            np.divide(col_dev, col_scales, out=col_dev)
            col_max = np.maximum.reduce(col_dev)
            dev = max(row_max, col_max)
            if dev <= tolerance:
                converged = True
                break

    if row_max >= col_max:
        worst = ("row", seed.area_ids[int(row_dev.argmax())], float(row_max))
    else:
        worst = ("column", seed.category_ids[int(col_dev.argmax())], float(col_max))

    fitted = Composition(
        seed.area_ids, seed.category_ids, counts, row_target.reference_time
    )
    return IpfResult(fitted, iterations, converged, float(dev), worst, cfg)
