"""Iterative proportional fitting of a seed table to target margins.

Alternating row/column rescaling (raking).  The sweep order is fixed
(rows first) for bit-reproducibility, and the fitted table preserves every
odds ratio of the seed on its positive support.

A sweep makes five passes over the table: scale the rows, sum the columns,
scale the columns, then sum the rows and the columns for the convergence
check.  Those row sums are the ones the next sweep scales by, so they are
not computed again.
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
        relative (reconcile first), or when mass would have to be created
        in an all-zero row or column.
    """
    if seed.area_ids != row_target.ids:
        raise IpfError("row target ids do not match seed area ids")
    if seed.category_ids != col_target.ids:
        raise IpfError("column target ids do not match seed category ids")
    rt = np.asarray(row_target.values, dtype=float)
    ct = np.asarray(col_target.values, dtype=float)
    if np.any(rt < 0) or np.any(ct < 0):
        raise IpfError("margin targets must be non-negative")
    total_r, total_c = rt.sum(), ct.sum()
    if abs(total_r - total_c) > 1e-6 * max(total_r, total_c, 1.0):
        raise IpfError(
            f"margin totals disagree (rows {total_r!r}, columns {total_c!r}); "
            "reconcile the margins before fitting"
        )

    counts = np.array(seed.counts, dtype=float)
    if cfg.zero_mode == "epsilon":
        counts[counts == 0] = cfg.epsilon

    # Mass cannot be created in a row/column with no seed support.
    row_sums = counts.sum(axis=1)
    dead_rows = [seed.area_ids[i] for i in np.flatnonzero((row_sums == 0) & (rt > 0))]
    if dead_rows:
        raise IpfError(f"positive row target but all-zero seed row for: {dead_rows}")
    col_sums = counts.sum(axis=0)
    dead_cols = [seed.category_ids[i] for i in np.flatnonzero((col_sums == 0) & (ct > 0))]
    if dead_cols:
        raise IpfError(f"positive column target but all-zero seed column for: {dead_cols}")

    row_scale, col_scale = np.maximum(rt, 1.0), np.maximum(ct, 1.0)
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        factors = np.divide(rt, row_sums, out=np.ones_like(rt), where=row_sums > 0)
        counts *= factors[:, None]
        col_sums = counts.sum(axis=0)
        factors = np.divide(ct, col_sums, out=np.ones_like(ct), where=col_sums > 0)
        counts *= factors[None, :]
        row_sums = counts.sum(axis=1)
        row_dev = np.abs(row_sums - rt) / row_scale
        col_dev = np.abs(counts.sum(axis=0) - ct) / col_scale
        dev = max(row_dev.max(), col_dev.max())
        if dev <= cfg.tolerance:
            converged = True
            break

    if row_dev.max() >= col_dev.max():
        worst = ("row", seed.area_ids[int(row_dev.argmax())], float(row_dev.max()))
    else:
        worst = ("column", seed.category_ids[int(col_dev.argmax())], float(col_dev.max()))

    fitted = Composition(
        seed.area_ids, seed.category_ids, counts, row_target.reference_time
    )
    return IpfResult(fitted, iterations, converged, float(dev), worst, cfg)
