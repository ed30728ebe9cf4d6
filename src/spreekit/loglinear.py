"""Saturated log-linear decomposition of a composition.

Splits the log table into an overall mean, area and category main effects,
and an interaction matrix under the centered (zero-sum) parameterisation.
The interaction part is exactly what raking leaves untouched, so the max
interaction difference between a seed and its fitted table is the direct
diagnostic for structure preservation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spreekit.composition import Composition, _adopted, _check_unique


@dataclass(frozen=True)
class LogLinearDecomposition:
    """Effects of ``log counts = overall + area + category + interaction``.

    Main effects and every row/column of the interaction sum to zero
    (centered parameterisation); exponentiating the summed effects
    reproduces the composition cell-wise.
    """

    area_ids: tuple[str, ...]
    category_ids: tuple[str, ...]
    overall: float
    area_effects: np.ndarray
    category_effects: np.ndarray
    interaction: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "area_ids", _check_unique(self.area_ids, "area ids"))
        object.__setattr__(
            self, "category_ids", _check_unique(self.category_ids, "category ids")
        )
        a = np.array(self.area_effects, dtype=float)
        j = np.array(self.category_effects, dtype=float)
        aj = np.array(self.interaction, dtype=float)
        if a.shape != (len(self.area_ids),) or j.shape != (len(self.category_ids),):
            raise ValueError("main effect shapes do not match ids")
        if aj.shape != (len(self.area_ids), len(self.category_ids)):
            raise ValueError("interaction shape does not match ids")
        # Zero up to the rounding of effects that come from means of n terms
        # as large as a log cell: n * n rounding errors of that size, where n
        # is the longer side; never below 1e-9.
        cell = abs(self.overall) + sum(np.abs(x).max(initial=0.0) for x in (a, j, aj))
        bound = max(aj.shape) ** 2 * np.finfo(float).eps * cell
        tol = bound if 1e-9 < bound < np.inf else 1e-9
        if abs(a.sum()) > tol or abs(j.sum()) > tol:
            raise ValueError("main effects must sum to zero")
        if np.abs(aj.sum(axis=0)).max() > tol or np.abs(aj.sum(axis=1)).max() > tol:
            raise ValueError("interaction rows and columns must sum to zero")
        for name, arr in (("area_effects", a), ("category_effects", j), ("interaction", aj)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def reconstruct(self) -> np.ndarray:
        """Cell counts implied by the effects: exp of their sum."""
        return np.exp(
            self.overall
            + self.area_effects[:, None]
            + self.category_effects[None, :]
            + self.interaction
        )


def decompose(c: Composition) -> LogLinearDecomposition:
    """Centered decomposition of the log table.

    Undefined at zero, so any non-positive cell is a hard error; run
    diagnostics on an epsilon-adjusted copy if the table contains zeros.
    """
    bad = np.argwhere(c.counts <= 0)
    if bad.size:
        cells = [(c.area_ids[i], c.category_ids[j]) for i, j in bad[:20]]
        raise ValueError(f"non-positive cells, decomposition undefined: {cells}")
    log = np.log(c.counts)
    overall = log.mean()
    area = log.mean(axis=1) - overall
    category = log.mean(axis=0) - overall
    interaction = log - overall - area[:, None] - category[None, :]
    return _adopted(
        LogLinearDecomposition, c.area_ids, c.category_ids, float(overall), area, category,
        interaction,
    )


def association_distance(x: Composition, y: Composition) -> float:
    """Max absolute difference between the interaction effects of two tables.

    Zero (up to tolerance) whenever ``y`` is a raked version of ``x``:
    rescaling rows or columns moves only the main effects.
    """
    if x.area_ids != y.area_ids or x.category_ids != y.category_ids:
        raise ValueError("compositions must share area and category ids")
    dx = decompose(x)
    dy = decompose(y)
    return float(np.abs(dx.interaction - dy.interaction).max())
