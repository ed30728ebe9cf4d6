"""Synthetic-scenario generator for the validation harness.

A scenario is a small country: regions with known populations and growth,
areas with within-region shares that drift between the two census years,
per-area poverty rates, a pool of noisy auxiliary population estimates, and
a clustered survey feeding the column margin.  Every generator parameter
lives in one config so a scenario is reproducible from a single record.

The default config is a 3-region, 12-area migration shock: one region
reshuffles a third of its population across areas while the others barely
move, and the auxiliary estimates carry a small fixed per-area distortion
plus sampling noise.  Under this design the dynamic margin wins where
shares moved a lot and loses to the fixed margin where they barely moved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spreekit import rng as rngmod
from spreekit.bootstrap import SurveyDesign, _check_stack, _unit_lognormal
from spreekit.composition import (
    AreaHierarchy,
    Composition,
    MarginLevel,
    MarginVector,
    check_integer,
)
from spreekit.margins import QUANTILE_CUTOFF
from spreekit.mpi import POVERTY_CATEGORIES
from spreekit.simulation import STRATEGIES, SimulationPlan

# Stream index for scenario construction noise, far above any replicate
# index so generator draws never collide with simulation streams.
_GENERATOR_STREAM = 2**31

_DEFAULT_BASE_SHARES = (
    (0.30, 0.25, 0.25, 0.20),
    (0.35, 0.25, 0.22, 0.18),
    (0.28, 0.28, 0.28, 0.16),
)
# Relative within-region share changes between the census years.  The third
# region takes the shock; the rest drift by fractions of a percent.
_DEFAULT_SHARE_CHANGES = (
    (0.003, -0.003, 0.001, -0.001),
    (0.005, -0.004, 0.002, -0.003),
    (0.34, -0.30, -0.043, 0.005),
)
_DEFAULT_POVERTY_T0 = (
    (0.50, 0.45, 0.40, 0.47),
    (0.38, 0.33, 0.30, 0.36),
    (0.60, 0.55, 0.50, 0.57),
)
_DEFAULT_POVERTY_T = (
    (0.46, 0.42, 0.38, 0.43),
    (0.35, 0.31, 0.28, 0.33),
    (0.54, 0.50, 0.46, 0.52),
)


@dataclass(frozen=True)
class ScenarioConfig:
    """All generator knobs for one synthetic scenario.

    ``aux_bias_range`` bounds the fixed multiplicative distortion applied to
    each area's auxiliary estimates (signs alternate within a region), and
    ``aux_cv`` sets the lognormal sampling noise per pool entry.
    ``aux_exact`` replaces the pool with the exact target-year populations,
    which makes the dynamic margin error-free by construction.
    """

    regions: int = 3
    areas_per_region: int = 4
    region_populations: tuple[float, ...] = (120_000.0, 150_000.0, 100_000.0)
    region_growth: tuple[float, ...] = (0.02, 0.025, 0.09)
    base_shares: tuple[tuple[float, ...], ...] = _DEFAULT_BASE_SHARES
    share_changes: tuple[tuple[float, ...], ...] = _DEFAULT_SHARE_CHANGES
    poverty_t0: tuple[tuple[float, ...], ...] = _DEFAULT_POVERTY_T0
    poverty_t: tuple[tuple[float, ...], ...] = _DEFAULT_POVERTY_T
    aux_cv: float = 0.10
    aux_bias_range: tuple[float, float] = (0.025, 0.05)
    aux_pool_size: int = 200
    aux_exact: bool = False
    psus_per_region: int = 8
    persons_per_psu: int = 120
    replicates: int = 500
    seed: int = 20250823
    quantile_cutoff: float = QUANTILE_CUTOFF
    strategies: tuple[str, ...] = STRATEGIES

    def __post_init__(self) -> None:
        for name in ("regions", "areas_per_region", "aux_pool_size", "psus_per_region",
                     "persons_per_psu", "replicates"):
            check_integer(name, getattr(self, name), 1)
        check_integer("seed", self.seed, 0)
        per_region = {
            "region_populations": self.region_populations,
            "region_growth": self.region_growth,
            "base_shares": self.base_shares,
            "share_changes": self.share_changes,
            "poverty_t0": self.poverty_t0,
            "poverty_t": self.poverty_t,
        }
        for name, seq in per_region.items():
            if len(seq) != self.regions:
                raise ValueError(f"{name} must have one entry per region")
        per_area = ("base_shares", "share_changes", "poverty_t0", "poverty_t")
        for name in per_area:
            for row in getattr(self, name):
                if len(row) != self.areas_per_region:
                    raise ValueError(f"{name} rows must have one entry per area")
        floats = {**per_region, "aux_cv": (self.aux_cv,), "aux_bias_range": self.aux_bias_range}
        for name, seq in floats.items():
            values = [v for row in seq for v in row] if name in per_area else seq
            if not all(-math.inf < v < math.inf for v in values):
                raise ValueError(f"{name} must be finite")
        for row in self.base_shares:
            if abs(sum(row) - 1.0) > 1e-9:
                raise ValueError("base_shares rows must sum to 1")
        for table in (self.poverty_t0, self.poverty_t):
            for row in table:
                if any(not 0 < v < 1 for v in row):
                    raise ValueError("poverty rates must lie strictly in (0, 1)")
        if self.aux_cv < 0:
            raise ValueError("aux_cv must be >= 0")
        lo, hi = self.aux_bias_range
        if not 0 <= lo <= hi:
            raise ValueError("aux_bias_range must satisfy 0 <= lo <= hi")
        if any(not v > 0 for v in self.region_populations):
            raise ValueError("region_populations must be > 0")
        if any(not v > -1 for v in self.region_growth):
            raise ValueError("region_growth must be > -1")


def _poverty_cells(populations: np.ndarray, rates: np.ndarray) -> np.ndarray:
    pops = np.round(populations)
    poor = np.round(pops * rates)
    return np.column_stack([poor, pops - poor])


def build_scenario(cfg: ScenarioConfig) -> SimulationPlan:
    """Materialise a config into a ready-to-run simulation plan.

    Construction noise (aux distortions, pool entries, survey draws) comes
    from a dedicated RNG stream of ``cfg.seed``, so the plan is a pure
    function of the config.  A config whose auxiliary pool (its noise and
    its margins) and design columns would pass the replicate memory budget
    fails before anything is drawn.
    """
    areas = cfg.regions * cfg.areas_per_region
    pool = (areas,) if cfg.aux_exact else (2, cfg.aux_pool_size, areas)
    design_rows = cfg.regions * cfg.psus_per_region * len(POVERTY_CATEGORIES)
    _check_stack("scenario", [pool, (design_rows, 5)], ValueError, "pool and design array")
    rng = rngmod.stream(cfg.seed, _GENERATOR_STREAM)
    hierarchy = AreaHierarchy.from_pairs(
        (f"R{k + 1}-A{a + 1}", f"R{k + 1}")
        for k in range(cfg.regions)
        for a in range(cfg.areas_per_region)
    )
    region_ids, area_ids = hierarchy.large_ids, hierarchy.small_ids

    shares_t0 = np.asarray(cfg.base_shares, dtype=float)
    raw_t = shares_t0 * (1.0 + np.asarray(cfg.share_changes, dtype=float))
    shares_t = raw_t / raw_t.sum(axis=1, keepdims=True)

    region_pop_t0 = np.asarray(cfg.region_populations, dtype=float)
    region_pop_t = region_pop_t0 * (1.0 + np.asarray(cfg.region_growth, dtype=float))

    pop_t0 = (shares_t0 * region_pop_t0[:, None]).ravel()
    pop_t = (shares_t * region_pop_t[:, None]).ravel()
    rate_t0 = np.asarray(cfg.poverty_t0, dtype=float).ravel()
    rate_t = np.asarray(cfg.poverty_t, dtype=float).ravel()

    truth_t0 = Composition(
        area_ids, POVERTY_CATEGORIES, _poverty_cells(pop_t0, rate_t0), 0
    )
    truth_t = Composition(
        area_ids, POVERTY_CATEGORIES, _poverty_cells(pop_t, rate_t), 1
    )
    large_totals_t = MarginVector(
        region_ids,
        truth_t.counts.sum(axis=1).reshape(cfg.regions, -1).sum(axis=1),
        MarginLevel.LARGE_AREA,
        1,
    )

    true_rows_t = truth_t.counts.sum(axis=1)
    if cfg.aux_exact:
        aux_pool = (
            MarginVector(area_ids, true_rows_t, MarginLevel.SMALL_AREA, 1),
        )
    else:
        lo, hi = cfg.aux_bias_range
        magnitudes = rng.uniform(lo, hi, size=len(area_ids))
        signs = np.where(np.arange(len(area_ids)) % 2 == 0, 1.0, -1.0)
        distortion = 1.0 + signs * magnitudes
        if cfg.aux_cv > 0:
            noise = _unit_lognormal(rng, cfg.aux_cv, (cfg.aux_pool_size, len(area_ids)), "aux_cv")
        else:
            noise = np.ones((cfg.aux_pool_size, len(area_ids)))
        aux_pool = tuple(
            MarginVector(
                area_ids, true_rows_t * distortion * noise[b], MarginLevel.SMALL_AREA, 1
            )
            for b in range(cfg.aux_pool_size)
        )

    psu, stratum, weight, category, value = [], [], [], [], []
    for k, region in enumerate(region_ids):
        block = slice(k * cfg.areas_per_region, (k + 1) * cfg.areas_per_region)
        region_rate = float(
            (rate_t[block] * pop_t[block]).sum() / pop_t[block].sum()
        )
        w = float(region_pop_t[k]) / (cfg.psus_per_region * cfg.persons_per_psu)
        for i in range(cfg.psus_per_region):
            psu_rate = float(np.clip(region_rate + rng.normal(0.0, 0.03), 0.01, 0.99))
            poor = int(rng.binomial(cfg.persons_per_psu, psu_rate))
            for cat, count in zip(POVERTY_CATEGORIES, (poor, cfg.persons_per_psu - poor)):
                psu.append(f"{region}-P{i + 1}")
                stratum.append(region)
                weight.append(w)
                category.append(cat)
                value.append(float(count))
    design = SurveyDesign(
        np.asarray(psu, dtype=object),
        np.asarray(stratum, dtype=object),
        np.asarray(weight, dtype=float),
        np.asarray(category, dtype=object),
        np.asarray(value, dtype=float),
    )

    return SimulationPlan(
        replicates=cfg.replicates,
        seed=cfg.seed,
        truth_t0=truth_t0,
        truth_t=truth_t,
        hierarchy=hierarchy,
        large_totals_t=large_totals_t,
        strategies=cfg.strategies,
        survey_design=design,
        aux_pool=aux_pool,
        quantile_cutoff=cfg.quantile_cutoff,
    )


def migration_shock_config(
    replicates: int = ScenarioConfig.replicates, seed: int = ScenarioConfig.seed
) -> ScenarioConfig:
    """The shipped 3-region, 12-area shock scenario."""
    return ScenarioConfig(replicates=replicates, seed=seed)
