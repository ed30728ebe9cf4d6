"""The documented per-replicate draw order, pinned to raw draws.

``fixtures/rng_contract.json`` holds, for three streams, what each draw step
of the bootstrap and each draw of a validation round gave on
``fixtures/mini`` when it was written (with the numpy version it names).  A
numpy release that changes a stream, or a refactor that changes what a step
draws or in which order, fails the test named after that step.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from spreekit import io as sio, rng as rngmod, run_simulation, simulation
from spreekit.bootstrap import (
    _census_proportions,
    _redraw_census,
    _resample_iid,
    resample_aux_margin,
    resample_column_margin,
)

from conftest import FIXTURES

MINI = FIXTURES / "mini"
CONTRACT = json.loads((FIXTURES / "rng_contract.json").read_text())
CASES = pytest.mark.parametrize(
    "case", CONTRACT["cases"], ids=[f"{m}-{i}" for m, i in (c["stream"] for c in CONTRACT["cases"])]
)


def stream(case) -> np.random.Generator:
    return rngmod.stream(*case["stream"])


def floats(hexes) -> list[float]:
    return [float.fromhex(h) for h in hexes]


def census_split(case) -> np.ndarray:
    census = sio.load_composition(MINI / "census2002.csv")
    lam = census.counts.sum(axis=1)
    return _redraw_census(stream(case), lam, *_census_proportions(census.counts))


@CASES
def test_step1_poisson_totals(case):
    # Every mini area has mass, so each row of the split sums to its total.
    assert census_split(case).sum(axis=1).tolist() == case["poisson_totals"]


@CASES
def test_step2_multinomial_split(case):
    assert census_split(case).tolist() == case["multinomial_split"]


@CASES
def test_step3_pool_index(case):
    aux = sio.load_aux_populations(MINI / "aux.csv")[2013]
    pool = [aux.with_values(aux.values + k) for k in range(12)]
    drawn = resample_aux_margin(pool, stream(case))
    assert [k for k, m in enumerate(pool) if m is drawn] == [case["pool_index"]]


@CASES
def test_step3_lognormal_fallback(case):
    aux = sio.load_aux_populations(MINI / "aux.csv")[2013]
    drawn = resample_aux_margin(aux, stream(case), perturb_cv=0.05)
    assert drawn.values.tolist() == floats(case["lognormal_fallback"])


@CASES
def test_step4_psu_cluster(case):
    design = sio.load_design(MINI / "design.csv")
    drawn = resample_column_margin(design, stream(case))
    assert drawn.values.tolist() == floats(case["psu_cluster"])


@CASES
def test_step4_iid_category(case):
    design = sio.load_design(MINI / "design.csv")
    drawn = _resample_iid(design, stream(case))
    assert drawn.values.tolist() == floats(case["iid_category"])


@CASES
def test_validation_round_order(case, monkeypatch):
    """Round r of ``run_simulation`` on stream r redraws the base-year census,
    then the target-year census, then the column margin."""
    master, index = case["stream"]
    real_census, draws = simulation.replicate_census, []

    def census(truth, rng):
        drawn = real_census(truth, rng)
        draws.append(drawn.counts.tolist())
        return drawn

    def column(design, rng, reference_time=0):
        drawn = resample_column_margin(design, rng, reference_time)
        draws.append(drawn.values.tolist())
        return drawn

    monkeypatch.setattr(simulation, "replicate_census", census)
    monkeypatch.setattr(simulation, "resample_column_margin", column)
    plan = sio.load_plan(FIXTURES / "mini_plan.json")
    run_simulation(replace(plan, seed=master, replicates=index + 1))
    want = case["validation_round"]
    assert draws[3 * index :] == [
        want["base_census"], want["target_census"], floats(want["column_margin"])
    ]
