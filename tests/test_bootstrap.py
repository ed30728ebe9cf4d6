import dataclasses
import math
import re
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreekit import (
    AreaHierarchy,
    BootstrapConfig,
    BootstrapError,
    CellUncertainty,
    Composition,
    MarginLevel,
    MarginVector,
    SurveyDesign,
    UpdateRequest,
    bootstrap_mse,
    fixed_shares,
    resample_aux_margin,
    resample_column_margin,
    spree_update,
    to_probabilities,
)
from spreekit import io as sio
from spreekit import bootstrap, ipf, rng as rngmod, run_simulation
from spreekit.bootstrap import (
    QUANTILE_LABELS,
    QUANTILE_LEVELS,
    _census_proportions,
    _nan_mean,
    _redraw_census,
    _replicate_quantiles,
    _resample_iid,
)
from spreekit.ipf import IpfError
from spreekit.mpi import _poor_share

from conftest import FIXTURES, make_composition, report_bits, same_bits, two_region_hierarchy


def mini_request():
    census = sio.load_composition(FIXTURES / "mini" / "census2002.csv")
    h = sio.load_hierarchy(FIXTURES / "mini" / "hierarchy.csv")
    totals = sio.load_projections(FIXTURES / "mini" / "projections.csv")[2013]
    col = sio.load_margin(
        FIXTURES / "mini" / "survey_margin.csv", MarginLevel.CATEGORY, 2013
    )
    return UpdateRequest(census, col, totals, fixed_shares(census, h))


def mini_design():
    return sio.load_design(FIXTURES / "mini" / "design.csv")


def mini_pool(n=12):
    aux = sio.load_aux_populations(FIXTURES / "mini" / "aux.csv")[2013]
    pool = []
    for k in range(n):
        factors = 1.0 + 0.06 * np.cos(k + np.arange(len(aux.ids)))
        pool.append(aux.with_values(aux.values * factors))
    return pool


def reference_bootstrap(point, design, pool, B, master_seed, tol=1e-8):
    """Replicate loop re-implemented from scratch: redraw the census,
    resample both margins, re-rake, accumulate squared deviations."""
    lam = point.row_margin_used.values
    probs = point.fitted.counts / point.fitted.counts.sum(axis=1, keepdims=True)
    A, J = probs.shape
    cat_pos = {c: j for j, c in enumerate(design.category_ids)}
    keys = list(dict.fromkeys(zip(map(str, design.stratum), map(str, design.psu))))
    totals = {k: np.zeros(J) for k in keys}
    for p, s, w, c, v in zip(design.psu, design.stratum, design.weight,
                             design.category, design.value):
        totals[(str(s), str(p))][cat_pos[str(c)]] += w * v
    strata = list(dict.fromkeys(map(str, design.stratum)))
    sq = np.zeros((A, J))
    for b in range(B):
        g = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(master_seed, spawn_key=(b,)))
        )
        n_a = g.poisson(lam)
        y = np.zeros((A, J))
        for a in range(A):
            if n_a[a] > 0:
                y[a] = g.multinomial(int(round(n_a[a])), probs[a])
        row = pool[int(g.integers(0, len(pool)))].values
        col = np.zeros(J)
        for s in strata:
            in_stratum = [k for k in keys if k[0] == s]
            for i in g.integers(0, len(in_stratum), size=len(in_stratum)):
                col += totals[in_stratum[i]]
        col = col * (row.sum() / col.sum())
        x = y.copy()
        for _ in range(1000):
            x *= (row / x.sum(axis=1))[:, None]
            x *= (col / x.sum(axis=0))[None, :]
            dev = max(np.max(np.abs(x.sum(axis=1) - row) / np.maximum(row, 1.0)),
                      np.max(np.abs(x.sum(axis=0) - col) / np.maximum(col, 1.0)))
            if dev <= tol:
                break
        sq += (x - y) ** 2
    return sq / B


def test_matches_independent_reference_loop():
    req = mini_request()
    design = mini_design()
    pool = mini_pool()
    cfg = BootstrapConfig(replicates=100, seed=17)
    unc = bootstrap_mse(req, design, pool, cfg)
    assert unc.completed_replicates == 100
    assert unc.dropped_replicates == 0
    want = reference_bootstrap(spree_update(req), design, pool, 100, 17)
    np.testing.assert_allclose(unc.mse, want, rtol=0, atol=1e-9)


def test_fixed_seed_is_bit_identical():
    req = mini_request()
    design = mini_design()
    cfg = BootstrapConfig(replicates=25, seed=99)
    a = bootstrap_mse(req, design, mini_pool(), cfg)
    b = bootstrap_mse(req, design, mini_pool(), cfg)
    assert isinstance(a, CellUncertainty)
    np.testing.assert_array_equal(a.point, b.point)
    np.testing.assert_array_equal(a.mse, b.mse)
    np.testing.assert_array_equal(a.cv, b.cv)
    np.testing.assert_array_equal(a.rep_mean, b.rep_mean)
    for label in a.rep_quantiles:
        np.testing.assert_array_equal(a.rep_quantiles[label], b.rep_quantiles[label])
    np.testing.assert_array_equal(a.headcount_mse, b.headcount_mse)


def test_degenerate_config_gives_exactly_zero_mse():
    req = mini_request()
    cfg = BootstrapConfig(
        replicates=10,
        seed=5,
        col_resample="none",
        aux_resample="none",
        census_resample="none",
    )
    assert cfg.fully_degenerate
    unc = bootstrap_mse(req, None, None, cfg)
    assert np.all(unc.mse == 0.0)
    assert np.all(unc.cv[unc.point > 0] == 0.0)
    assert unc.completed_replicates == 10


def test_poverty_categories_add_headcount_uncertainty():
    req = mini_request()
    unc = bootstrap_mse(req, mini_design(), mini_pool(),
                        BootstrapConfig(replicates=20, seed=1))
    assert unc.headcount_point is not None
    totals = unc.point.sum(axis=1)
    np.testing.assert_allclose(
        unc.headcount_point, unc.point[:, 0] / totals
    )
    assert unc.headcount_mse.shape == (len(unc.area_ids),)
    assert np.all(unc.headcount_mse >= 0)
    assert np.all(unc.headcount_cv[unc.headcount_point > 0] >= 0)


def test_unpopulated_area_headcount_is_nan_without_warning():
    # a2 has nobody in the census, so nobody in any replicate: its
    # headcount MSE is NaN, and no empty-slice warning is raised (the
    # suite turns RuntimeWarning into an error).
    census = Composition(
        ("a1", "a2", "a3", "a4"),
        ("poor", "non-poor"),
        np.array([[20.0, 80.0], [0.0, 0.0], [35.0, 65.0], [50.0, 50.0]]),
    )
    h = two_region_hierarchy(4)
    totals = MarginVector(("g1", "g2"), np.array([110.0, 210.0]), MarginLevel.LARGE_AREA)
    col = MarginVector(("poor", "non-poor"), np.array([100.0, 220.0]), MarginLevel.CATEGORY)
    req = UpdateRequest(census, col, totals, fixed_shares(census, h))
    cfg = BootstrapConfig(replicates=20, seed=3, col_resample="none")
    unc = bootstrap_mse(req, None, None, cfg)
    assert unc.completed_replicates == 20
    assert np.isnan(unc.headcount_mse[1]) and np.isnan(unc.headcount_cv[1])
    populated = [0, 2, 3]
    assert np.all(np.isfinite(unc.headcount_mse[populated]))
    assert np.all(unc.headcount_mse[populated] > 0)


def test_cv_is_nan_at_zero_point_cells():
    census = make_composition([[0.0, 50.0], [40.0, 60.0]])
    h = two_region_hierarchy(2)
    totals = MarginVector(("g1", "g2"), np.array([55.0, 110.0]),
                          MarginLevel.LARGE_AREA)
    col = MarginVector(("c1", "c2"), np.array([45.0, 120.0]), MarginLevel.CATEGORY)
    req = UpdateRequest(census, col, totals, fixed_shares(census, h))
    cfg = BootstrapConfig(replicates=30, seed=2, col_resample="none",
                          aux_resample="none")
    unc = bootstrap_mse(req, None, None, cfg)
    assert unc.point[0, 0] == 0.0
    assert np.isnan(unc.cv[0, 0])
    assert np.all(np.isfinite(unc.cv[unc.point > 0]))


def test_excessive_drops_abort():
    # Tiny populations make Poisson-zero rows frequent; a zero replicate row
    # against a positive row target cannot be raked, so most replicates drop.
    census = make_composition([[1.0, 1.0], [1.0, 1.0]])
    h = two_region_hierarchy(2)
    totals = MarginVector(("g1", "g2"), np.array([2.0, 2.0]), MarginLevel.LARGE_AREA)
    col = MarginVector(("c1", "c2"), np.array([2.0, 2.0]), MarginLevel.CATEGORY)
    req = UpdateRequest(census, col, totals, fixed_shares(census, h))
    cfg = BootstrapConfig(replicates=50, seed=11, col_resample="none",
                          aux_resample="none")
    with pytest.raises(BootstrapError, match="dropped"):
        bootstrap_mse(req, None, None, cfg)


def test_drop_accounting_when_within_limit():
    # One small row (total 3) draws a Poisson zero now and then: a few
    # replicates drop, fewer than the 10% limit.
    census = make_composition([[1.5, 1.5], [10.0, 10.0]])
    h = two_region_hierarchy(2)
    totals = MarginVector(("g1", "g2"), np.array([3.0, 20.0]), MarginLevel.LARGE_AREA)
    col = MarginVector(("c1", "c2"), np.array([11.5, 11.5]), MarginLevel.CATEGORY)
    req = UpdateRequest(census, col, totals, fixed_shares(census, h))
    cfg = BootstrapConfig(replicates=50, seed=0, col_resample="none",
                          aux_resample="none")
    unc = bootstrap_mse(req, None, None, cfg)
    assert 0 < unc.dropped_replicates <= 5
    assert unc.completed_replicates + unc.dropped_replicates == 50
    assert len(unc.drop_reasons) == unc.dropped_replicates
    assert all("replicate" in r for r in unc.drop_reasons)


def test_every_replicate_dropped_is_a_bootstrap_error():
    # Under the "error" reconcile policy each perturbed row margin disagrees
    # with the column total, so every replicate drops.
    req = mini_request()
    req = UpdateRequest(
        req.seed, req.col_margin, req.large_totals, req.shares, reconcile_policy="error"
    )
    cfg = BootstrapConfig(replicates=5, col_resample="none", aux_perturb_cv=0.2)
    with pytest.raises(BootstrapError, match=r"^5/5 replicates dropped \(limit 10%\): replicate 0: "):
        bootstrap_mse(req, None, None, cfg)


def test_missing_design_is_an_error():
    req = mini_request()
    with pytest.raises(BootstrapError, match="design required"):
        bootstrap_mse(req, None, None, BootstrapConfig(replicates=2))


def test_nonconverged_point_is_an_error():
    from spreekit import IpfConfig

    req = mini_request()
    strict = UpdateRequest(
        req.seed, req.col_margin, req.large_totals, req.shares,
        IpfConfig(tolerance=1e-15, max_iterations=1),
    )
    with pytest.raises(BootstrapError, match="did not converge"):
        bootstrap_mse(strict, mini_design(), None, BootstrapConfig(replicates=2))


def point_totals(design):
    """Weighted category totals of ``design`` without any resampling."""
    return design._psu_totals.sum(axis=0)


class TestSurveyDesign:
    def test_point_margin_totals(self):
        d = mini_design()
        totals = point_totals(d)
        # 8 PSUs x 100 persons x weight 5.375, poor counts fixed by fixture.
        assert d.category_ids == ("poor", "non-poor")
        assert totals.sum() == pytest.approx(800 * 5.375)
        assert totals[0] == pytest.approx(280 * 5.375)

    def test_single_psu_strata_resample_deterministically(self):
        d = SurveyDesign(
            np.array(["p1", "p1", "p2", "p2"], dtype=object),
            np.array(["s1", "s1", "s2", "s2"], dtype=object),
            np.array([2.0, 2.0, 3.0, 3.0]),
            np.array(["poor", "non-poor", "poor", "non-poor"], dtype=object),
            np.array([10.0, 30.0, 5.0, 15.0]),
        )
        m = resample_column_margin(d, rngmod.stream(0, 0))
        np.testing.assert_array_equal(m.values, point_totals(d))

    def test_resample_preserves_psu_count_mass_scale(self):
        d = mini_design()
        point_total = point_totals(d).sum()
        # Redrawing 4 of 4 PSUs per stratum keeps the order of magnitude:
        # each draw is a sum of 8 PSU totals, whatever the mix.
        per_psu = point_total / 8
        for b in range(10):
            t = resample_column_margin(d, rngmod.stream(1, b)).total()
            assert t == pytest.approx(point_total, abs=4 * per_psu)

    def test_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            SurveyDesign(
                np.array(["p"], dtype=object),
                np.array(["s", "s"], dtype=object),
                np.array([1.0]),
                np.array(["c"], dtype=object),
                np.array([1.0]),
            )
        with pytest.raises(ValueError, match="positive"):
            SurveyDesign(
                np.array(["p"], dtype=object),
                np.array(["s"], dtype=object),
                np.array([0.0]),
                np.array(["c"], dtype=object),
                np.array([1.0]),
            )


class TestAuxResample:
    def test_pool_draw_returns_pool_member(self):
        pool = mini_pool(5)
        seen = set()
        for b in range(40):
            drawn = resample_aux_margin(pool, rngmod.stream(7, b))
            matches = [k for k, m in enumerate(pool)
                       if np.array_equal(drawn.values, m.values)]
            assert matches
            seen.update(matches)
        assert len(seen) == 5  # all members reachable

    def test_perturbation_fallback_has_unit_mean(self):
        base = MarginVector(
            tuple(f"a{i}" for i in range(2000)),
            np.full(2000, 100.0),
            MarginLevel.SMALL_AREA,
        )
        out = resample_aux_margin(base, rngmod.stream(8, 0), perturb_cv=0.1)
        factors = out.values / 100.0
        assert factors.std() == pytest.approx(0.1, rel=0.15)
        assert factors.mean() == pytest.approx(1.0, abs=3 * 0.1 / np.sqrt(2000))

    def test_zero_cv_returns_input_unchanged(self):
        base = MarginVector(("a1",), np.array([5.0]), MarginLevel.SMALL_AREA)
        assert resample_aux_margin(base, rngmod.stream(9, 0), perturb_cv=0.0) is base

    def test_a_cv_too_large_to_square_is_rejected(self):
        base = MarginVector(("a1",), np.array([5.0]), MarginLevel.SMALL_AREA)
        with pytest.raises(ValueError, match=r"^perturb_cv 1e\+200 is too large to square$"):
            resample_aux_margin(base, rngmod.stream(9, 0), perturb_cv=1e200)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            resample_aux_margin([], rngmod.stream(10, 0))


def per_area_split(rng, totals, probs, row_mass):
    """Reference census split: one multinomial per positive-mass area with a
    positive total, in area order."""
    out = np.zeros_like(probs)
    for a in range(len(totals)):
        if row_mass[a] > 0 and totals[a] > 0:
            out[a] = rng.multinomial(int(totals[a]), probs[a])
    return out


def test_row_split_matches_per_area_loop():
    seen = {"zero_mass_drawn": 0, "zero_draw": 0}
    for k in range(150):
        g = np.random.default_rng(k)
        # Quarter-unit counts give fractional proportions; the row-margin
        # lambda is positive on some zero-mass rows.
        counts = g.integers(0, 9, size=(25, 4)) / 4.0
        counts[g.random(25) < 0.25] = 0.0
        lam = g.uniform(0.0, 4.0, 25)
        lam[::5] = 0.0
        probs = to_probabilities(make_composition(counts)).probs
        row_mass = counts.sum(axis=1)

        rng = rngmod.stream(k, 0)
        totals = rng.poisson(lam)
        expected, expected_next = per_area_split(rng, totals, probs, row_mass), rng.random()
        rng = rngmod.stream(k, 0)
        got, got_next = _redraw_census(rng, lam, *_census_proportions(counts)), rng.random()
        np.testing.assert_array_equal(got, expected)
        assert got_next == expected_next
        seen["zero_mass_drawn"] += int(np.sum((row_mass == 0) & (totals > 0)))
        seen["zero_draw"] += int(np.sum((row_mass > 0) & (totals == 0)))
    assert seen["zero_draw"] > 0
    assert seen["zero_mass_drawn"] > 0


def per_observation_iid(design, rng):
    """Reference iid-category resample, one drawn observation at a time."""
    n = len(design.weight)
    totals = np.zeros(len(design.category_ids))
    cat_pos = {c: i for i, c in enumerate(design.category_ids)}
    for i in rng.integers(0, n, size=n):
        totals[cat_pos[str(design.category[i])]] += design.weight[i] * design.value[i]
    return totals


def test_iid_resample_matches_per_observation_loop():
    designs = [mini_design()]
    for k in range(100):
        g = np.random.default_rng(k)
        n = int(g.integers(1, 60))
        designs.append(
            SurveyDesign(
                psu=g.integers(0, 6, n),
                stratum=g.integers(0, 3, n),
                weight=g.uniform(0.1, 50.0, n),
                category=g.choice(["x", "y", "z"], n),
                value=g.uniform(0.0, 3.0, n),
            )
        )
    for k, design in enumerate(designs):
        got = _resample_iid(design, rngmod.stream(k, 1), 2013)
        expected = per_observation_iid(design, rngmod.stream(k, 1))
        assert got.ids == design.category_ids
        np.testing.assert_array_equal(got.values, expected)


def per_observation_design(design):
    """``SurveyDesign``'s grouping as it was built before ``np.add.at``: one
    observation at a time, each stratum's PSUs found by a scan of all PSUs.

    Returns the strata, the per-PSU totals and each stratum's PSU rows.
    """
    cat_pos = {c: i for i, c in enumerate(design.category_ids)}
    strata = tuple(dict.fromkeys(str(s) for s in design.stratum))
    psu_keys = list(
        dict.fromkeys(zip((str(s) for s in design.stratum), (str(p) for p in design.psu)))
    )
    psu_pos = {k: i for i, k in enumerate(psu_keys)}
    totals = np.zeros((len(psu_keys), len(design.category_ids)))
    for i in range(len(design.psu)):
        key = (str(design.stratum[i]), str(design.psu[i]))
        totals[psu_pos[key], cat_pos[str(design.category[i])]] += design.weight[i] * design.value[i]
    rows = {
        s: np.asarray([i for i, (ss, _) in enumerate(psu_keys) if ss == s], dtype=int)
        for s in strata
    }
    return strata, totals, rows


def per_stratum_resample(totals, rows, strata, rng):
    """``resample_column_margin``'s draws from the oracle's grouping."""
    out = np.zeros(totals.shape[1])
    for s in strata:
        chosen = rng.integers(0, rows[s].size, size=rows[s].size)
        out += totals[rows[s][chosen]].sum(axis=0)
    return out


@st.composite
def survey_designs(draw):
    """Designs of 1..80 observations: int or str labels, PSU labels reused
    across strata, weights over nine decades and zero values."""
    n = draw(st.integers(1, 80))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_strata, n_psu = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    stratum = g.integers(0, n_strata, n)
    psu = g.integers(0, n_psu, n)
    if draw(st.booleans()):
        stratum = np.array([f"s{v}" for v in stratum], dtype=object)
        psu = np.array([f"p{v}" for v in psu], dtype=object)
    weight = 10.0 ** g.uniform(-3.0, 6.0, n)
    value = np.where(g.random(n) < 0.2, 0.0, g.uniform(0.0, 40.0, n))
    category = g.choice(["x", "y", "z"], n)
    return SurveyDesign(psu, stratum, weight, category, value)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(survey_designs(), st.integers(0, 2**32 - 1))
def test_design_grouping_matches_per_observation_loop(design, seed):
    strata, totals, rows = per_observation_design(design)
    assert design.strata == strata
    assert design._psu_totals.tobytes() == totals.tobytes()
    # The draw layout lists each stratum's PSU rows in turn, from its start.
    starts = list(dict.fromkeys(design._draw_start.tolist()))
    got = np.split(design._psu_rows, starts[1:])
    assert [g.tolist() for g in got] == [rows[s].tolist() for s in strata]
    rng, rng_ref = rngmod.stream(seed, 0), rngmod.stream(seed, 0)
    drawn = resample_column_margin(design, rng).values
    assert drawn.tobytes() == per_stratum_resample(totals, rows, strata, rng_ref).tobytes()
    assert rng.random() == rng_ref.random()


@st.composite
def psu_layouts(draw):
    """Designs of 1..199 strata of 1..11 PSUs, at least one stratum with a
    single PSU, one or two observations per PSU over 1..4 categories, and
    strata interleaved in observation order."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_strata = draw(st.integers(1, 199))
    sizes = g.integers(1, 12, n_strata)
    sizes[g.random(n_strata) < 0.2] = 1
    sizes[g.integers(0, n_strata)] = 1
    cats = ["w", "x", "y", "z"][: draw(st.integers(1, 4))]
    obs = [
        (f"p{k}", f"s{s}")
        for s, n in enumerate(sizes)
        for k in range(n)
        for _ in range(int(g.integers(1, 3)))
    ]
    obs = [obs[i] for i in g.permutation(len(obs))]
    n = len(obs)
    return SurveyDesign(
        np.array([p for p, _ in obs], dtype=object),
        np.array([s for _, s in obs], dtype=object),
        10.0 ** g.uniform(-2.0, 4.0, n),
        g.choice(cats, n),
        np.where(g.random(n) < 0.1, 0.0, g.uniform(0.0, 40.0, n)),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(psu_layouts(), st.integers(0, 2**32 - 1))
def test_psu_draw_matches_per_stratum_loop(design, seed):
    # One draw over every PSU takes the same integers from the stream as one
    # draw per stratum, and leaves the stream at the same position.
    strata, totals, rows = per_observation_design(design)
    sizes = [rows[s].size for s in strata]
    assert 1 in sizes
    rng, rng_ref = rngmod.stream(seed, 0), rngmod.stream(seed, 0)
    drawn = resample_column_margin(design, rng).values
    assert drawn.tobytes() == per_stratum_resample(totals, rows, strata, rng_ref).tobytes()
    assert rng.random() == rng_ref.random()
    rng, rng_ref = rngmod.stream(seed, 1), rngmod.stream(seed, 1)
    one_call = rng.integers(0, design._draw_high)
    per_stratum = [rng_ref.integers(0, n, size=n) for n in sizes]
    assert one_call.tolist() == np.concatenate(per_stratum).tolist()
    assert rng.random() == rng_ref.random()


@st.composite
def nan_stacks(draw):
    """2-D and 3-D float stacks over 1e-300..1e300 with NaN entries, rows
    and whole slices, in C order or as a transposed view."""
    shape = tuple(draw(st.lists(st.integers(1, 7), min_size=2, max_size=3)))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = g.normal(size=shape) * 10.0 ** draw(st.integers(-300, 300))
    values[g.random(shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = np.nan
    if draw(st.booleans()):
        values[0] = np.nan
    return values.T if draw(st.booleans()) else values


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(nan_stacks(), st.data())
def test_nan_mean_is_nanmean_bitwise(values, data):
    axis = data.draw(st.integers(0, values.ndim - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = np.nanmean(values, axis=axis)
    assert same_bits(_nan_mean(values, axis=axis), want)


def test_nan_mean_all_nan_slice_is_silent():
    got = _nan_mean(np.array([[np.nan, 1.0], [np.nan, 3.0]]), axis=0)
    assert np.isnan(got[0]) and got[1] == 2.0


@st.composite
def small_requests(draw):
    """Fixed-share updates of 2..8 areas, with or without the poverty
    categories, some areas empty, the rest large enough never to draw zero."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 8))
    cats = ("poor", "non-poor") if draw(st.booleans()) else ("x", "y", "z")
    counts = g.uniform(50.0, 500.0, size=(n, len(cats)))
    counts[g.random(n) < 0.2] = 0.0
    counts[0] = g.uniform(50.0, 500.0, size=len(cats))
    counts[n // 2] = g.uniform(50.0, 500.0, size=len(cats))
    if n > 2 and draw(st.booleans()):
        counts[n - 1] = 0.0
    census = Composition(tuple(f"a{i + 1}" for i in range(n)), cats, counts)
    h = two_region_hierarchy(n)
    large = np.array([counts[: n // 2].sum(), counts[n // 2 :].sum()]) * g.uniform(0.9, 1.1, 2)
    totals = MarginVector(("g1", "g2"), large, MarginLevel.LARGE_AREA)
    col = MarginVector(cats, counts.sum(axis=0) * g.uniform(0.9, 1.1, len(cats)), MarginLevel.CATEGORY)
    return UpdateRequest(census, col, totals, fixed_shares(census, h))


def stacked_summaries(point, fits, seeds):
    """The MSE, CV and headcount MSE and CV from the stacked replicate tables,
    as they were computed before the sums were taken per replicate (the
    headcount MSE by np.nanmean, which ``_nan_mean`` matches bitwise)."""
    fitted_reps, mult_reps = np.stack(fits), np.stack(seeds)
    mse = ((fitted_reps - mult_reps) ** 2).sum(axis=0) / len(fits)
    cv = np.where(point > 0, np.sqrt(mse) / np.where(point > 0, point, 1.0), np.nan)
    h_point = _poor_share(point, 0)
    h_diff = _poor_share(fitted_reps, 0) - _poor_share(mult_reps, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        h_mse = np.nanmean(h_diff**2, axis=0)
    h_cv = np.where(h_point > 0, np.sqrt(h_mse) / np.where(h_point > 0, h_point, 1.0), np.nan)
    return mse, cv, h_mse, h_cv


def spied_bootstrap(req, cfg, drop=frozenset()):
    """``bootstrap_mse`` with a spy on the replicate fits: the fits whose call
    index is in ``drop`` raise, and the converged fitted tables and their
    replicate compositions are recorded in replicate order."""
    fits, seeds, calls = [], [], []
    original = bootstrap.ipf_fit

    def spy(seed_b, row, col, ipf_cfg):
        calls.append(None)
        if len(calls) - 1 in drop:
            raise IpfError("forced drop")
        res = original(seed_b, row, col, ipf_cfg)
        if res.converged:
            fits.append(res.fitted.counts)
            seeds.append(seed_b.counts)
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bootstrap, "ipf_fit", spy)
        unc = bootstrap_mse(req, None, None, cfg)
    return unc, fits, seeds


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_requests(), st.integers(1, 30), st.integers(0, 2**16), st.data())
def test_replicate_summaries_match_separate_numpy_calls(req, replicates, seed, data):
    # The summaries, taken per replicate as each completes, must be bitwise
    # those of the stacked replicate tables: the quantiles the five separate
    # np.quantile calls, the mean np.mean's, the MSE, CV and headcount the
    # stacked formulas', with some replicates dropped (under the 10% limit).
    drop = data.draw(st.sets(st.integers(0, replicates - 1), max_size=replicates // 10))
    cfg = BootstrapConfig(replicates=replicates, seed=seed, col_resample="none")
    unc, fits, seeds = spied_bootstrap(req, cfg, drop)
    assert unc.completed_replicates == len(fits) == replicates - len(drop)
    assert unc.dropped_replicates == len(drop)
    stack = np.stack(fits)
    for label, level in zip(QUANTILE_LABELS, QUANTILE_LEVELS):
        assert same_bits(unc.rep_quantiles[label], np.quantile(stack, level, axis=0))
    assert same_bits(unc.rep_mean, np.mean(stack, axis=0))
    mse, cv, h_mse, h_cv = stacked_summaries(unc.point, fits, seeds)
    assert same_bits(unc.mse, mse)
    assert same_bits(unc.cv, cv)
    if unc.headcount_mse is not None:
        assert same_bits(unc.headcount_mse, h_mse)
        assert same_bits(unc.headcount_cv, h_cv)
        empty = req.seed.counts.sum(axis=1) == 0
        assert np.isnan(unc.headcount_mse[empty]).all()


def chunked_quantiles(cells):
    """The replicate quantiles as ``bootstrap_mse`` took them before they
    were read from sorted chunks: ``np.quantile`` over chunks of cells."""
    quantiles = np.empty((len(QUANTILE_LEVELS), cells.shape[1]))
    width = max(1, bootstrap._QUANTILE_CHUNK_BYTES // (8 * cells.shape[0]))
    for c in range(0, cells.shape[1], width):
        quantiles[:, c : c + width] = np.quantile(cells[:, c : c + width], QUANTILE_LEVELS, axis=0)
    return quantiles


@st.composite
def replicate_cells(draw):
    """1-60 replicates of 1-40 cells, many of them ties, zeros, subnormal or
    huge, some cells constant, and a chunk size of 1 to m + 1 cells that
    is not always a whole number of cells' bytes."""
    n, m = draw(st.integers(1, 60)), draw(st.integers(1, 40))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array([0.0, 0.0, 1.0, 2.5, 7.0, 5e-324, 1e-300, 1e300])
    tied = g.random((n, m)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    cells = np.where(tied, g.choice(pool, (n, m)), g.uniform(0.0, 1e3, (n, m)))
    constant = g.random(m) < 0.2
    cells[:, constant] = cells[0, constant]
    width = draw(st.integers(1, m + 1))
    return cells, 8 * n * width + draw(st.integers(0, 8 * n - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(replicate_cells())
def test_sorted_chunk_quantiles_match_chunked_np_quantile(case):
    # Linear quantiles depend only on the order statistics, so reading them
    # from sorted chunks changes no bit.
    cells, chunk_bytes = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bootstrap, "_QUANTILE_CHUNK_BYTES", chunk_bytes)
        assert same_bits(_replicate_quantiles(cells), chunked_quantiles(cells))


def test_mixed_signed_zero_quantiles_equal_the_oracle():
    # The sort and numpy's partition may order -0.0 and +0.0 differently, so
    # the oracle may give either zero: equal, not bitwise.  The chunk copy
    # turns -0.0 into +0.0, so every zero quantile is +0.0.
    g = np.random.default_rng(5)
    cells = g.choice([-0.0, 0.0, 1.0], size=(40, 300))
    cells[:2] = [[-0.0], [0.0]]
    got = _replicate_quantiles(cells)
    assert np.array_equal(got, chunked_quantiles(cells))
    assert not np.signbit(got).any()


@st.composite
def quantile_oracle_cells(draw):
    """1-300 replicates of 1-12 cells: replicate counts whose virtual index
    (B - 1) * q is a whole number for some level, ties, mixed signed zeros,
    magnitudes over 600 decades, and sometimes NaN in one cell."""
    n = draw(st.integers(1, 300) | st.sampled_from([1, 2, 3, 5, 41, 81, 121, 201, 281]))
    m = draw(st.integers(1, 12))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array([-0.0, 0.0, 0.0, 1.0, 2.5, 5e-324, 1e-300, 1e300])
    tied = g.random((n, m)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    spread = g.uniform(0.0, 1.0, (n, m)) * 10.0 ** g.uniform(-300.0, 300.0, (n, m))
    cells = np.where(tied, g.choice(pool, (n, m)), spread)
    if draw(st.booleans()):
        cells[g.integers(0, n, draw(st.integers(1, n))), g.integers(0, m)] = np.nan
    return cells


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(quantile_oracle_cells())
def test_quantiles_from_sorted_rows_equal_np_quantile_bitwise(cells):
    # Compared as bit patterns, so every zero must read +0.0 and a NaN
    # cell must carry numpy's NaN.
    want = np.quantile(cells, QUANTILE_LEVELS, axis=0) + 0.0
    got = _replicate_quantiles(cells)
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize("replicates", [1, 9, 40])
def test_one_cell_table_mse_matches_stacked_sum(replicates):
    # numpy sums a one-cell stack's column pairwise, not row after row, so
    # the running sum alone would differ in the last bits from B = 8 on.
    census = Composition(("a1",), ("c1",), np.array([[40.0]]))
    h = AreaHierarchy.from_pairs([("a1", "g1")])
    totals = MarginVector(("g1",), np.array([44.0]), MarginLevel.LARGE_AREA)
    col = MarginVector(("c1",), np.array([44.0]), MarginLevel.CATEGORY)
    req = UpdateRequest(census, col, totals, fixed_shares(census, h))
    cfg = BootstrapConfig(replicates=replicates, seed=6, col_resample="none")
    unc, fits, seeds = spied_bootstrap(req, cfg)
    assert unc.completed_replicates == replicates
    mse, cv, _, _ = stacked_summaries(unc.point, fits, seeds)
    assert same_bits(unc.mse, mse)
    assert same_bits(unc.cv, cv)


def test_traced_peak_stays_below_three_stacks():
    # The run holds one B x A x J stack of fitted tables; the replicate
    # compositions, differences and squares are never stacked, and the
    # quantiles are read from chunks sorted in one reused buffer of about
    # 1 MiB, so they never copy the whole stack.
    g = np.random.default_rng(12)
    areas, cats, replicates = 400, 12, 60
    counts = g.uniform(20.0, 400.0, size=(areas, cats))
    census = make_composition(counts)
    h = two_region_hierarchy(areas)
    large = np.array([counts[: areas // 2].sum(), counts[areas // 2 :].sum()]) * 1.05
    totals = MarginVector(("g1", "g2"), large, MarginLevel.LARGE_AREA)
    col = MarginVector(census.category_ids, counts.sum(axis=0) * 1.05, MarginLevel.CATEGORY)
    req = UpdateRequest(census, col, totals, fixed_shares(census, h))
    cfg = BootstrapConfig(
        replicates=replicates, seed=4, col_resample="none", aux_resample="none"
    )
    np.quantile(np.zeros(2), QUANTILE_LEVELS)  # numpy's lazy imports are not the subject
    tracemalloc.start()
    try:
        unc = bootstrap_mse(req, None, None, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert unc.completed_replicates == replicates
    stack = replicates * areas * cats * 8
    assert peak < 3 * stack, peak / stack


def test_stack_over_budget_fails_before_the_point_fit(monkeypatch):
    def no_fit(req):
        pytest.fail("the point fit ran")

    monkeypatch.setattr(bootstrap, "spree_update", no_fit)
    monkeypatch.setattr(bootstrap, "_MAX_STACK_BYTES", 25 * 4 * 2 * 8 - 1)
    with pytest.raises(
        BootstrapError,
        match=r"^bootstrap: a 25 x 4 x 2 replicate stack needs 1600 bytes, over the budget of 1599$",
    ):
        bootstrap_mse(mini_request(), mini_design(), None, BootstrapConfig(replicates=25))


def _slow_helper(
    monkeypatch, fail_on=None, raised=None
) -> list[tuple[np.random.Generator, bool]]:
    """Make ``_redraw_census`` sleep 20 ms off the main thread, so that the
    main thread draws some censuses itself.  The returned list gets each
    draw's stream and whether the main thread drew it.  ``fail_on(calls)``
    says whether the draw just recorded raises; ``raised`` gets the number
    of draws started when it does."""
    calls, original = [], bootstrap._redraw_census

    def slowed(rng, *args):
        on_main = threading.current_thread() is threading.main_thread()
        calls.append((rng, on_main))
        if fail_on is not None and fail_on(calls):
            raised.append(len(calls))
            raise ValueError("failing census")
        if not on_main:
            time.sleep(0.02)
        return original(rng, *args)

    monkeypatch.setattr(bootstrap, "_redraw_census", slowed)
    return calls


@pytest.mark.parametrize(
    "fail_on",
    [lambda calls: len(calls) >= 3 and not calls[-1][1], lambda calls: calls[-1][1]],
    ids=["helper-thread", "main-thread"],
)
def test_census_redraw_error_propagates_and_the_helper_thread_ends(monkeypatch, fail_on):
    # A census drawn on the helper thread or on the main thread: its error
    # must reach the caller as it is, not count as a dropped replicate, and
    # the helper thread must be gone once bootstrap_mse returns.  The
    # censuses still queued are cancelled: at most the one the helper had
    # already started is drawn after the failing one.
    raised = []
    calls = _slow_helper(monkeypatch, fail_on, raised)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="^failing census$"):
        bootstrap_mse(mini_request(), mini_design(), mini_pool(), BootstrapConfig(replicates=6))
    assert threading.active_count() == threads
    assert len(calls) - raised[0] <= 1


def test_censuses_drawn_on_the_main_thread_change_no_bit(monkeypatch):
    """With the helper slowed, the main thread draws some censuses; each
    replicate's census is still drawn once, and every output bit holds."""
    cfg = BootstrapConfig(replicates=12)
    want = report_bits(bootstrap_mse(mini_request(), mini_design(), mini_pool(), cfg))
    streams, stream = {}, rngmod.stream

    def recording(seed, b):
        rng = stream(seed, b)
        streams[id(rng)] = b
        return rng

    monkeypatch.setattr(rngmod, "stream", recording)
    calls = _slow_helper(monkeypatch)
    got = report_bits(bootstrap_mse(mini_request(), mini_design(), mini_pool(), cfg))
    assert got == want
    assert sorted(streams[id(rng)] for rng, _ in calls) == list(range(cfg.replicates))
    assert any(on_main for _, on_main in calls)


@pytest.mark.parametrize("census", ["poisson-multinomial", "none"])
def test_helper_thread_draws_only_the_census(monkeypatch, census):
    # One task per replicate census, and none without a census redraw.
    submitted, submit = [], ThreadPoolExecutor.submit

    def recording(self, fn, *args):
        submitted.append(fn)
        return submit(self, fn, *args)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", recording)
    cfg = BootstrapConfig(replicates=4, census_resample=census)
    unc = bootstrap_mse(mini_request(), mini_design(), mini_pool(), cfg)
    assert unc.completed_replicates == 4
    assert submitted == ([bootstrap._redraw_census] * 4 if census != "none" else [])


def _record_fits(monkeypatch) -> list[tuple[np.ndarray, ...]]:
    """Wrap ``ipf_fit`` where the bootstrap and the update import it; the
    returned list gets each call's seed counts, row and column targets and
    fitted counts."""
    calls: list[tuple[np.ndarray, ...]] = []

    def recording(seed, row, col, cfg=ipf.IpfConfig()):
        res = ipf.ipf_fit(seed, row, col, cfg)
        calls.append((seed.counts, row.values, col.values, res.fitted.counts))
        return res

    monkeypatch.setattr(bootstrap, "ipf_fit", recording)
    monkeypatch.setattr(sys.modules["spreekit.update"], "ipf_fit", recording)
    return calls


def _bootstrap_fits(replicates: int) -> int:
    """Run the mini bootstrap; the fits of the point and two replicates."""
    bootstrap_mse(
        mini_request(), mini_design(), mini_pool(), BootstrapConfig(replicates=replicates, seed=4)
    )
    return 3


def _simulation_fits(replicates: int) -> int:
    """Run the mini plan; the fits of its first two rounds."""
    plan = sio.load_plan(FIXTURES / "mini_plan.json")
    run_simulation(dataclasses.replace(plan, replicates=replicates))
    return 2 * len(plan.strategies)


@pytest.mark.parametrize("run", [_bootstrap_fits, _simulation_fits], ids=["bootstrap", "simulation"])
def test_replicate_b_does_not_depend_on_the_replicate_count(monkeypatch, run):
    recorded = []
    for replicates in (2, 6):
        with monkeypatch.context() as m:
            calls = _record_fits(m)
            prefix = run(replicates)
            recorded.append(calls)
    short, long = recorded
    assert len(short) == prefix < len(long)
    for got, want in zip(long[:prefix], short):
        assert all(same_bits(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize(
    "run, point_fits",
    [(_bootstrap_fits, 1), (_simulation_fits, 0)],
    ids=["bootstrap", "simulation"],
)
def test_replicate_b_does_not_depend_on_the_replicate_order(monkeypatch, run, point_fits):
    """Handed the streams in reverse, replicate b gets stream B-1-b and then
    fits exactly what replicate B-1-b fits in the plain run."""
    replicates, stream = 5, rngmod.stream
    recorded = []
    for reverse in (False, True):
        with monkeypatch.context() as m:
            if reverse:
                m.setattr(rngmod, "stream", lambda seed, b: stream(seed, replicates - 1 - b))
            calls = _record_fits(m)
            run(replicates)
            recorded.append(calls)
    plain, reversed_ = recorded
    assert len(plain) == len(reversed_) > point_fits
    per_replicate, rest = divmod(len(plain) - point_fits, replicates)
    assert per_replicate > 0 and rest == 0
    # The point fit draws nothing; replicate b's fits follow it in order.
    order = [*range(point_fits)] + [
        point_fits + (replicates - 1 - b) * per_replicate + k
        for b in range(replicates)
        for k in range(per_replicate)
    ]
    for got, i in zip(reversed_, order):
        assert all(same_bits(g, w) for g, w in zip(got, plain[i]))


def _design(value=(1.0, 3.0), category=("poor", "non-poor")):
    n = len(value)
    return SurveyDesign(
        np.array(["p1"] * n, dtype=object), np.array(["s1"] * n, dtype=object),
        np.ones(n), np.array(category, dtype=object), np.array(value),
    )


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: BootstrapConfig(aux_perturb_cv=-0.01), "aux_perturb_cv must be >= 0"),
        (lambda: BootstrapConfig(aux_perturb_cv=math.nan), "aux_perturb_cv must be finite"),
        (lambda: BootstrapConfig(aux_perturb_cv=math.inf), "aux_perturb_cv must be finite"),
        (lambda: BootstrapConfig(aux_perturb_cv=-math.inf), "aux_perturb_cv must be finite"),
        (lambda: _design((), ()), "empty survey design"),
        (lambda: _design((1.0, -1.0)), "design values must be finite and non-negative"),
        (lambda: _design((1.0, np.nan)), "design values must be finite and non-negative"),
        (lambda: _design((1.0, np.inf)), "design values must be finite and non-negative"),
    ],
    ids=["negative-cv", "nan-cv", "inf-cv", "minus-inf-cv", "empty-design", "negative-value", "nan-value", "inf-value"],
)
def test_bad_config_and_design_values_are_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_design_categories_must_match_the_composition():
    design = _design(category=("non-poor", "poor"))
    with pytest.raises(
        BootstrapError,
        match="^survey design categories do not match the composition categories$",
    ):
        bootstrap_mse(mini_request(), design, None, BootstrapConfig(replicates=2))


def test_aux_pool_ids_must_match_the_seed_areas():
    pool = [MarginVector(("a1", "a2", "a3", "a5"), np.ones(4), MarginLevel.SMALL_AREA)]
    with pytest.raises(BootstrapError, match="^auxiliary pool ids do not match the seed areas$"):
        bootstrap_mse(mini_request(), mini_design(), pool, BootstrapConfig(replicates=2))


def test_runs_in_one_process_carry_no_state(monkeypatch):
    """Two runs on one request report the bits of a run on fresh objects,
    and each run computes the census proportions of its point fit once."""
    proportions, calls = bootstrap._census_proportions, []

    def counted(counts):
        calls.append(None)
        return proportions(counts)

    monkeypatch.setattr(bootstrap, "_census_proportions", counted)
    req, design, pool = mini_request(), mini_design(), mini_pool()
    cfg = BootstrapConfig(replicates=8)
    first = report_bits(bootstrap_mse(req, design, pool, cfg))
    assert len(calls) == 1
    second = report_bits(bootstrap_mse(req, design, pool, cfg))
    assert len(calls) == 2
    assert first == second == report_bits(bootstrap_mse(mini_request(), mini_design(), mini_pool(), cfg))
    assert len(calls) == 3
    bootstrap_mse(req, design, pool, dataclasses.replace(cfg, census_resample="none"))
    assert len(calls) == 3


@np.errstate(over="ignore", invalid="ignore")
def test_resampled_margins_past_the_float_range_are_rejected():
    # Each PSU total is finite, but any two drawn PSUs sum past the float
    # range; and the largest float times a lognormal factor above one
    # overflows.  Each fails with the message MarginVector gives.
    design = SurveyDesign(["p1", "p2"], ["s", "s"], [1.0, 1.0], ["c1", "c1"], [1e308, 1e308])
    biggest = MarginVector(("a1", "a2"), [np.finfo(float).max] * 2, MarginLevel.SMALL_AREA)
    for resample in (
        lambda rng: resample_column_margin(design, rng),
        lambda rng: _resample_iid(design, rng),
        lambda rng: resample_aux_margin(biggest, rng, 0.5),
    ):
        with pytest.raises(ValueError) as e:
            resample(rngmod.stream(0, 0))
        assert str(e.value) == "margin values contains non-finite values"
