import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreekit import (
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
from spreekit import bootstrap, rng as rngmod
from spreekit.bootstrap import (
    QUANTILE_LABELS,
    QUANTILE_LEVELS,
    _nan_mean,
    _resample_iid,
    _split_rows,
)

from conftest import FIXTURES, make_composition, same_bits, two_region_hierarchy


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
        poisson_mode="mean",
        multinomial_mode="mean",
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

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            resample_aux_margin([], rngmod.stream(10, 0))


def per_area_split(rng, totals, probs, row_mass):
    """Reference census split: one multinomial per positive-mass area with a
    positive total, in area order, the total rounded half to even."""
    out = np.zeros_like(probs)
    for a in range(len(totals)):
        if row_mass[a] > 0 and totals[a] > 0:
            out[a] = rng.multinomial(int(round(totals[a])), probs[a])
    return out


@pytest.mark.parametrize("poisson_mode", ["sample", "mean"])
def test_row_split_matches_per_area_loop(poisson_mode):
    seen = {"zero_mass_drawn": 0, "zero_draw": 0, "half_total": 0}
    for k in range(150):
        g = np.random.default_rng(k)
        # Quarter-unit counts make .5 row totals common under poisson_mode
        # "mean"; the row-margin lambda is positive on some zero-mass rows.
        counts = g.integers(0, 9, size=(25, 4)) / 4.0
        counts[g.random(25) < 0.25] = 0.0
        lam = g.uniform(0.0, 4.0, 25)
        lam[::5] = 0.0
        probs = to_probabilities(make_composition(counts)).probs
        row_mass = counts.sum(axis=1)

        def draw(rng, split):
            if poisson_mode == "sample":
                totals = rng.poisson(lam).astype(float)
            else:
                totals = row_mass.copy()
            return totals, split(rng, totals, probs, row_mass), rng.random()

        totals, expected, expected_next = draw(rngmod.stream(k, 0), per_area_split)
        _, got, got_next = draw(rngmod.stream(k, 0), _split_rows)
        np.testing.assert_array_equal(got, expected)
        assert got_next == expected_next
        seen["zero_mass_drawn"] += int(np.sum((row_mass == 0) & (totals > 0)))
        seen["zero_draw"] += int(np.sum((row_mass > 0) & (np.rint(totals) == 0)))
        seen["half_total"] += int(np.sum(totals % 1 == 0.5))
    assert seen["zero_draw"] > 0
    if poisson_mode == "sample":
        assert seen["zero_mass_drawn"] > 0
    else:
        assert seen["half_total"] > 0


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
    got = design._psus_by_stratum
    assert list(got) == list(rows)
    for s in strata:
        assert got[s].tolist() == rows[s].tolist()
    rng, rng_ref = rngmod.stream(seed, 0), rngmod.stream(seed, 0)
    drawn = resample_column_margin(design, rng).values
    assert drawn.tobytes() == per_stratum_resample(totals, rows, strata, rng_ref).tobytes()
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
    census = Composition(tuple(f"a{i + 1}" for i in range(n)), cats, counts)
    h = two_region_hierarchy(n)
    large = np.array([counts[: n // 2].sum(), counts[n // 2 :].sum()]) * g.uniform(0.9, 1.1, 2)
    totals = MarginVector(("g1", "g2"), large, MarginLevel.LARGE_AREA)
    col = MarginVector(cats, counts.sum(axis=0) * g.uniform(0.9, 1.1, len(cats)), MarginLevel.CATEGORY)
    return UpdateRequest(census, col, totals, fixed_shares(census, h))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_requests(), st.integers(1, 30), st.integers(0, 2**16))
def test_replicate_summaries_match_separate_numpy_calls(req, replicates, seed):
    # The replicate stacks are recorded by a spy on the replicate fits; the
    # quantiles must be bitwise the five separate np.quantile calls, the
    # mean np.mean's and the headcount MSE np.nanmean's.
    fits, seeds = [], []
    original = bootstrap.ipf_fit

    def spy(seed_b, row, col, cfg):
        res = original(seed_b, row, col, cfg)
        if res.converged:
            fits.append(res.fitted.counts)
            seeds.append(seed_b.counts)
        return res

    cfg = BootstrapConfig(replicates=replicates, seed=seed, col_resample="none")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bootstrap, "ipf_fit", spy)
        unc = bootstrap_mse(req, None, None, cfg)
    assert unc.completed_replicates == len(fits)
    stack = np.stack(fits)
    for label, level in zip(QUANTILE_LABELS, QUANTILE_LEVELS):
        assert same_bits(unc.rep_quantiles[label], np.quantile(stack, level, axis=0))
    assert same_bits(unc.rep_mean, np.mean(stack, axis=0))
    if unc.headcount_mse is not None:
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            h_diff = stack[..., 0] / stack.sum(axis=2) - np.stack([m[:, 0] / m.sum(axis=1) for m in seeds])
            want = np.nanmean(h_diff**2, axis=0)
        assert same_bits(unc.headcount_mse, want)
