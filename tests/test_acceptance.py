"""Release gate: one test per shipped guarantee, at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per guarantee.  Each test carries its own oracle, written independently of
the code path it checks; tolerances and runtime ceilings are part of the
guarantee and asserted, not just documented.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from spreekit import (
    AreaHierarchy,
    BootstrapConfig,
    Composition,
    IpfConfig,
    MarginLevel,
    MarginVector,
    MpiProfile,
    UpdateRequest,
    aggregate_pixels,
    aggregate_to_large,
    association_distance,
    bootstrap_mse,
    build_scenario,
    column_margins,
    compute_mpi,
    deprivation_score,
    distribute,
    dynamic_shares,
    fixed_shares,
    headcount_from_composition,
    ipf_fit,
    is_poor,
    migration_shock_config,
    relative_bias,
    relative_rmse,
    replicate_census,
    run_simulation,
    spree_update,
)
from spreekit import io as sio
from spreekit import rng as rngmod
from spreekit.cli import main as cli_main
from spreekit.mpi import LIVING_STANDARD_INDICATORS

from conftest import (
    FIXTURES,
    Household,
    household_table,
    make_composition,
    make_margin,
    random_positive_table,
    two_region_hierarchy,
)

MINI = FIXTURES / "mini"
NINE = MpiProfile.nine_indicator()


# --- shared oracle helpers -------------------------------------------------

def raking_oracle(seed: np.ndarray, row: np.ndarray, col: np.ndarray,
                  sweeps: int) -> np.ndarray:
    """Plain alternating row/column rescaling, written directly."""
    x = seed.astype(float).copy()
    for _ in range(sweeps):
        x *= (row / x.sum(axis=1))[:, None]
        x *= (col / x.sum(axis=0))[None, :]
    return x


def all_odds_ratios(x: np.ndarray) -> np.ndarray:
    """Every 2x2 cross ratio x[i,j]*x[k,l] / (x[i,l]*x[k,j])."""
    num = x[:, None, :, None] * x[None, :, None, :]
    den = x[:, None, None, :] * x[None, :, :, None]
    return num / den


def random_fit(rng, rows: int, cols: int):
    seed = make_composition(random_positive_table(rng, rows, cols))
    rt = np.exp(rng.uniform(0.0, 4.0, size=rows))
    ct = np.exp(rng.uniform(0.0, 4.0, size=cols))
    ct *= rt.sum() / ct.sum()
    row_m = make_margin(rt, MarginLevel.SMALL_AREA, "a")
    col_m = make_margin(ct, MarginLevel.CATEGORY, "c")
    return seed, row_m, col_m, ipf_fit(seed, row_m, col_m)


def random_regions(rng):
    """A hierarchy of 1-4 regions with 2-6 areas each, plus the id lists."""
    pairs = []
    region_ids = []
    for g in range(int(rng.integers(1, 5))):
        region = f"r{g}"
        region_ids.append(region)
        for a in range(int(rng.integers(2, 7))):
            pairs.append((f"{region}-a{a}", region))
    h = AreaHierarchy.from_pairs(pairs)
    return h, tuple(i for i, _ in pairs), tuple(region_ids)


def household(hid, deprived, size=1, weight=1.0):
    flags = {i: i in deprived for i in NINE.indicators}
    return Household(hid, "a1", "all", size, flags, weight)


def enumerate_persons(records, profile):
    """Person-level brute force in exact rational arithmetic."""
    persons = []
    for r in records:
        score = Fraction(0)
        for ind, w in zip(profile.indicators, profile.weights):
            if r.deprivations[ind]:
                score += w
        copies = r.size * Fraction(r.weight).limit_denominator(10**6)
        persons.append((copies, score))
    total = sum(c for c, _ in persons)
    poor_total = sum(c for c, s in persons if s >= profile.poverty_cutoff)
    h = poor_total / total
    a = (
        sum(c * s for c, s in persons if s >= profile.poverty_cutoff) / poor_total
        if poor_total
        else Fraction(0)
    )
    return h, a, h * a


def mini_update_request() -> UpdateRequest:
    census = sio.load_composition(MINI / "census2002.csv")
    h = sio.load_hierarchy(MINI / "hierarchy.csv")
    totals = sio.load_projections(MINI / "projections.csv")[2013]
    col = sio.load_margin(MINI / "survey_margin.csv", MarginLevel.CATEGORY, 2013)
    return UpdateRequest(census, col, totals, fixed_shares(census, h))


def mini_pool(n: int = 12) -> list[MarginVector]:
    aux = sio.load_aux_populations(MINI / "aux.csv")[2013]
    pool = []
    for k in range(n):
        factors = 1.0 + 0.06 * np.cos(k + np.arange(len(aux.ids)))
        pool.append(aux.with_values(aux.values * factors))
    return pool


def reference_bootstrap(point, design, pool, B, master_seed, tol=1e-8):
    """Independent replicate loop: redraw the census, resample both margins,
    re-rake, accumulate squared deviations from the point estimate."""
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


# --- the gates -------------------------------------------------------------

def test_01_raking_hits_margins_preserves_odds_ratios_and_matches_oracle():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for _ in range(1000):
        rows, cols = (int(v) for v in rng.integers(2, 7, size=2))
        seed, row_m, col_m, res = random_fit(rng, rows, cols)
        assert res.converged
        fitted = res.fitted.counts
        np.testing.assert_allclose(fitted.sum(axis=1), row_m.values, rtol=1e-8)
        np.testing.assert_allclose(fitted.sum(axis=0), col_m.values, rtol=1e-8)
        np.testing.assert_allclose(
            all_odds_ratios(fitted), all_odds_ratios(seed.counts), rtol=1e-6
        )
        oracle = raking_oracle(
            seed.counts, row_m.values, col_m.values, res.iterations_used
        )
        np.testing.assert_allclose(fitted, oracle, rtol=0, atol=1e-8)
    assert time.perf_counter() - started < 10.0


def test_02_fitted_tables_keep_the_seed_association_structure():
    rng = np.random.default_rng(202)
    for _ in range(100):
        rows, cols = (int(v) for v in rng.integers(2, 7, size=2))
        seed, _, _, res = random_fit(rng, rows, cols)
        assert res.converged
        assert association_distance(seed, res.fitted) < 1e-6


def test_03_share_vectors_sum_to_one_rescale_invariantly_and_distribute_exactly():
    rng = np.random.default_rng(303)
    for _ in range(1000):
        h, area_ids, region_ids = random_regions(rng)
        counts = np.exp(rng.uniform(0, 6, (len(area_ids), 2)))
        census = Composition(area_ids, ("c1", "c2"), counts)
        positions = h.group_positions(area_ids)

        fixed = fixed_shares(census, h)
        for pos in positions.values():
            assert abs(fixed.shares[pos].sum() - 1.0) <= 1e-9

        aux = MarginVector(
            area_ids, np.exp(rng.uniform(0, 6, len(area_ids))), MarginLevel.SMALL_AREA
        )
        dyn = dynamic_shares(aux, h)
        for pos in positions.values():
            assert abs(dyn.shares[pos].sum() - 1.0) <= 1e-9

        scaled = aux.values.copy()
        for pos in positions.values():
            scaled[pos] *= float(np.exp(rng.uniform(-2, 2)))
        dyn_scaled = dynamic_shares(aux.with_values(scaled), h)
        np.testing.assert_allclose(dyn_scaled.shares, dyn.shares, rtol=1e-12, atol=0)

        totals = np.exp(rng.uniform(0, 12, len(region_ids)))
        out = distribute(
            MarginVector(region_ids, totals, MarginLevel.LARGE_AREA), dyn
        )
        for region, total in zip(region_ids, totals):
            block = [v for i, v in zip(out.ids, out.values) if h.large_of(i) == region]
            assert math.fsum(block) == total


def test_04_poverty_scores_cutoff_and_index_identities_hold_exactly():
    two = household_table(
        [household("h1", {"child_mortality"}), household("h2", set(LIVING_STANDARD_INDICATORS))]
    )
    assert deprivation_score(two, 0, NINE) == Fraction(1, 3)
    assert deprivation_score(two, 1, NINE) == Fraction(1, 3)
    assert is_poor(Fraction(1, 3), NINE)

    rng = np.random.default_rng(404)
    records = []
    for i in range(200):
        deprived = {ind for ind in NINE.indicators if rng.random() < 0.3}
        records.append(household(f"h{i}", deprived, size=int(rng.integers(1, 9))))
    res = compute_mpi(household_table(records), NINE)
    assert res.mpi == res.headcount * res.intensity
    assert res.contributions is not None
    assert sum(res.contributions.values()) == pytest.approx(1.0, abs=1e-9)

    h, a, m = enumerate_persons(records, NINE)
    assert res.headcount == float(h)
    assert res.intensity == pytest.approx(float(a), abs=1e-15)
    assert res.mpi == pytest.approx(float(m), abs=1e-15)


def test_05_bootstrap_degenerates_to_zero_matches_reference_and_reruns_bitwise():
    started = time.perf_counter()
    req = mini_update_request()
    design = sio.load_design(MINI / "design.csv")

    degenerate = BootstrapConfig(
        replicates=10,
        seed=5,
        col_resample="none",
        aux_resample="none",
        census_resample="none",
    )
    assert degenerate.fully_degenerate
    unc = bootstrap_mse(req, None, None, degenerate)
    assert np.all(unc.mse == 0.0)

    pool = mini_pool()
    unc = bootstrap_mse(req, design, pool, BootstrapConfig(replicates=100, seed=17))
    assert unc.completed_replicates == 100
    assert unc.dropped_replicates == 0
    want = reference_bootstrap(spree_update(req), design, pool, 100, 17)
    np.testing.assert_allclose(unc.mse, want, rtol=0, atol=1e-9)

    cfg = BootstrapConfig(replicates=40, seed=99)
    first = bootstrap_mse(req, design, mini_pool(), cfg)
    second = bootstrap_mse(req, design, mini_pool(), cfg)
    np.testing.assert_array_equal(first.point, second.point)
    np.testing.assert_array_equal(first.mse, second.mse)
    np.testing.assert_array_equal(first.cv, second.cv)
    np.testing.assert_array_equal(first.rep_mean, second.rep_mean)
    for label in first.rep_quantiles:
        np.testing.assert_array_equal(
            first.rep_quantiles[label], second.rep_quantiles[label]
        )
    np.testing.assert_array_equal(first.headcount_mse, second.headcount_mse)
    assert time.perf_counter() - started < 60.0


def test_06_census_replicate_means_match_parameters_within_three_sigma():
    truth = make_composition(
        [[120.0, 80.0], [300.0, 200.0], [50.0, 150.0], [400.0, 100.0], [20.0, 30.0]]
    )
    lam = truth.counts.sum(axis=1)
    probs = truth.counts / lam[:, None]
    n = 10_000
    g = rngmod.stream(606, 0)
    row_sum = np.zeros(len(lam))
    cell_sum = np.zeros_like(truth.counts)
    for _ in range(n):
        rep = replicate_census(truth, g)
        row_sum += rep.counts.sum(axis=1)
        cell_sum += rep.counts
    row_mean = row_sum / n
    cell_mean = cell_sum / n
    assert np.all(np.abs(row_mean - lam) <= 3 * np.sqrt(lam / n))
    cell_lam = lam[:, None] * probs
    assert np.all(np.abs(cell_mean - cell_lam) <= 3 * np.sqrt(cell_lam / n))


def test_07_shock_scenario_dynamic_wins_top_quartile_fixed_wins_middle():
    started = time.perf_counter()
    cfg = migration_shock_config()
    assert cfg.replicates == 500
    assert cfg.aux_cv == 0.10
    plan = build_scenario(cfg)
    assert len(plan.truth_t0.area_ids) == 12
    report = run_simulation(plan)

    labels = report.quartile_labels
    mean_abs = {}
    for strategy in ("fixed", "dynamic"):
        bias = report.metrics[strategy].share_bias
        mean_abs[strategy] = [
            float(np.nanmean(np.abs(bias[labels == q]))) for q in range(4)
        ]
    assert mean_abs["dynamic"][3] < mean_abs["fixed"][3]
    assert mean_abs["fixed"][1] < mean_abs["dynamic"][1]
    assert mean_abs["fixed"][2] < mean_abs["dynamic"][2]
    assert time.perf_counter() - started < 300.0


def test_08_error_metrics_match_direct_formulas_and_rmse_dominates_bias():
    rng = np.random.default_rng(808)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        tru = np.exp(rng.uniform(0, 4, n))
        est = tru * np.exp(rng.normal(0, 0.2, n))
        bias = relative_bias(est, tru)
        rmse = relative_rmse(est, tru)
        want_bias = (est - tru).mean() / tru.mean()
        want_rmse = np.sqrt(((est - tru) ** 2).mean()) / tru.mean()
        assert abs(bias - want_bias) <= 1e-12 * max(1.0, abs(want_bias))
        assert abs(rmse - want_rmse) <= 1e-12 * max(1.0, abs(want_rmse))
        assert rmse >= abs(bias)


def test_09_updating_a_census_onto_its_own_margins_returns_it():
    rng = np.random.default_rng(909)
    for _ in range(100):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(2, 5))
        census = make_composition(random_positive_table(rng, rows, cols))
        h = two_region_hierarchy(rows)
        large = aggregate_to_large(census, h)
        req = UpdateRequest(
            seed=census,
            col_margin=column_margins(census),
            large_totals=MarginVector(
                large.area_ids, large.counts.sum(axis=1), MarginLevel.LARGE_AREA
            ),
            shares=fixed_shares(census, h),
        )
        res = spree_update(req)
        assert res.ipf.converged
        np.testing.assert_allclose(
            res.fitted.counts, census.counts, rtol=1e-7, atol=1e-8
        )


def test_10_pixel_aggregation_conserves_mass_and_matches_rectangle_oracle():
    px = sio.load_pixels(FIXTURES / "pixels10.csv")
    total = math.fsum(px.value)
    assert total == 5050.0

    for name, splitter in (
        ("polygons_vertical.geojson", lambda lon, lat: "west" if lon < 5 else "east"),
        ("polygons_horizontal.geojson", lambda lon, lat: "south" if lat < 5 else "north"),
    ):
        polys = sio.load_polygons(FIXTURES / name)
        agg = aggregate_pixels(px, polys)
        assert agg.unassigned_count == 0
        assert math.fsum(agg.margin.values) == total
        oracle: dict[str, float] = {}
        for lon, lat, value in zip(px.lon, px.lat, px.value):
            key = splitter(lon, lat)
            oracle[key] = oracle.get(key, 0.0) + value
        got = dict(zip(agg.margin.ids, agg.margin.values))
        assert got == oracle


def test_11_headcount_readout_recovers_the_shipped_regional_rates():
    comp = sio.load_composition(FIXTURES / "dakar.csv")
    rates = headcount_from_composition(comp)
    by_area = dict(zip(comp.area_ids, rates))
    assert by_area["dakar"] == 0.518
    assert by_area["dakar-female"] == 0.503


def test_12_cli_reruns_with_identical_inputs_and_seeds_are_byte_identical(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")

    def bootstrap_args(out):
        return [
            "bootstrap",
            "--census", str(MINI / "census2002.csv"),
            "--col-margin", str(MINI / "survey_margin.csv"),
            "--projections", str(MINI / "projections.csv"),
            "--hierarchy", str(MINI / "hierarchy.csv"),
            "--shares-mode", "fixed",
            "--year", "2013",
            "--design", str(MINI / "design.csv"),
            "--replicates", "50",
            "--seed", "7",
            "--out", str(out),
        ]

    def validate_args(out):
        return [
            "validate",
            "--plan", str(FIXTURES / "mini_plan.json"),
            "--replicates", "5",
            "--seed", "5",
            "--out", str(out),
        ]

    for label, args in (("bootstrap", bootstrap_args), ("validate", validate_args)):
        first, second = tmp_path / f"{label}1", tmp_path / f"{label}2"
        assert cli_main(args(first)) == 0
        assert cli_main(args(second)) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert names, label
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), (
                f"{label}: {name} differs between reruns"
            )
