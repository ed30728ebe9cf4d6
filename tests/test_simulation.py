import math
import os
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spreekit import (
    AreaHierarchy,
    Composition,
    MarginLevel,
    MarginVector,
    SimulationPlan,
    aggregate_to_large,
    build_scenario,
    column_margins,
    migration_shock_config,
    quartile_grouping,
    replicate_census,
    row_margins,
    run_simulation,
)
from spreekit import _fork, bootstrap, io as sio, rng as rngmod, simulation
from spreekit.scenario import ScenarioConfig
from spreekit.simulation import STRATEGIES, StrategyMetrics, _pearson_rows, quartile_means

from conftest import (
    FIXTURES,
    another_thread_alive,
    fake_cpus,
    make_composition,
    make_margin,
    report_bits,
    same_bits,
    two_region_hierarchy,
)


def relative_bias(estimates, truths) -> float:
    """``_nd_bias`` of one series."""
    est, tru = np.asarray(estimates, dtype=float), np.asarray(truths, dtype=float)
    return float(simulation._nd_bias(est, tru))


def relative_rmse(estimates, truths) -> float:
    """``_nd_rmse`` of one series."""
    est, tru = np.asarray(estimates, dtype=float), np.asarray(truths, dtype=float)
    return float(simulation._nd_rmse(est, tru))


class TestMetricFormulas:
    def test_relative_bias_direct_formula(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            est = rng.normal(10.0, 3.0, size=n)
            tru = rng.uniform(1.0, 20.0, size=n)
            want = (est - tru).mean() / tru.mean()
            assert relative_bias(est, tru) == pytest.approx(want, abs=1e-12)

    def test_relative_rmse_direct_formula(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            est = rng.normal(10.0, 3.0, size=n)
            tru = rng.uniform(1.0, 20.0, size=n)
            want = math.sqrt(((est - tru) ** 2).mean()) / tru.mean()
            assert relative_rmse(est, tru) == pytest.approx(want, abs=1e-12)

    def test_rmse_dominates_abs_bias(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            n = int(rng.integers(2, 20))
            est = rng.normal(5.0, 2.0, size=n)
            tru = rng.uniform(0.5, 9.0, size=n)
            assert relative_rmse(est, tru) >= abs(relative_bias(est, tru)) - 1e-15

    def test_zero_mean_truth_gives_nan(self):
        assert math.isnan(relative_bias([1.0, 2.0], [0.0, 0.0]))
        assert math.isnan(relative_rmse([1.0, 2.0], [0.0, 0.0]))


def relative_bias_formula(estimates, truths):
    """The relative bias as it was computed before it shared ``_nd_bias``."""
    est, tru = np.asarray(estimates, dtype=float), np.asarray(truths, dtype=float)
    denom = tru.mean()
    if denom == 0:
        return float("nan")
    return float((est - tru).mean() / denom)


def relative_rmse_formula(estimates, truths):
    """The relative RMSE before it recomputed overflowed squares."""
    est, tru = np.asarray(estimates, dtype=float), np.asarray(truths, dtype=float)
    denom = tru.mean()
    if denom == 0:
        return float("nan")
    return float(np.sqrt(((est - tru) ** 2).mean()) / denom)


def relative_rmse_exact(estimates, truths) -> float:
    """sqrt(mean((est - truth)^2)) / mean(truth), rounded once from exact
    rationals but for the mean truth, which is the float ``np.mean``; NaN
    for a non-finite input or a zero mean truth."""
    if not all(map(math.isfinite, [*estimates, *truths])):
        return math.nan
    est, tru = [Fraction(v) for v in estimates], [Fraction(v) for v in truths]
    mean = Fraction(float(np.mean(truths)))
    if mean == 0:
        return math.nan
    ratio = sum((e - t) ** 2 for e, t in zip(est, tru)) / len(tru) / mean**2
    try:
        return math.copysign(math.sqrt(ratio), mean)
    except OverflowError:
        return math.copysign(math.inf, mean)


def same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def rmse_matches_oracles(got: float, estimates, truths, plain: float) -> bool:
    """``plain`` (the old formula) bit for bit where it is finite or the mean
    truth is not finite or zero; where it overflowed, the exact value.

    Squares of differences scaled by the mean truth can themselves overflow
    once the result passes about 1e153, so past 1e150 only the magnitude
    and the sign are checked.
    """
    with np.errstate(all="ignore"):
        mean = float(np.mean(truths))
    if math.isfinite(plain) or not math.isfinite(mean) or mean == 0:
        return same_float(got, plain)
    exact = relative_rmse_exact(estimates, truths)
    if math.isnan(exact):
        return math.isnan(got)
    if abs(exact) > 1e150:
        return abs(got) > 1e150 and math.copysign(1, got) == math.copysign(1, exact)
    return got == pytest.approx(exact, rel=1e-12)


@st.composite
def metric_inputs(draw):
    """Estimates and truths from 1e-300 to 1e300, with truths that are
    random, all zero, the negated estimates, or mean exactly zero."""
    n = draw(st.integers(1, 60))
    scale = 10.0 ** draw(st.integers(-300, 300))
    values = st.floats(-10.0, 10.0).map(lambda v: v * scale)
    est = draw(st.lists(values, min_size=n, max_size=n))
    kind = draw(st.sampled_from(["random", "zero", "negated", "zero-mean"]))
    if kind == "random":
        tru = draw(st.lists(values, min_size=n, max_size=n))
    elif kind == "zero":
        tru = [0.0] * n
    elif kind == "negated":
        tru = [-v for v in est]
    else:
        half = draw(st.lists(values, min_size=n // 2, max_size=n // 2))
        tru = half + [-v for v in half] + [0.0] * (n % 2)
    return est, tru


class TestMetricOracles:
    @settings(max_examples=500, deadline=None)
    @given(metric_inputs())
    @example(([3.0], [2.0]))
    @example(([1.0], [0.0]))
    @example(([1.0, 2.0], [5.0, -5.0]))
    @example(([1e300, 3e300], [2e300, 2e300]))
    @example(([3e-300, 1e-300], [1e-300, 1e-300]))
    def test_metrics_match_direct_formulas_bitwise(self, case):
        est, tru = case
        with np.errstate(all="ignore"):
            assert same_float(relative_bias(est, tru), relative_bias_formula(est, tru))
            plain = relative_rmse_formula(est, tru)
        assert rmse_matches_oracles(relative_rmse(est, tru), est, tru, plain)

    def test_rmse_of_overflowing_squares(self):
        # (1e300)**2 overflows; scaled by the mean truth 2e300 the
        # differences are -0.5 and 0.5.  No RuntimeWarning is raised.
        assert relative_rmse([1e300, 3e300], [2e300, 2e300]) == 0.5
        assert relative_rmse([1e300, 3e300], [-2e300, -2e300]) == pytest.approx(-(17**0.5) / 2)
        est = np.array([[1e300, 1.0], [3e300, 3.0]])
        tru = np.array([[2e300, 2.0], [2e300, 2.0]])
        assert simulation._nd_rmse(est, tru).tolist() == [0.5, 0.5]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(metric_inputs())
    def test_rmse_keeps_plain_bits_or_matches_exact(self, case):
        est, tru = case
        with np.errstate(all="ignore"):
            plain = relative_rmse_formula(est, tru)
        assert rmse_matches_oracles(relative_rmse(est, tru), est, tru, plain)


def metric_exact(estimates, truths, rmse: bool) -> tuple[float, float]:
    """The relative bias or RMSE from exact rationals, and the error that the
    float sums of n terms may add to it.

    The mean truth is the float ``np.mean``, which the plain formula divides
    by, where that is finite, and exact where it overflows; NaN where it is
    zero.  The error allows (n + 2) roundings of the sums of absolute terms.
    """
    est, tru = [Fraction(v) for v in estimates], [Fraction(v) for v in truths]
    n = len(tru)
    with np.errstate(all="ignore"):
        mean = float(np.mean(truths))
    total = Fraction(mean) * n if math.isfinite(mean) else sum(tru)
    if total == 0:
        return math.nan, 0.0
    diffs = [e - t for e, t in zip(est, tru)]
    if rmse:
        squared = n * sum(d * d for d in diffs) / total**2
        if squared > 10**300:  # only the sign is checked past 1e150
            return (math.inf if total > 0 else -math.inf), math.inf
        value = Fraction(math.sqrt(squared)) * (1 if total > 0 else -1)
        spread = abs(value)
    else:
        value = sum(diffs) / total
        spread = sum(abs(d) for d in diffs) / abs(total)
    slack = (n + 2) * Fraction(np.finfo(float).eps) * (
        spread + abs(value) * sum(abs(t) for t in tru) / abs(total)
    )
    try:
        return float(value), float(slack)
    except OverflowError:
        return (math.inf if value > 0 else -math.inf), math.inf


@st.composite
def huge_metric_inputs(draw):
    """Estimates and truths up to the float maximum, all non-negative (as
    counts and shares are) or of either sign, so that the sums of the truths
    or of the differences overflow."""
    n = draw(st.integers(1, 12))
    top = np.finfo(float).max
    low = 0.0 if draw(st.booleans()) else -1.0
    values = st.floats(low, 1.0).map(lambda v: v * top)
    est = draw(st.lists(values, min_size=n, max_size=n))
    tru = draw(st.lists(values, min_size=n, max_size=n))
    return est, tru


class TestOverflowSafeMetrics:
    def test_bias_and_rmse_of_overflowing_mean_truth(self):
        # The truths sum past the float range; divided by four first, they
        # do not.  No RuntimeWarning is raised.
        assert relative_bias([1.5e308, 1.5e308], [1e308, 1e308]) == 0.5
        assert relative_rmse([1.5e308, 1.5e308], [1e308, 1e308]) == 0.5
        assert relative_rmse([1e308], [-1e308]) == -2.0
        assert math.isnan(relative_bias([1e308, 1e308], [1e308, -1e308]))
        est = np.array([[1.5e308, 1.0], [1.5e308, 3.0]])
        tru = np.array([[1e308, 2.0], [1e308, 2.0]])
        assert simulation._nd_bias(est, tru).tolist() == [0.5, 0.0]
        assert simulation._nd_rmse(est, tru).tolist() == [0.5, 0.5]

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(metric_inputs() | huge_metric_inputs())
    def test_plain_bits_where_finite_else_exact(self, case):
        # The formulas before the overflow fixes are the oracle wherever
        # their result and the mean truth are finite (or the mean truth is
        # zero); elsewhere the exact value within the rounding of the sums.
        est, tru = case
        with np.errstate(all="ignore"):
            mean = float(np.mean(tru))
            plain = (relative_bias_formula(est, tru), relative_rmse_formula(est, tru))
        for got, want, rmse in zip(
            (relative_bias(est, tru), relative_rmse(est, tru)), plain, (False, True)
        ):
            if mean == 0 or (math.isfinite(mean) and math.isfinite(want)):
                assert same_float(got, want)
                continue
            exact, slack = metric_exact(est, tru, rmse)
            if math.isnan(exact):
                assert math.isnan(got)
            elif rmse and abs(exact) > 1e150:
                # Past about 1e153 the squares of the scaled differences overflow.
                assert abs(got) > 1e150 and math.copysign(1, got) == math.copysign(1, exact)
            elif math.isinf(exact):
                assert got == exact
            else:
                assert abs(got - exact) <= slack, (got, exact, slack)


class TestQuartileGrouping:
    def test_even_split(self):
        labels = quartile_grouping([0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6])
        assert labels.tolist() == [0, 3, 0, 3, 1, 2, 1, 2]

    def test_remainder_goes_to_earlier_groups(self):
        labels = quartile_grouping(list(range(103)))
        sizes = [int((labels == q).sum()) for q in range(4)]
        assert sizes == [26, 26, 26, 25]
        # Ascending: the largest scores land in the top group.
        assert labels[102] == 3
        assert labels[0] == 0

    def test_five_areas(self):
        labels = quartile_grouping([5.0, 1.0, 2.0, 3.0, 4.0])
        sizes = [int((labels == q).sum()) for q in range(4)]
        assert sizes == [2, 1, 1, 1]
        assert labels[1] == 0 and labels[2] == 0  # two smallest share group 0
        assert labels[0] == 3

    def test_absolute_value_and_ties(self):
        # Signs are ignored; exact ties resolve by position order.
        labels = quartile_grouping([-0.5, 0.5, -0.1, 0.1])
        assert labels.tolist() == [2, 3, 0, 1]

    def test_too_few_areas(self):
        with pytest.raises(ValueError, match="at least 4"):
            quartile_grouping([1.0, 2.0, 3.0])

    def test_nan_ranks_last(self):
        labels = quartile_grouping([0.3, np.nan, 0.1, 0.2, np.nan, 0.05, 0.4, 0.0])
        assert labels.tolist() == [2, 3, 1, 1, 3, 0, 2, 0]


def quartile_grouping_loop(change_scores):
    """Oracle: ``quartile_grouping`` as it was, a sort of the positions by
    (absolute score, position) and a loop over each group's areas.  NaN
    ranks after every number: the old key gave it no defined place."""
    scores = np.abs(np.asarray(change_scores, dtype=float))
    n = len(scores)
    order = sorted(
        range(n), key=lambda i: (1, 0.0, i) if np.isnan(scores[i]) else (0, scores[i], i)
    )
    base, rem = divmod(n, 4)
    sizes = [base + 1 if q < rem else base for q in range(4)]
    labels = np.empty(n, dtype=int)
    start = 0
    for q, size in enumerate(sizes):
        for i in order[start : start + size]:
            labels[i] = q
        start += size
    return labels


def win_counts_loop(share_bias):
    """Oracle: the per-area loop ``run_simulation`` counted wins with."""
    win_counts = {s: 0 for s in share_bias}
    abs_share = {s: np.abs(v) for s, v in share_bias.items()}
    for a in range(len(next(iter(abs_share.values())))):
        best = None
        for s in share_bias:
            v = abs_share[s][a]
            if np.isnan(v):
                continue
            if best is None or v < abs_share[best][a]:
                best = s
        if best is not None:
            win_counts[best] += 1
    return win_counts


@st.composite
def ranked_scores(draw):
    """(S, A) scores for 1-3 strategies over 4-200 areas: ordinary values,
    ties, signed zeros, +-inf and NaN, with whole areas NaN."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 3)), draw(st.integers(4, 200)))
    scores = g.normal(size=shape) * 10.0 ** draw(st.integers(-5, 5))
    if draw(st.booleans()):
        scores = np.round(scores)
    special = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])
    mask = g.random(shape) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    scores[mask] = g.choice(special, size=shape)[mask]
    scores[:, g.random(shape[1]) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = np.nan
    return scores


@settings(max_examples=300)
@given(ranked_scores())
def test_quartile_grouping_matches_old_loop(scores):
    for row in scores:
        got = quartile_grouping(row)
        assert got.dtype == np.dtype(int)
        assert got.tolist() == quartile_grouping_loop(row).tolist()


@settings(max_examples=300)
@given(ranked_scores())
@example(np.array([[np.nan, 1.0, np.inf, np.nan], [np.nan, np.nan, np.nan, 2.0]]))
def test_win_counts_match_old_loop(scores):
    share_bias = dict(zip(STRATEGIES, scores))
    got = simulation._win_counts(share_bias)
    want = win_counts_loop(share_bias)
    assert list(got.items()) == list(want.items())
    assert all(type(v) is int for v in got.values())


class TestReplicateCensus:
    def test_zero_rows_stay_zero(self):
        truth = make_composition([[0.0, 0.0], [50.0, 50.0]])
        rep = replicate_census(truth, rngmod.stream(0, 0))
        assert np.all(rep.counts[0] == 0.0)
        assert rep.counts[1].sum() > 0

    def test_row_totals_are_poisson_with_truth_mean(self):
        truth = make_composition([[600.0, 400.0]])
        totals = [
            replicate_census(truth, rngmod.stream(1, b)).counts.sum()
            for b in range(400)
        ]
        # Poisson(1000): mean 1000, sd sqrt(1000); 3 sigma over 400 draws.
        assert np.mean(totals) == pytest.approx(1000.0, abs=3 * math.sqrt(1000 / 400))

    def test_composition_follows_truth_probabilities(self):
        truth = make_composition([[600.0, 400.0]])
        poor = [
            replicate_census(truth, rngmod.stream(2, b)).counts[0, 0]
            for b in range(400)
        ]
        sd = math.sqrt(1000 * 0.6 * 0.4 + 0.36 * 1000)  # multinomial + Poisson
        assert np.mean(poor) == pytest.approx(600.0, abs=3 * sd / math.sqrt(400))

    def test_stream_reproducibility(self):
        truth = make_composition([[600.0, 400.0], [30.0, 70.0]])
        a = replicate_census(truth, rngmod.stream(3, 7))
        b = replicate_census(truth, rngmod.stream(3, 7))
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_matches_per_area_reference_loop(self):
        def per_area_census(truth, rng):
            """Poisson row totals, then one multinomial per area with positive
            mass and a positive draw, in area order."""
            totals = truth.counts.sum(axis=1)
            draws = rng.poisson(totals)
            counts = np.zeros_like(truth.counts)
            for a in range(len(totals)):
                if totals[a] > 0 and draws[a] > 0:
                    counts[a] = rng.multinomial(int(draws[a]), truth.counts[a] / totals[a])
            return counts

        zero_draws = 0
        for k in range(150):
            g = np.random.default_rng(k)
            counts = g.integers(0, 6, size=(20, 3)) * g.uniform(0.0, 2.0, size=(20, 1))
            counts[g.random(20) < 0.25] = 0.0
            truth = make_composition(counts)
            rng, rng_ref = rngmod.stream(k, 3), rngmod.stream(k, 3)
            got = replicate_census(truth, rng).counts
            expected = per_area_census(truth, rng_ref)
            np.testing.assert_array_equal(got, expected)
            assert rng.random() == rng_ref.random()
            zero_draws += int(np.sum((counts.sum(axis=1) > 0) & (got.sum(axis=1) == 0)))
        assert zero_draws > 0


@pytest.fixture
def no_census_redraw(monkeypatch):
    """Rounds use the truth censuses themselves instead of redrawing them."""
    monkeypatch.setattr(simulation, "replicate_census", lambda truth, rng: truth)


def deterministic_plan(**overrides):
    """Target truth equals base truth and no survey design: with
    ``no_census_redraw`` every round is deterministic, every strategy
    reconstructs the truth and all error metrics vanish."""
    truth = Composition(
        ("a1", "a2", "a3", "a4"),
        ("poor", "non-poor"),
        [[400.0, 600.0], [300.0, 700.0], [550.0, 450.0], [200.0, 800.0]],
    )
    h = two_region_hierarchy(4)
    large = aggregate_to_large(truth, h)
    totals = MarginVector(
        large.area_ids, large.counts.sum(axis=1), MarginLevel.LARGE_AREA, 0
    )
    kw = dict(
        replicates=3,
        seed=0,
        truth_t0=truth,
        truth_t=truth,
        hierarchy=h,
        large_totals_t=totals,
        strategies=("fixed", "dynamic"),
        aux_pool=(row_margins(truth),),
    )
    kw.update(overrides)
    return SimulationPlan(**kw)


class TestRunSimulation:
    def test_deterministic_self_update_has_zero_error(self, no_census_redraw):
        rep = run_simulation(deterministic_plan())
        for s in ("fixed", "dynamic"):
            m = rep.metrics[s]
            assert m.completed == 3
            assert np.all(np.abs(m.cell_bias) < 1e-8)
            assert np.all(np.abs(m.cell_rmse) < 1e-8)
            assert np.all(np.abs(m.share_bias) < 1e-12)
            assert np.all(np.abs(m.headcount_bias) < 1e-8)

    def test_zero_aux_cv_leaves_only_the_distortion(self):
        # No sampling noise: every pool entry is the same distorted truth.
        plan = build_scenario(ScenarioConfig(replicates=2, aux_cv=0.0, aux_pool_size=3, seed=4))
        first = plan.aux_pool[0].values
        assert all(entry.values.tobytes() == first.tobytes() for entry in plan.aux_pool)
        truth = plan.truth_t.counts.sum(axis=1)
        assert np.all(first != truth)
        np.testing.assert_allclose(first / truth, 1.0, atol=ScenarioConfig().aux_bias_range[1])

    @pytest.mark.parametrize("cv", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_aux_cv_is_rejected(self, cv):
        # NaN used to pass the sign check and draw no noise, as 0 does.
        with pytest.raises(ValueError, match="^aux_cv must be finite$"):
            ScenarioConfig(aux_cv=cv)

    def test_an_aux_cv_too_large_to_square_fails_the_build(self):
        cfg = ScenarioConfig(replicates=2, aux_cv=1e200, aux_pool_size=3)
        with pytest.raises(ValueError, match=r"^aux_cv 1e\+200 is too large to square$"):
            build_scenario(cfg)
        # The exact pool draws no noise, so the CV is not used.
        build_scenario(replace(cfg, aux_exact=True))

    def test_exact_aux_pool_zeroes_dynamic_share_error(self):
        cfg = ScenarioConfig(replicates=6, aux_exact=True, seed=4)
        rep = run_simulation(build_scenario(cfg))
        m = rep.metrics["dynamic"]
        assert np.all(m.share_bias == 0.0)
        assert np.all(m.share_rmse == 0.0)
        assert np.all(rep.share_accuracy["dynamic"] == 0.0)
        assert np.any(rep.metrics["fixed"].share_bias != 0.0)

    def test_migration_shock_regression_values(self):
        rep = run_simulation(build_scenario(migration_shock_config(replicates=8)))
        assert rep.quartile_labels.tolist() == [1, 1, 0, 0, 2, 2, 0, 1, 3, 3, 3, 2]
        assert rep.win_counts == {"fixed": 9, "dynamic": 3, "hybrid": 0}
        assert {s: m.completed for s, m in rep.metrics.items()} == {
            "fixed": 8, "dynamic": 8, "hybrid": 8,
        }
        # The shock region R3 dominates the top quartile.
        top = tuple(a for a, q in zip(rep.area_ids, rep.quartile_labels) if q == 3)
        assert top == ("R3-A1", "R3-A2", "R3-A3")

    def test_report_shapes_and_ranges(self):
        rep = run_simulation(build_scenario(migration_shock_config(replicates=6)))
        for s, m in rep.metrics.items():
            assert m.cell_bias.shape == (12, 2)
            assert m.share_bias.shape == (12,)
            assert np.all(m.cell_rmse[np.isfinite(m.cell_rmse)] >= 0)
            assert rep.share_accuracy[s].shape == (4,)
            for table in rep.quartile_summary[s].values():
                assert table.shape == (4, 6)
                # Columns q2.5, q25, median, q75, q97.5 are ordered.
                quant = table[:, [0, 1, 2, 4, 5]]
                assert np.all(np.diff(quant, axis=1) >= -1e-12)
            corr = rep.correlations[s]
            finite = corr[np.isfinite(corr)]
            assert np.all(finite >= -1.0) and np.all(finite <= 1.0)

    def test_failing_strategy_is_isolated(self, no_census_redraw):
        # A zero-region auxiliary margin makes dynamic shares undefined in
        # every round; fixed must be unaffected.
        bad_aux = MarginVector(
            ("a1", "a2", "a3", "a4"),
            np.array([0.0, 0.0, 10.0, 30.0]),
            MarginLevel.SMALL_AREA,
        )
        rep = run_simulation(deterministic_plan(aux_pool=(bad_aux,)))
        assert rep.metrics["dynamic"].completed == 0
        assert len(rep.metrics["dynamic"].failures) == 3
        assert np.all(np.isnan(rep.metrics["dynamic"].cell_bias))
        assert rep.metrics["fixed"].completed == 3
        assert rep.win_counts == {"fixed": 4, "dynamic": 0}

    def test_plan_validation(self):
        truth = make_composition([[1.0, 2.0], [3.0, 4.0]])
        h = two_region_hierarchy(2)
        totals = MarginVector(("g1", "g2"), np.array([3.0, 7.0]),
                              MarginLevel.LARGE_AREA)
        with pytest.raises(ValueError, match="aux_pool"):
            SimulationPlan(
                replicates=1, seed=0, truth_t0=truth, truth_t=truth,
                hierarchy=h, large_totals_t=totals,
                strategies=("dynamic",), aux_pool=(),
            )
        with pytest.raises(ValueError, match="unknown strategies"):
            SimulationPlan(
                replicates=1, seed=0, truth_t0=truth, truth_t=truth,
                hierarchy=h, large_totals_t=totals, strategies=("zigzag",),
            )
        with pytest.raises(ValueError, match="replicates"):
            SimulationPlan(
                replicates=0, seed=0, truth_t0=truth, truth_t=truth,
                hierarchy=h, large_totals_t=totals, strategies=("fixed",),
            )

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"truth_t": make_composition(np.ones((4, 2)))},
                "truth compositions must share area and category ids",
            ),
            (
                {
                    "truth_t": Composition(
                        ("a1", "a2", "a3", "a5"), ("poor", "non-poor"), np.ones((4, 2))
                    )
                },
                "truth compositions must share area and category ids",
            ),
            ({"strategies": ()}, "at least one strategy required"),
            (
                {"aux_pool": (make_margin(np.ones(4), MarginLevel.SMALL_AREA, "b"),)},
                "aux_pool ids must match the truth area ids",
            ),
        ],
        ids=["categories", "areas", "no-strategy", "aux-pool-ids"],
    )
    def test_plan_messages(self, overrides, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            deterministic_plan(**overrides)

    @pytest.mark.parametrize(
        "strategies, repeated",
        [(("fixed", "dynamic", "fixed"), ["fixed"]),
         (("hybrid", "dynamic", "dynamic", "hybrid"), ["hybrid", "dynamic"])],
        ids=["one", "two"],
    )
    def test_repeated_strategy_is_rejected(self, strategies, repeated):
        # A repeated strategy would run twice per round but be reported once.
        with pytest.raises(ValueError, match=f"^{re.escape(f'repeated strategies: {repeated}')}$"):
            deterministic_plan(strategies=strategies)

    def test_failed_share_builds_are_recorded_every_round(self, no_census_redraw):
        # Shares are built once per round or per pool entry; a failed build
        # must still fail each round and strategy that needs it, with the
        # same message.  Pool entry 1 has an empty region g1, so dynamic and
        # hybrid fail in rounds 1 and 3.
        good = MarginVector(
            ("a1", "a2", "a3", "a4"), np.array([1.0, 3.0, 2.0, 2.0]), MarginLevel.SMALL_AREA
        )
        bad = good.with_values(np.array([0.0, 0.0, 2.0, 2.0]))
        plan = deterministic_plan(
            replicates=4, strategies=("fixed", "dynamic", "hybrid"), aux_pool=(good, bad)
        )
        rep = run_simulation(plan)
        want = tuple(
            f"replicate {r}: large area 'g1' has zero auxiliary population; "
            "shares undefined"
            for r in (1, 3)
        )
        assert rep.metrics["dynamic"].failures == want
        assert rep.metrics["hybrid"].failures == want
        assert rep.metrics["fixed"].failures == ()

    def test_fixed_share_failure_shared_by_hybrid(self):
        # Region g1 is nearly empty, so many base-year replicates have no
        # population there: fixed shares fail, and hybrid, which reuses
        # them, fails in the same rounds with the same message.
        truth = make_composition(
            [[0.004, 0.004], [0.002, 0.0], [550.0, 450.0], [200.0, 800.0]]
        )
        h = two_region_hierarchy(4)
        totals = MarginVector(("g1", "g2"), np.array([0.01, 2000.0]), MarginLevel.LARGE_AREA)
        plan = SimulationPlan(
            replicates=6, seed=2, truth_t0=truth, truth_t=truth, hierarchy=h,
            large_totals_t=totals, aux_pool=(row_margins(truth),),
        )
        rep = run_simulation(plan)
        zero = "has zero census population"
        fixed = [m for m in rep.metrics["fixed"].failures if zero in m]
        hybrid = [m for m in rep.metrics["hybrid"].failures if zero in m]
        assert fixed and fixed == hybrid
        assert not any(zero in m for m in rep.metrics["dynamic"].failures)


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Oracle: the per-replicate correlation run_simulation used to call."""
    if x.size < 2 or np.std(x) == 0 or np.std(y) == 0:
        return float("nan")
    return float(np.corrcoef(x, y)[0, 1])


def same_floats(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal bit for bit, except that any NaN matches any NaN."""
    nan = np.isnan(want)
    return bool(
        np.array_equal(np.isnan(got), nan)
        and np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
    )


@st.composite
def paired_rows(draw):
    """(R, n) estimate and truth rows, with the degenerate rows mixed in.

    Per row: ordinary, constant estimate, constant truth, all NaN, one NaN
    entry, exactly (anti-)correlated, deviations of one ulp of 1, or
    deviations so small their squares underflow.  ``n`` runs from 1 past numpy's 128-element summation block.
    """
    rows = draw(st.integers(1, 6))
    n = draw(st.integers(1, 12) | st.sampled_from([31, 129, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-6, 9))
    x = rng.normal(size=(rows, n)) * scale
    y = 0.5 * x + rng.normal(size=(rows, n)) * scale
    if draw(st.booleans()):
        x, y = np.round(x), np.round(y)
    for r in range(rows):
        kind = draw(st.integers(0, 7))
        if kind == 1:
            x[r] = x[r, 0]
        elif kind == 2:
            y[r] = 0.25
        elif kind == 3:
            x[r] = y[r] = np.nan
        elif kind == 4:
            x[r, draw(st.integers(0, n - 1))] = np.nan
        elif kind == 5:
            y[r] = -3.0 * x[r] + 1.0
        elif kind == 6:
            x[r] = 1.0 + np.arange(n) * 2.0**-52
        elif kind == 7:
            x[r] = np.arange(n) * 1e-170
    return x, y


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(paired_rows())
def test_pearson_rows_match_per_row_corrcoef(xy):
    x, y = xy
    with np.errstate(all="ignore"):
        want = np.array([_pearson(x[r], y[r]) for r in range(len(x))])
    assert same_floats(_pearson_rows(x, y), want)


def test_pearson_rows_small_n():
    x = np.array([[1.0, 2.0, 4.0], [3.0, 3.0, 3.0]])
    y = np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 3.0]])
    for n in (1, 2, 3):
        want = np.array([_pearson(x[r, :n], y[r, :n]) for r in range(2)])
        assert same_floats(_pearson_rows(x[:, :n], y[:, :n]), want)
    assert np.all(np.isnan(_pearson_rows(x[:, :1], y[:, :1])))


def test_pearson_rows_zero_std_beats_corrcoef():
    # Squared deviations that underflow: np.std is 0, so the correlation is
    # undefined, although np.corrcoef alone can return 1.0 here (its
    # product need not round each square on its own).  In the second row
    # the squares sum to one subnormal, which the division by n rounds away.
    x = np.array([[0.0, 0.0, 0.0, 1e-163], [0.0, 0.0, 0.0, 2.1e-162]])
    y = np.array([[1.0, 2.0, 3.0, 5.0]] * 2)
    assert np.isnan(_pearson(x[1], y[1])) and np.isnan(_pearson(x[0], y[0]))
    assert np.all(np.isnan(_pearson_rows(x, y)))


def test_quartile_means_skip_nan_without_warning():
    values = np.array([1.0, np.nan, 3.0, np.nan, np.nan, 2.0, -4.0, 0.5])
    labels = np.array([0, 0, 0, 1, 1, 2, 2, 3])
    got = quartile_means(values, labels)
    assert np.isnan(got[1])
    assert got[[0, 2, 3]].tolist() == [2.0, -1.0, 0.5]


def test_empty_area_without_poverty_categories_warns_nothing():
    # Area a3 has no population in either truth, so every cell ratio of it
    # is NaN; its per-area summary must be NaN without numpy's "Mean of
    # empty slice" warning, which the validate command would print as a
    # non-JSON line on stderr.
    counts = [[40.0, 60.0], [30.0, 70.0], [0.0, 0.0], [55.0, 45.0], [20.0, 80.0]]
    truth = Composition(tuple(f"a{i + 1}" for i in range(5)), ("x", "y"), counts)
    h = two_region_hierarchy(5)
    large = aggregate_to_large(truth, h)
    totals = MarginVector(large.area_ids, large.counts.sum(axis=1), MarginLevel.LARGE_AREA)
    plan = SimulationPlan(
        replicates=3, seed=1, truth_t0=truth, truth_t=truth, hierarchy=h,
        large_totals_t=totals, strategies=("fixed",),
    )
    rep = run_simulation(plan)
    m = rep.metrics["fixed"]
    assert m.completed == 3 and m.headcount_bias is None
    assert np.all(np.isnan(m.cell_bias[2])) and np.all(np.isfinite(m.cell_bias[[0, 1, 3, 4]]))
    summary = rep.quartile_summary["fixed"]["bias"]
    assert np.isnan(summary).any() and np.isfinite(summary).any()


def zero_completed_oracle(strategy, failures, n_areas, n_cats, poverty):
    """What ``run_simulation`` used to return, from a branch of its own, for
    a strategy that completed no round."""
    nan_a = np.full(n_areas, np.nan)
    metrics = StrategyMetrics(
        strategy, 0, failures, np.full((n_areas, n_cats), np.nan),
        np.full((n_areas, n_cats), np.nan), nan_a.copy(), nan_a.copy(),
        nan_a.copy() if poverty else None, nan_a.copy() if poverty else None,
    )
    summary = {"bias": np.full((4, 6), np.nan), "rmse": np.full((4, 6), np.nan)}
    return metrics, np.full(4, np.nan), summary, np.full(4, np.nan)


@st.composite
def failing_plans(draw):
    """Plans of 4..9 areas in which some strategy fails every round: region
    g1 is empty in the aux pool (dynamic and hybrid fail), in the base-year
    truth (fixed and hybrid fail), or in both."""
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 9))
    cats = draw(st.sampled_from([("poor", "non-poor"), ("x", "y"), ("x", "y", "z")]))
    areas = tuple(f"a{i + 1}" for i in range(n))
    t0 = g.uniform(5.0, 500.0, size=(n, len(cats)))
    t1 = t0 * g.uniform(0.5, 1.5, size=t0.shape)
    empty_truth, empty_aux = draw(
        st.sampled_from([(True, False), (False, True), (True, True)])
    )
    if empty_truth:
        t0[: n // 2] = 0.0
    aux = t1.sum(axis=1)
    if empty_aux:
        aux[: n // 2] = 0.0
    truth_t0 = Composition(areas, cats, t0)
    truth_t = Composition(areas, cats, t1)
    h = two_region_hierarchy(n)
    large = aggregate_to_large(truth_t, h)
    totals = MarginVector(large.area_ids, large.counts.sum(axis=1), MarginLevel.LARGE_AREA)
    return SimulationPlan(
        replicates=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**16)),
        truth_t0=truth_t0, truth_t=truth_t, hierarchy=h, large_totals_t=totals,
        # The hybrid selection needs a populated base-year region.
        strategies=("fixed", "dynamic") if empty_truth else STRATEGIES,
        aux_pool=(MarginVector(areas, aux, MarginLevel.SMALL_AREA),),
    )


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(failing_plans())
def test_zero_completed_strategy_matches_old_branch(plan):
    rep = run_simulation(plan)
    n_areas, n_cats = len(plan.truth_t0.area_ids), len(plan.truth_t0.category_ids)
    poverty = "poor" in plan.truth_t0.category_ids
    failed = [s for s, m in rep.metrics.items() if m.completed == 0]
    assert failed
    for s in failed:
        m = rep.metrics[s]
        want, accuracy, summary, corr = zero_completed_oracle(
            s, m.failures, n_areas, n_cats, poverty
        )
        assert len(m.failures) == plan.replicates
        assert (m.strategy, m.completed, m.failures) == (want.strategy, 0, want.failures)
        for name in ("cell_bias", "cell_rmse", "share_bias", "share_rmse"):
            assert same_bits(getattr(m, name), getattr(want, name)), name
        for name in ("headcount_bias", "headcount_rmse"):
            if poverty:
                assert same_bits(getattr(m, name), getattr(want, name)), name
            else:
                assert getattr(m, name) is None
        assert same_bits(rep.share_accuracy[s], accuracy)
        assert list(rep.quartile_summary[s]) == ["bias", "rmse"]
        for name in ("bias", "rmse"):
            assert same_bits(rep.quartile_summary[s][name], summary[name])
        assert same_bits(rep.correlations[s], corr)


def mean_metrics_oracle(est, tru):
    """``_nd_bias`` and ``_nd_rmse`` as they were, on ``np.mean``."""
    denom = tru.mean(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        bias = (est - tru).mean(axis=0) / denom
        rmse = np.sqrt(((est - tru) ** 2).mean(axis=0)) / denom
    return np.where(denom == 0, np.nan, bias), np.where(denom == 0, np.nan, rmse)


@st.composite
def replicate_stacks(draw):
    """(R, A) or (R, A, J) estimate and truth stacks over 1e-300..1e300,
    with zero truths and NaN headcounts; R from 1 past numpy's
    128-element summation block."""
    r = draw(st.integers(1, 6) | st.sampled_from([129, 300]))
    shape = (r, *draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-300, 300))
    est = g.uniform(0.0, 10.0, shape) * scale
    tru = g.uniform(0.0, 10.0, shape) * scale
    tru[:, 0] = 0.0
    if draw(st.booleans()):
        est[g.random(shape) < 0.2] = np.nan
    return est, tru


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(replicate_stacks())
def test_replicate_means_match_np_mean_bitwise(stacks):
    est, tru = stacks
    # Squares of 1e300 overflow to inf in both; the suite's warning filter
    # is not the subject here.
    with np.errstate(all="ignore"):
        want_bias, want_rmse = mean_metrics_oracle(est, tru)
        got_bias, got_rmse = simulation._nd_bias(est, tru), simulation._nd_rmse(est, tru)
    assert same_bits(got_bias, want_bias)
    for cell in np.ndindex(*est.shape[1:]):
        column = (slice(None), *cell)
        got, want = float(got_rmse[cell]), float(want_rmse[cell])
        assert rmse_matches_oracles(got, est[column].tolist(), tru[column].tolist(), want)


def test_stacks_hold_what_the_budget_counts(monkeypatch):
    """At R = 400 on the shipped shock plan, the run's peak (the traced
    peak plus the shared memory of the stacks, which tracemalloc does not
    see and the run holds throughout) stays within 1.5x the bytes its
    budget check counts, and the check counts exactly those bytes."""
    fake_cpus(monkeypatch, 1)  # every round in this process, where it is traced
    plan = replace(sio.load_plan(FIXTURES / "shock.json"), replicates=400)
    strategies, rounds = len(plan.strategies), plan.replicates
    areas, categories = plan.truth_t0.counts.shape
    counted = 8 * rounds * (areas * categories * (1 + strategies) + areas * (strategies + 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bootstrap, "_MAX_STACK_BYTES", counted - 1)
        with pytest.raises(ValueError, match=rf" need {counted} bytes, over the budget"):
            replace(plan)  # the plan is checked again as it is built
    # A first run fills numpy's and the interpreter's caches.
    want = run_simulation(plan)
    held, shared = [], simulation._shared

    def counted_shared(shape):
        held.append(8 * math.prod(shape))
        return shared(shape)

    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "_shared", counted_shared)
            got = run_simulation(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(held) == 3
    assert peak + sum(held) <= 1.5 * counted
    assert same_bits(got.metrics["hybrid"].cell_rmse, want.metrics["hybrid"].cell_rmse)


@pytest.mark.parametrize("rounds", [3, 500])
def test_share_vectors_reuse_their_builders_groups(rounds, monkeypatch):
    """On the shipped shock scenario the plan groups its areas once as it is
    built, and the run once per round for the fixed shares and once per aux
    pool entry it uses for dynamic shares.  The share vectors those builders
    and the hybrid builder make group nothing again (at 500 rounds: 701
    calls, where one more per share vector made 1901)."""
    group_positions, calls = AreaHierarchy.group_positions, []

    def counted(self, area_ids):
        calls.append(len(area_ids))
        return group_positions(self, area_ids)

    monkeypatch.setattr(AreaHierarchy, "group_positions", counted)
    plan = build_scenario(migration_shock_config(replicates=rounds))
    fake_cpus(monkeypatch, 1)  # every call in this process
    run_simulation(plan)
    assert len(calls) == 1 + rounds + min(rounds, len(plan.aux_pool))


def test_partly_failed_strategies_match_stacked_rounds(monkeypatch):
    """Strategies that fail in some rounds report what the formulas give on
    the completed rounds' tables stacked in round order, bit for bit."""
    # Region g1 is empty in some base-year redraws, so fixed fails in those
    # rounds only; dynamic and hybrid meet an empty seed row in every round.
    truth = make_composition([[0.3, 0.3], [0.2, 0.0], [550.0, 450.0], [200.0, 800.0]])
    truth = Composition(truth.area_ids, ("poor", "non-poor"), truth.counts)
    h = two_region_hierarchy(4)
    totals = MarginVector(("g1", "g2"), np.array([0.8, 2000.0]), MarginLevel.LARGE_AREA)
    plan = SimulationPlan(
        replicates=12, seed=2, truth_t0=truth, truth_t=truth, hierarchy=h,
        large_totals_t=totals, aux_pool=(row_margins(truth),),
    )
    report = run_simulation(plan)
    assert [m.completed for m in report.metrics.values()] == [9, 0, 0]
    shares_t = simulation._within_large_shares(
        row_margins(truth).values, h.group_positions(truth.area_ids)
    )
    real_census, real_update = simulation.replicate_census, simulation.spree_update
    for strategy in plan.strategies:
        truths, fits, shares = [], [], []

        def census(t, rng):
            c = real_census(t, rng)
            truths.append(c.counts)
            return c

        def update(req):
            res = real_update(req)
            fits.append(res.fitted.counts)
            shares.append(req.shares.shares)
            return res

        monkeypatch.setattr(simulation, "replicate_census", census)
        monkeypatch.setattr(simulation, "spree_update", update)
        run_simulation(replace(plan, strategies=(strategy,)))
        m = report.metrics[strategy]
        failed = [int(f.split()[1].rstrip(":")) for f in m.failures]
        ok = [r for r in range(plan.replicates) if r not in failed]
        tru = np.stack(truths[1::2])[ok]
        est = np.array(fits).reshape(tru.shape)
        assert same_bits(m.cell_bias, simulation._nd_bias(est, tru))
        assert same_bits(m.cell_rmse, simulation._nd_rmse(est, tru))
        est_s = np.array(shares).reshape(len(ok), 4)
        tru_s = np.broadcast_to(shares_t, est_s.shape)
        assert same_bits(m.share_bias, simulation._nd_bias(est_s, tru_s))
        assert same_bits(m.share_rmse, simulation._nd_rmse(est_s, tru_s))
        est_h, tru_h = simulation._poor_share(est, 0), simulation._poor_share(tru, 0)
        assert same_bits(m.headcount_bias, simulation._nd_bias(est_h, tru_h))
        assert same_bits(m.headcount_rmse, simulation._nd_rmse(est_h, tru_h))


def test_runs_in_one_process_carry_no_state():
    """Runs on reused plan objects, and on a second plan that shares the
    first's large-area totals and hierarchy, report the bits of runs on
    fresh objects."""
    cfg_a = migration_shock_config(replicates=6)
    cfg_b = migration_shock_config(replicates=6, seed=cfg_a.seed + 1)

    def plan_b(plan_a):
        return replace(
            build_scenario(cfg_b), large_totals_t=plan_a.large_totals_t, hierarchy=plan_a.hierarchy
        )

    plan_a = build_scenario(cfg_a)
    first = report_bits(run_simulation(plan_a))
    second = report_bits(run_simulation(plan_a))
    shared = report_bits(run_simulation(plan_b(plan_a)))
    third = report_bits(run_simulation(plan_a))
    assert first == second == third == report_bits(run_simulation(build_scenario(cfg_a)))
    assert shared == report_bits(run_simulation(plan_b(build_scenario(cfg_a))))
    assert shared != first


def test_dynamic_margin_is_built_once_per_pool_entry(monkeypatch):
    """Every round that uses a pool entry gets that entry's one share
    vector, and so a margin with the same bits; a second run reports the
    same bits."""
    plan = build_scenario(migration_shock_config(replicates=7))
    plan = replace(plan, aux_pool=plan.aux_pool[:3])
    real_update, shares, rows = simulation.spree_update, [], []

    def update(req):
        res = real_update(req)
        if req.shares.provenance == "dynamic-auxiliary":
            shares.append(req.shares)
            rows.append(res.row_margin_used.values.tobytes())
        return res

    monkeypatch.setattr(simulation, "spree_update", update)
    first = report_bits(run_simulation(plan))
    assert len(shares) == 7 and len({id(sv) for sv in shares}) == 3
    assert all(shares[r] is shares[r % 3] and rows[r] == rows[r % 3] for r in range(7))
    assert report_bits(run_simulation(plan)) == first


def partly_failing_plan(replicates: int) -> SimulationPlan:
    """The plan of ``test_partly_failed_strategies_match_stacked_rounds``:
    fixed fails in some rounds, dynamic and hybrid in every round."""
    truth = make_composition([[0.3, 0.3], [0.2, 0.0], [550.0, 450.0], [200.0, 800.0]])
    truth = Composition(truth.area_ids, ("poor", "non-poor"), truth.counts)
    totals = MarginVector(("g1", "g2"), np.array([0.8, 2000.0]), MarginLevel.LARGE_AREA)
    return SimulationPlan(
        replicates=replicates, seed=2, truth_t0=truth, truth_t=truth,
        hierarchy=two_region_hierarchy(4), large_totals_t=totals, aux_pool=(row_margins(truth),),
    )


def test_failed_rounds_add_less_than_a_fit_stack_to_the_aggregation(monkeypatch):
    """A strategy's completed rounds are moved to the front of its own
    stacks, not copied: what failed rounds add to the aggregation's
    ``tracemalloc`` peak (from the end of the rounds) is less than one
    strategy's fit stack.  Copying the fits and shares took 155 kB."""
    fake_cpus(monkeypatch, 1)

    def aggregation_peak(plan: SimulationPlan) -> tuple[int, dict]:
        run_simulation(replace(plan, replicates=20))  # fills numpy's and the interpreter's caches
        poor_column = simulation._poor_column

        def after_the_rounds(category_ids):
            tracemalloc.start()
            return poor_column(category_ids)

        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simulation, "_poor_column", after_the_rounds)
                report = run_simulation(plan)
            return tracemalloc.get_traced_memory()[1], report
        finally:
            tracemalloc.stop()

    failing = partly_failing_plan(2000)
    truth = Composition(failing.truth_t0.area_ids, ("poor", "non-poor"),
                        [[300.0, 300.0], [200.0, 100.0], [550.0, 450.0], [200.0, 800.0]])
    clean = replace(
        failing, truth_t0=truth, truth_t=truth, aux_pool=(row_margins(truth),),
        large_totals_t=MarginVector(("g1", "g2"), np.array([900.0, 2000.0]), MarginLevel.LARGE_AREA),
    )
    failing_peak, report = aggregation_peak(failing)
    clean_peak, clean_report = aggregation_peak(clean)
    assert [m.completed for m in report.metrics.values()] == [1123, 169, 169]
    assert [m.completed for m in clean_report.metrics.values()] == [2000] * 3
    fit_stack = 8 * 2000 * failing.truth_t0.counts.size
    assert failing_peak - clean_peak < fit_stack


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def recorded_forks(monkeypatch) -> list[int]:
    """The pids of the children forked from here on, through a wrapped ``os.fork``."""
    pids, fork = [], os.fork

    def recorded():
        pids.append(fork())
        return pids[-1]

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def test_one_process_starts_no_other(monkeypatch):
    def no_fork():
        pytest.fail("a process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    fake_cpus(monkeypatch, 1)
    plan = build_scenario(migration_shock_config(replicates=130))
    assert run_simulation(plan).metrics["fixed"].completed == 130


def test_report_bits_do_not_depend_on_the_process_count(monkeypatch):
    """37 rounds, which no count from 2 to 4 divides; 50 CPUs run one
    round each, at one round a process."""
    monkeypatch.setattr(simulation, "_ROUNDS_PER_PROCESS", 1)
    plan = build_scenario(migration_shock_config(replicates=37))
    fake_cpus(monkeypatch, 1)
    want = report_bits(run_simulation(plan))
    forks = recorded_forks(monkeypatch)
    for cpus in (2, 3, 4, 50):
        del forks[:]
        fake_cpus(monkeypatch, cpus)
        assert report_bits(run_simulation(plan)) == want
        assert len(forks) == min(cpus, 37) - 1
    assert_no_child_left()


def test_failed_rounds_in_several_ranges_come_back_in_round_order(monkeypatch):
    # At one round a process, so that 23 rounds split in 3 and in 4.
    monkeypatch.setattr(simulation, "_ROUNDS_PER_PROCESS", 1)
    plan = partly_failing_plan(23)
    fake_cpus(monkeypatch, 1)
    report = run_simulation(plan)
    fixed_failed = [int(f.split()[1].rstrip(":")) for f in report.metrics["fixed"].failures]
    assert fixed_failed == [2, 4, 7, 12, 13, 17, 19, 21]
    assert report.metrics["fixed"].completed == 15
    want = report_bits(report)
    forks = recorded_forks(monkeypatch)
    for cpus in (2, 3, 4):
        fake_cpus(monkeypatch, cpus)
        bounds = _fork.split(23, simulation._ROUNDS_PER_PROCESS)
        ranges = {next(k for k in range(cpus) if r < bounds[k + 1]) for r in fixed_failed}
        assert len(ranges) > 1
        del forks[:]
        got = run_simulation(plan)
        assert len(forks) == cpus - 1
        assert report_bits(got) == want
        for strategy, m in got.metrics.items():
            assert m.failures == report.metrics[strategy].failures
    assert_no_child_left()


def test_no_fork_while_another_thread_is_alive(monkeypatch):
    # Every range of rounds runs in this process: the same report, and the
    # same failed rounds in round order.
    monkeypatch.setattr(simulation, "_ROUNDS_PER_PROCESS", 1)
    plan = partly_failing_plan(23)
    fake_cpus(monkeypatch, 1)
    want = run_simulation(plan)
    forks = recorded_forks(monkeypatch)
    fake_cpus(monkeypatch, 4)
    with another_thread_alive():
        got = run_simulation(plan)
    assert forks == []
    assert report_bits(got) == report_bits(want)
    for strategy, m in got.metrics.items():
        assert m.failures == want.metrics[strategy].failures


class CensusError(Exception):
    """An error whose constructor does not take its own ``args``."""

    def __init__(self, round_: int, what: str):
        super().__init__(f"round {round_}: {what}")
        self.round = round_


def fail_census_in_rounds(monkeypatch, rounds, error=CensusError) -> None:
    """``replicate_census`` raises ``error`` in each of ``rounds``."""
    stream, census, round_of = rngmod.stream, simulation.replicate_census, {}

    def recording(seed, r):
        rng = stream(seed, r)
        round_of[id(rng)] = r
        return rng

    def failing(truth, rng):
        r = round_of[id(rng)]
        if r in rounds:
            raise error(r, "census failed") if error is CensusError else error(f"round {r}")
        return census(truth, rng)

    monkeypatch.setattr(rngmod, "stream", recording)
    monkeypatch.setattr(simulation, "replicate_census", failing)


@pytest.mark.parametrize("rounds", [{30}, {15, 30}, {5, 30}, {36}], ids=str)
@pytest.mark.parametrize("error", [CensusError, ValueError, KeyError], ids=lambda e: e.__name__)
def test_the_lowest_failing_round_raises_whichever_process_runs_it(monkeypatch, rounds, error):
    """On 37 rounds in 3 ranges (0-11 here, 12-23 and 24-36 in children)."""
    plan = build_scenario(migration_shock_config(replicates=37))
    fail_census_in_rounds(monkeypatch, rounds, error)
    fake_cpus(monkeypatch, 1)
    with pytest.raises(error) as one:
        run_simulation(plan)
    fake_cpus(monkeypatch, 3)
    with pytest.raises(error) as three:
        run_simulation(plan)
    assert type(three.value) is type(one.value)
    assert str(three.value) == str(one.value)
    assert vars(three.value) == vars(one.value)
    assert str(one.value).strip("'").startswith(f"round {min(rounds)}")
    assert_no_child_left()


def test_an_interrupt_in_this_process_reaps_every_child(monkeypatch):
    plan = build_scenario(migration_shock_config(replicates=37))
    fail_census_in_rounds(monkeypatch, {3}, lambda message: KeyboardInterrupt(message))
    fake_cpus(monkeypatch, 4)
    with pytest.raises(KeyboardInterrupt):
        run_simulation(plan)
    assert_no_child_left()


def test_a_child_that_ends_without_its_rounds_is_an_error(monkeypatch):
    plan = build_scenario(migration_shock_config(replicates=37))
    parent, census = os.getpid(), simulation.replicate_census

    def ending(truth, rng):
        if os.getpid() != parent:
            os._exit(3)
        return census(truth, rng)

    monkeypatch.setattr(simulation, "replicate_census", ending)
    fake_cpus(monkeypatch, 3)
    with pytest.raises(ChildProcessError, match="^rounds 12 to 23 ended without a result$"):
        run_simulation(plan)
    assert_no_child_left()


@pytest.mark.parametrize("rounds, forks", [(19, 0), (20, 1), (30, 2)])
def test_four_processes_get_ten_rounds_each(monkeypatch, rounds, forks):
    plan = build_scenario(migration_shock_config(replicates=rounds))
    pids = recorded_forks(monkeypatch)
    fake_cpus(monkeypatch, 4)
    assert run_simulation(plan).metrics["fixed"].completed == rounds
    assert len(pids) == forks
    assert_no_child_left()


def test_an_empty_shared_stack_keeps_its_shape():
    assert simulation._shared((2, 0, 3)).shape == (2, 0, 3)


def test_a_plan_whose_stacks_fill_the_budget_still_splits(monkeypatch):
    """The children write into the caller's stacks, which are held once, so
    a split needs no more than the budget counts."""
    plan = build_scenario(migration_shock_config(replicates=37))
    fake_cpus(monkeypatch, 1)
    want = report_bits(run_simulation(plan))
    areas, categories = plan.truth_t0.counts.shape
    counted = 8 * 37 * (areas * categories + 3 * areas * categories + 3 * areas + 2 * areas)
    pids = recorded_forks(monkeypatch)
    monkeypatch.setattr(bootstrap, "_MAX_STACK_BYTES", counted)
    plan = replace(plan)  # built under the budget it fills
    fake_cpus(monkeypatch, 3)
    assert report_bits(run_simulation(plan)) == want
    assert len(pids) == 2
    assert_no_child_left()
