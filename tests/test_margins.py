import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spreekit import (
    AreaHierarchy,
    Composition,
    HybridSelection,
    MarginLevel,
    MarginVector,
    ShareVector,
    distribute,
    dynamic_shares,
    fixed_shares,
    hybrid_shares,
    reconcile_margins,
    row_margins,
    select_by_change,
)
from spreekit.margins import _conserving_block
from spreekit.update import UpdateError, UpdateRequest, spree_update

from conftest import make_composition, make_margin, two_region_hierarchy


def large_margin(values, ids=("g1", "g2"), t=0):
    return MarginVector(ids, np.asarray(values, float), MarginLevel.LARGE_AREA, t)


def test_fixed_shares_reproduce_census_distribution():
    census = make_composition([[40.0, 60.0], [30.0, 70.0], [55.0, 45.0], [20.0, 80.0]])
    h = two_region_hierarchy(4)
    s = fixed_shares(census, h)
    assert s.provenance == "fixed-census"
    np.testing.assert_allclose(s.shares, [0.5, 0.5, 0.5, 0.5])
    skew = make_composition([[90.0, 10.0], [30.0, 70.0], [10.0, 10.0], [60.0, 20.0]])
    np.testing.assert_allclose(
        fixed_shares(skew, h).shares, [0.5, 0.5, 0.2, 0.8]
    )


def test_dynamic_shares_scale_invariant():
    h = two_region_hierarchy(4)
    aux = make_margin([10.0, 30.0, 25.0, 75.0], MarginLevel.SMALL_AREA, "a")
    s = dynamic_shares(aux, h)
    np.testing.assert_allclose(s.shares, [0.25, 0.75, 0.25, 0.75])
    # Rescaling within a region must not change anything.
    rescaled = aux.with_values(aux.values * np.array([7.0, 7.0, 0.01, 0.01]))
    np.testing.assert_allclose(dynamic_shares(rescaled, h).shares, s.shares)
    assert s.provenance == "dynamic-auxiliary"


def test_share_vector_validates_per_region_sums():
    h = two_region_hierarchy(2)
    with pytest.raises(ValueError, match="sum"):
        ShareVector(("a1", "a2"), np.array([0.6, 0.3]), h)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ShareVector(("a1", "a2"), np.array([1.4, -0.4]), h)
    # NaN passes neither bound; it used to slip through both checks.
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ShareVector(("a1", "a2"), np.array([np.nan, 1.0]), h)


def test_replaced_share_vector_groups_its_own_hierarchy():
    # A built vector carries its builder's groups; a copy under another
    # hierarchy must check its sums against that hierarchy's groups.
    census = make_composition([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0], [2.0, 0.0]])
    shares = fixed_shares(census, two_region_hierarchy(4))
    crossed = AreaHierarchy.from_pairs([("a1", "g1"), ("a3", "g1"), ("a2", "g2"), ("a4", "g2")])
    with pytest.raises(ValueError, match=r"shares in large area 'g1' sum to .*0\.75"):
        replace(shares, hierarchy=crossed)


def test_zero_region_population_is_an_error():
    h = two_region_hierarchy(4)
    census = make_composition([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="zero census population"):
        fixed_shares(census, h)
    aux = make_margin([1.0, 1.0, 0.0, 0.0], MarginLevel.SMALL_AREA, "a")
    with pytest.raises(ValueError, match="zero auxiliary population"):
        dynamic_shares(aux, h)


def fixed_shares_loop(census, h):
    """The per-region loop ``fixed_shares`` ran before it shared a helper
    with ``dynamic_shares``: the oracle for both."""
    totals = row_margins(census)
    groups = h.group_positions(census.area_ids)
    shares = np.empty(census.n_areas)
    for large, pos in groups.items():
        if pos.size == 0:
            continue
        large_total = totals.values[pos].sum()
        if large_total <= 0:
            raise ValueError(
                f"large area {large!r} has zero census population; shares undefined"
            )
        shares[pos] = totals.values[pos] / large_total
    return ShareVector(
        census.area_ids, shares, h, census.reference_time, "fixed-census"
    )


def dynamic_shares_loop(aux_pop, h):
    groups = h.group_positions(aux_pop.ids)
    shares = np.empty(len(aux_pop.ids))
    for large, pos in groups.items():
        if pos.size == 0:
            continue
        large_total = aux_pop.values[pos].sum()
        if large_total <= 0:
            raise ValueError(
                f"large area {large!r} has zero auxiliary population; shares undefined"
            )
        shares[pos] = aux_pop.values[pos] / large_total
    return ShareVector(
        aux_pop.ids, shares, h, aux_pop.reference_time, "dynamic-auxiliary"
    )


def share_outcome(build, *args):
    """What ``build`` returns or raises, in bitwise-comparable form."""
    try:
        sv = build(*args)
    except ValueError as e:
        return "error", str(e)
    return sv.small_ids, sv.shares.tobytes(), sv.reference_time, sv.provenance


@st.composite
def share_inputs(draw):
    """A hierarchy (some regions empty of areas, some of people) and a
    census table over its areas, magnitudes 1e-300 to 1e300."""
    n_areas = draw(st.integers(1, 12))
    n_large = draw(st.integers(1, 4))
    regions = draw(
        st.lists(st.integers(0, n_large - 1), min_size=n_areas, max_size=n_areas)
    )
    h = AreaHierarchy(
        {f"a{i}": f"g{r}" for i, r in enumerate(regions)},
        tuple(f"g{k}" for k in range(n_large)),
    )
    n_cats = draw(st.integers(1, 3))
    exponent = draw(st.integers(-300, 299))
    mantissas = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(1.0, 9.99)),
            min_size=n_areas * n_cats,
            max_size=n_areas * n_cats,
        )
    )
    counts = np.array(mantissas).reshape(n_areas, n_cats) * 10.0**exponent
    t = draw(st.integers(0, 3000))
    areas = tuple(f"a{i}" for i in range(n_areas))
    return Composition(areas, ("c0", "c1", "c2")[:n_cats], counts, t), h


@settings(max_examples=400, deadline=None)
@given(share_inputs())
@example(  # g0 has no people, g2 no areas
    (
        make_composition([[0.0, 0.0], [1.0, 2.0], [3.0, 0.0]]),
        AreaHierarchy({"a1": "g0", "a2": "g1", "a3": "g1"}, ("g0", "g1", "g2")),
    )
)
def test_share_builders_match_per_region_loops(case):
    census, h = case
    assert share_outcome(fixed_shares, census, h) == share_outcome(
        fixed_shares_loop, census, h
    )
    aux = MarginVector(
        census.area_ids, census.counts[:, 0], MarginLevel.SMALL_AREA, census.reference_time
    )
    assert share_outcome(dynamic_shares, aux, h) == share_outcome(
        dynamic_shares_loop, aux, h
    )


def test_select_by_change_cutoff_and_ties():
    ids = ("g1", "g2", "g3", "g4")
    baseline = large_margin([100.0, 100.0, 100.0, 100.0], ids)
    projected = large_margin([150.0, 90.0, 110.0, 50.0], ids)
    sel = select_by_change(projected, baseline, 0.25)
    # ceil(0.25 * 4) = 1; |change| = (0.5, 0.1, 0.1, 0.5) and the tie at 0.5
    # resolves to the earlier id.
    assert sel.selected_large_ids == ("g1",)
    sel_half = select_by_change(projected, baseline, 0.5)
    assert sel_half.selected_large_ids == ("g1", "g4")
    assert sel.change_scores["g2"] == pytest.approx(0.1)
    # ceil rounds partial quantiles up.
    sel_odd = select_by_change(
        large_margin([110.0, 120.0, 130.0], ("g1", "g2", "g3")),
        large_margin([100.0, 100.0, 100.0], ("g1", "g2", "g3")),
        0.4,
    )
    assert len(sel_odd.selected_large_ids) == 2


def test_hybrid_takes_selected_regions_from_dynamic():
    h = two_region_hierarchy(4)
    census = make_composition([[50.0, 50.0], [50.0, 50.0], [60.0, 60.0], [40.0, 40.0]])
    aux = make_margin([30.0, 70.0, 10.0, 90.0], MarginLevel.SMALL_AREA, "a", 1)
    fx = fixed_shares(census, h)
    dy = dynamic_shares(aux, h)
    sel = select_by_change(
        large_margin([200.0, 400.0], t=1), large_margin([200.0, 200.0]), 0.5
    )
    assert sel.selected_large_ids == ("g2",)
    hy = hybrid_shares(fx, dy, sel)
    np.testing.assert_allclose(hy.shares, [0.5, 0.5, 0.1, 0.9])
    assert hy.provenance == "hybrid"
    assert hy.reference_time == 1


def test_distribute_conserves_regional_totals_exactly():
    h = two_region_hierarchy(4)
    shares = ShareVector(
        ("a1", "a2", "a3", "a4"), np.array([0.3, 0.7, 0.25, 0.75]), h
    )
    totals = large_margin([1000.0, 300.0], t=9)
    m = distribute(totals, shares)
    assert m.level is MarginLevel.SMALL_AREA
    assert m.reference_time == 9
    np.testing.assert_array_equal(m.values, [300.0, 700.0, 75.0, 225.0])
    assert m.values[:2].sum() == totals.values[0]
    assert m.values[2:].sum() == totals.values[1]
    with pytest.raises(ValueError, match="large-area margin"):
        distribute(make_margin([1.0], MarginLevel.CATEGORY, "c"), shares)


def test_distribute_exact_on_awkward_floats():
    # Random share vectors rarely multiply back to the total bit-for-bit;
    # the residual-absorbing entry must close the gap in exact arithmetic.
    rng = np.random.default_rng(77)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        v = np.exp(rng.uniform(0, 6, k))
        h = AreaHierarchy.from_pairs([(f"a{i}", "g1") for i in range(k)])
        sv = ShareVector(tuple(f"a{i}" for i in range(k)), v / v.sum(), h)
        total = float(np.exp(rng.uniform(0, 12)))
        out = distribute(large_margin([total], ids=("g1",)), sv)
        assert math.fsum(out.values) == total
        assert np.all(out.values > 0)


def test_distribute_keeps_zero_shares_zero():
    h = two_region_hierarchy(4)
    shares = ShareVector(
        ("a1", "a2", "a3", "a4"), np.array([0.0, 1.0, 0.25, 0.75]), h
    )
    m = distribute(large_margin([123.456, 78.9]), shares)
    assert m.values[0] == 0.0
    assert m.values[1] == 123.456


def test_reconcile_policies():
    row = make_margin([60.0, 40.0], MarginLevel.SMALL_AREA, "a")
    col = make_margin([30.0, 20.0], MarginLevel.CATEGORY, "c")
    scaled = reconcile_margins(row, col)
    assert scaled.factor == pytest.approx(2.0)
    np.testing.assert_allclose(scaled.col.values, [60.0, 40.0])
    np.testing.assert_array_equal(scaled.row.values, row.values)
    other = reconcile_margins(row, col, "scale-row-to-col")
    assert other.factor == pytest.approx(0.5)
    np.testing.assert_allclose(other.row.values, [30.0, 20.0])
    with pytest.raises(ValueError, match="disagree"):
        reconcile_margins(row, col, "error")


def test_reconcile_error_policy_passes_a_mismatch_within_tolerance():
    # 1e-7 relative: above the float-noise level, below the 1e-6 tolerance.
    row = make_margin([60.0, 40.0], MarginLevel.SMALL_AREA, "a")
    col = make_margin([30.0, 70.00001], MarginLevel.CATEGORY, "c")
    kept = reconcile_margins(row, col, "error")
    assert kept.factor == 1.0
    assert kept.row is row and kept.col is col


def test_reconcile_leaves_float_noise_untouched():
    # A total mismatch at rounding-noise level must not trigger rescaling,
    # otherwise exactly reproducible pipelines pick up factors of 1 +- ulp.
    row = make_margin([0.1 + 0.2, 0.3], MarginLevel.SMALL_AREA, "a")
    col = make_margin([0.3, 0.3], MarginLevel.CATEGORY, "c")
    out = reconcile_margins(row, col)
    assert out.factor == 1.0
    assert out.col is col


def _conserving_block_fraction(total: float, shares_block: np.ndarray) -> np.ndarray:
    """Oracle: the residual as the rounded exact rational difference."""
    block = total * shares_block
    order = np.argsort(shares_block, kind="stable")
    t = Fraction(total)
    for idx in (int(order[-1]), *map(int, order[:-1])):
        if shares_block[idx] <= 0.0:
            continue
        rest = sum(Fraction(float(v)) for i, v in enumerate(block) if i != idx)
        cand = float(t - rest)
        if cand <= 0.0:
            continue
        old = block[idx]
        block[idx] = cand
        if math.fsum(block) == total:
            return block
        block[idx] = old
    anchor = int(order[-1])
    rest = sum(Fraction(float(v)) for i, v in enumerate(block) if i != anchor)
    block[anchor] = max(float(t - rest), 0.0)
    return block


TINY = 5e-324  # the smallest subnormal


@st.composite
def share_blocks(draw):
    """A total and a share block: any magnitude, zeros, ulp-scale totals.

    Weights over up to nine decades, some exactly zero, normalised by their
    float sum, so a block's shares need not sum to exactly one.
    """
    k = draw(st.integers(1, 12))
    exponents = draw(st.lists(st.floats(-9.0, 0.0), min_size=k, max_size=k))
    zeros = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    weights = np.array([0.0 if z else 10.0**e for e, z in zip(exponents, zeros)])
    if not weights.any():
        weights[draw(st.integers(0, k - 1))] = 1.0
    total = draw(
        st.floats(0.0, 1e300)
        | st.integers(0, 40).map(lambda n: n * TINY)
        | st.integers(1, 2**53).map(float)
    )
    return total, weights / weights.sum()


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(share_blocks())
def test_conserving_block_matches_fraction_residual(case):
    total, shares = case
    got = _conserving_block(total, shares.copy())
    want = _conserving_block_fraction(total, shares.copy())
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@pytest.mark.parametrize(
    "total, shares",
    [
        # Every entry rounds up to one ulp, so no residual is positive and
        # the largest entry takes the (zero) remainder.
        (2 * TINY, [1 / 3, 1 / 3, 1 / 3]),
        (3 * TINY, [0.25, 0.25, 0.25, 0.25]),
        # Five entries of one ulp over a total of three: every residual is
        # negative, and the largest entry is clamped to zero.
        (3 * TINY, [0.2, 0.2, 0.2, 0.2, 0.2]),
        (0.0, [0.5, 0.5]),
        (-0.0, [0.5, 0.5]),
    ],
)
def test_conserving_block_degenerate_fallback(total, shares):
    shares = np.array(shares)
    got = _conserving_block(total, shares.copy())
    want = _conserving_block_fraction(total, shares.copy())
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_share_vector_shape_must_match_its_ids():
    with pytest.raises(ValueError, match="^shares shape does not match small ids$"):
        ShareVector(("a1", "a2"), np.array([1.0]), two_region_hierarchy(2))


@pytest.mark.parametrize("cutoff", [0.0, 1.0])
def test_hybrid_selection_cutoff_must_lie_strictly_inside_the_unit_interval(cutoff):
    with pytest.raises(ValueError, match=r"^quantile_cutoff must lie in \(0, 1\)$"):
        HybridSelection(("g1",), {"g1": 0.5, "g2": 0.1}, cutoff)


def test_hybrid_selection_needs_a_score_for_every_selected_id():
    with pytest.raises(ValueError, match=r"^selected ids without change scores: \['g3'\]$"):
        HybridSelection(("g1", "g3"), {"g1": 0.5, "g2": 0.1}, 0.5)


def test_select_by_change_needs_a_positive_baseline():
    baseline = large_margin([5.0, 0.0])
    with pytest.raises(
        ValueError, match=r"^baseline population must be positive, got zero for: \['g2'\]$"
    ):
        select_by_change(large_margin([5.0, 6.0]), baseline)


def test_hybrid_shares_need_the_same_small_areas():
    h = two_region_hierarchy(4)
    fixed = ShareVector(("a1", "a2", "a3", "a4"), np.full(4, 0.5), h)
    dynamic = ShareVector(("a2", "a1", "a3", "a4"), np.full(4, 0.5), h)
    sel = HybridSelection(("g1",), {"g1": 0.5, "g2": 0.1}, 0.5)
    with pytest.raises(
        ValueError, match="^fixed and dynamic share vectors cover different small areas$"
    ):
        hybrid_shares(fixed, dynamic, sel)


def test_hybrid_shares_need_the_same_hierarchy():
    ids = ("a1", "a2", "a3", "a4")
    fixed = ShareVector(ids, np.full(4, 0.5), two_region_hierarchy(4))
    one_region = AreaHierarchy.from_pairs((a, "g1") for a in ids)
    dynamic = ShareVector(ids, np.full(4, 0.25), one_region)
    sel = HybridSelection(("g1",), {"g1": 0.5}, 0.5)
    with pytest.raises(
        ValueError, match="^fixed and dynamic share vectors use different hierarchies$"
    ):
        hybrid_shares(fixed, dynamic, sel)


def test_reconcile_rejects_an_unknown_policy():
    row = make_margin([4.0, 6.0], MarginLevel.SMALL_AREA, "a")
    col = make_margin([5.0, 7.0], MarginLevel.CATEGORY, "c")
    with pytest.raises(ValueError, match="^unknown reconcile policy 'bogus'$"):
        reconcile_margins(row, col, "bogus")


def test_distribute_returns_its_last_margin_for_the_same_totals_object():
    census = make_composition([[40.0, 60.0], [30.0, 70.0], [55.0, 45.0], [20.0, 80.0]])
    shares = fixed_shares(census, two_region_hierarchy(4))
    totals = large_margin([1000.0, 3000.0], t=5)
    first = distribute(totals, shares)
    assert distribute(totals, shares) is first
    # Equal totals in another object, or other totals, are spread afresh.
    twin = large_margin([1000.0, 3000.0], t=5)
    again = distribute(twin, shares)
    assert again is not first
    assert again.values.tobytes() == first.values.tobytes()
    other = distribute(large_margin([10.0, 30.0], t=6), shares)
    assert other.values.tolist() == [5.0, 5.0, 15.0, 15.0] and other.reference_time == 6
    # The memo keeps only the last margin, and the update still reads it.
    assert distribute(totals, shares) is not first
    col = make_margin([1500.0, 2500.0], MarginLevel.CATEGORY, "c")
    res = spree_update(UpdateRequest(census, col, totals, shares))
    assert res.row_margin_used is distribute(totals, shares)


def test_distribute_does_not_keep_a_failed_margin():
    census = make_composition([[40.0, 60.0], [30.0, 70.0], [55.0, 45.0], [20.0, 80.0]])
    shares = fixed_shares(census, two_region_hierarchy(4))
    partial = large_margin([1000.0], ids=("g1",))
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^no total supplied for large areas: \['g2'\]$"):
            distribute(partial, shares)


# Past the float range.  The builders below check only what their own
# arithmetic can break, with the message the public constructors give; numpy
# is kept quiet, as a library caller may have it, so those checks must fail.
FLOAT_MAX = np.finfo(float).max
quiet = np.errstate(over="ignore", invalid="ignore")


@quiet
def test_a_region_total_past_the_float_range_fails_the_share_sum():
    # Region g1's total overflows, so the shares it would give sum to zero;
    # a zero region after it still fails first for its zero population.
    h = two_region_hierarchy(4)
    census = make_composition([[1e308, 0.0], [1e308, 0.0], [1.0, 1.0], [1.0, 1.0]])
    aux = make_margin([1e308, 1e308, 1.0, 1.0], MarginLevel.SMALL_AREA, "a")
    zero_sum = f"shares in large area 'g1' sum to {np.float64(0.0)!r}, expected 1"
    for build in (lambda: fixed_shares(census, h), lambda: dynamic_shares(aux, h)):
        with pytest.raises(ValueError) as e:
            build()
        assert str(e.value) == zero_sum
    aux = make_margin([1e308, 1e308, 0.0, 0.0], MarginLevel.SMALL_AREA, "a")
    with pytest.raises(ValueError, match="^large area 'g2' has zero auxiliary population"):
        dynamic_shares(aux, h)


@pytest.mark.parametrize(
    "row, col, policy",
    [
        ([1e308, 1e308], [1.0, 1.0], "scale-col-to-row"),  # the row total overflows
        ([1e308, 0.0], [1e-300, 0.0], "scale-col-to-row"),  # the factor overflows
        ([1.0, 1.0], [1e308, 1e308], "scale-row-to-col"),
    ],
)
@quiet
def test_a_scaled_margin_past_the_float_range_is_rejected(row, col, policy):
    row = make_margin(row, MarginLevel.SMALL_AREA, "a")
    col = make_margin(col, MarginLevel.CATEGORY, "c")
    with pytest.raises(ValueError) as e:
        reconcile_margins(row, col, policy)
    assert str(e.value) == "margin values contains non-finite values"


@quiet
def test_a_reconcile_past_the_float_range_is_tagged_with_its_stage():
    census = make_composition([[10.0, 10.0], [10.0, 10.0]])
    h = two_region_hierarchy(2)
    totals = MarginVector(("g1", "g2"), [1e308, 1e308], MarginLevel.LARGE_AREA)
    col = MarginVector(("c1", "c2"), [1.0, 1.0], MarginLevel.CATEGORY)
    with pytest.raises(UpdateError) as e:
        spree_update(UpdateRequest(census, col, totals, fixed_shares(census, h)))
    assert str(e.value) == "[reconcile] margin values contains non-finite values"


@pytest.mark.parametrize(
    "shares", [[1 + 9e-10, 0.0, 0.0], [0.5 + 4e-10, 0.5 + 4e-10, 0.0], [0.9, 0.1 + 9e-10, 1e-300]]
)
def test_distribute_at_the_float_maximum_stays_finite(shares):
    # Shares may sum to one plus the tolerance, but each region's values
    # still make up its total exactly, so none overflows.
    h = AreaHierarchy.from_pairs([("a1", "g"), ("a2", "g"), ("a3", "g")])
    sv = ShareVector(("a1", "a2", "a3"), np.array(shares), h)
    values = distribute(MarginVector(("g",), [FLOAT_MAX], MarginLevel.LARGE_AREA), sv).values
    assert np.isfinite(values).all() and math.fsum(values) == FLOAT_MAX


@quiet
def test_census_rows_past_the_float_range_fail_the_fixed_shares():
    census = make_composition([[1e308, 1e308], [1.0, 1.0]])
    with pytest.raises(ValueError) as e:
        fixed_shares(census, two_region_hierarchy(2))
    assert str(e.value) == "margin values contains non-finite values"
