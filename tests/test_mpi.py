import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreekit import (
    AreaHierarchy,
    Composition,
    Households,
    MpiProfile,
    compute_mpi,
    deprivation_score,
    headcount_from_composition,
    is_poor,
    tabulate_poverty,
)
from spreekit.mpi import LIVING_STANDARD_INDICATORS, POVERTY_CATEGORIES, MpiResult, _poor_share, _score

from conftest import Household, household_table as table, make_composition, same_bits

NINE = MpiProfile.nine_indicator()


def household(hid, deprived, size=1, area="a1", subgroup="all", weight=1.0):
    flags = {i: i in deprived for i in NINE.indicators}
    return Household(hid, area, subgroup, size, flags, weight)


def score(r, p=NINE):
    """The exact score of one household, as the only row of a table."""
    return deprivation_score(table([r]), 0, p)


def of_subgroup(households, group):
    return households.subset(np.array(households.subgroup_ids, dtype=object) == group)


def enumerate_persons(records, profile):
    """Oracle: expand each household into individual persons and count.

    Exact rational arithmetic throughout; independent of the library path,
    which works on weighted household aggregates.
    """
    persons = []
    for r in records:
        score = Fraction(0)
        for ind, w in zip(profile.indicators, profile.weights):
            if r.deprivations[ind]:
                score += w
        copies = r.size * Fraction(r.weight).limit_denominator(10**6)
        persons.append((copies, score))
    total = sum(c for c, _ in persons)
    poor = [(c, s) for c, s in persons if s >= profile.poverty_cutoff]
    poor_total = sum(c for c, _ in poor)
    h = poor_total / total
    a = sum(c * s for c, s in poor) / poor_total if poor_total else Fraction(0)
    return h, a, h * a


def reference_compute_mpi(records, p):
    """Oracle: every household scored on its own in Fraction arithmetic."""
    if not records:
        raise ValueError("no household records supplied")
    base = np.array([r.size * r.weight for r in records])
    households = table(records)
    scores = [deprivation_score(households, i, p) for i in range(len(records))]
    poor = np.array([is_poor(s, p) for s in scores])
    score_f = np.array([float(s) for s in scores])
    total = float(base.sum())
    poor_base = float(base[poor].sum())
    headcount = poor_base / total
    intensity = float((base[poor] * score_f[poor]).sum()) / poor_base if poor_base else 0.0
    indicator_headcounts = {}
    for indicator in p.indicators:
        deprived = np.array([bool(r.deprivations[indicator]) for r in records])
        indicator_headcounts[indicator] = float(base[deprived].sum()) / total
    contributions = None
    if headcount > 0:
        weighted = {i: float(p.weight_of(i)) * h for i, h in indicator_headcounts.items()}
        norm = sum(weighted.values())
        contributions = {i: v / norm for i, v in weighted.items()}
    return MpiResult(
        headcount, intensity, headcount * intensity, indicator_headcounts, contributions, total
    )


def reference_tabulate(records, p, h):
    """Oracle: one household at a time, added in record order."""
    pos = {a: i for i, a in enumerate(h.small_ids)}
    counts = np.zeros((len(h.small_ids), 2))
    households = table(records, p.indicators)
    for i, r in enumerate(records):
        if r.area_id not in pos:
            raise ValueError(f"household {r.household_id!r} in unknown area {r.area_id!r}")
        col = 0 if is_poor(deprivation_score(households, i, p), p) else 1
        counts[pos[r.area_id], col] += r.size * r.weight
    return Composition(h.small_ids, POVERTY_CATEGORIES, counts)


def raised(fn, *args, **kwargs):
    """The (type, message) an oracle raises, to be matched exactly."""
    try:
        fn(*args, **kwargs)
    except (KeyError, ValueError) as e:
        return type(e), str(e)
    raise AssertionError("oracle did not raise")


def assert_same_error(expected, fn, *args, **kwargs):
    kind, message = expected
    with pytest.raises(kind) as info:
        fn(*args, **kwargs)
    assert str(info.value) == message


class TestScoring:
    def test_child_mortality_alone_is_exactly_one_third(self):
        r = household("h", {"child_mortality"})
        assert score(r) == Fraction(1, 3)
        assert is_poor(score(r), NINE)

    def test_six_living_standards_are_exactly_one_third(self):
        r = household("h", set(LIVING_STANDARD_INDICATORS))
        # Six eighteenths must reach the cutoff exactly, which float
        # accumulation (6 * 0.0555...) would miss.
        assert score(r) == Fraction(1, 3)
        assert is_poor(score(r), NINE)

    def test_five_living_standards_are_below_cutoff(self):
        r = household("h", set(LIVING_STANDARD_INDICATORS[:5]))
        assert score(r) == Fraction(5, 18)
        assert not is_poor(score(r), NINE)

    def test_missing_flag_is_an_error(self):
        flags = {i: False for i in NINE.indicators}
        flags["assets"] = None
        with pytest.raises(ValueError, match="missing flag for 'assets'"):
            score(Household("h", "a1", "all", 1, flags))

    def test_indicator_set_must_match_profile(self):
        # A table has one indicator set; it must equal the profile's.
        h = AreaHierarchy.from_pairs([("a1", "g1")])
        flags = {i: False for i in NINE.indicators}
        for deprivations in ({"child_mortality": True}, flags | {"extra": True}):
            households = table([Household("h", "a1", "all", 1, deprivations)])
            for call in (
                lambda: deprivation_score(households, 0, NINE),
                lambda: compute_mpi(households, NINE),
                lambda: tabulate_poverty(households, NINE, h),
            ):
                with pytest.raises(ValueError, match="do not match the profile indicators"):
                    call()

    def test_indicator_order_follows_the_table(self):
        # Flags in another column order than the profile's score the same.
        records = [household("h1", {"child_mortality"}, size=2),
                   household("h2", {"assets", "housing"}, size=3)]
        reversed_table = table(records, NINE.indicators[::-1])
        assert compute_mpi(reversed_table, NINE) == compute_mpi(table(records), NINE)
        assert deprivation_score(reversed_table, 1, NINE) == Fraction(1, 9)


class TestProfiles:
    def test_nine_indicator_weights(self):
        assert sum(NINE.weights) == 1
        assert NINE.weight_of("child_mortality") == Fraction(1, 3)
        assert NINE.weight_of("years_of_schooling") == Fraction(1, 6)
        assert NINE.weight_of("cooking_fuel") == Fraction(1, 18)
        assert NINE.poverty_cutoff == Fraction(1, 3)

    def test_ten_indicator_weights(self):
        ten = MpiProfile.ten_indicator()
        assert sum(ten.weights) == 1
        assert ten.weight_of("nutrition") == Fraction(1, 6)
        assert ten.weight_of("child_mortality") == Fraction(1, 6)

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="sum"):
            MpiProfile(("a", "b"), (Fraction(1, 2), Fraction(1, 4)))
        with pytest.raises(ValueError, match="^weights sum to inf, expected 1$"):
            MpiProfile(("a", "b"), (Fraction(10**400), Fraction(1, 2)))
        with pytest.raises(ValueError, match="positive"):
            MpiProfile(("a", "b"), (Fraction(3, 2), Fraction(-1, 2)))
        with pytest.raises(ValueError, match="cutoff"):
            MpiProfile(("a",), (Fraction(1),), Fraction(0))


class TestComputeMpi:
    def test_identity_mpi_equals_h_times_a(self):
        records = [
            household("h1", {"child_mortality"}, size=5),
            household("h2", {"years_of_schooling", "school_attendance"}, size=3),
            household("h3", set(LIVING_STANDARD_INDICATORS[:3]), size=2),
        ]
        res = compute_mpi(table(records), NINE)
        assert res.headcount == pytest.approx(0.8)
        assert res.mpi == pytest.approx(res.headcount * res.intensity, abs=1e-15)

    def test_contributions_normalise_to_one(self):
        records = [
            household("h1", {"child_mortality"}, size=5),
            household("h2", {"years_of_schooling", "school_attendance"}, size=3),
            household("h3", set(LIVING_STANDARD_INDICATORS[:3]), size=2),
        ]
        res = compute_mpi(table(records), NINE)
        assert res.contributions is not None
        assert sum(res.contributions.values()) == pytest.approx(1.0, abs=1e-9)
        # child_mortality: weighted headcount (1/3)(5/10) out of a weighted
        # total of (1/3)(1/2) + (1/6)(3/10)*2 + (1/18)(1/5)*3 = 3/10.
        assert res.contributions["child_mortality"] == pytest.approx(5 / 9)

    def test_no_poor_households(self):
        records = [household("h1", set(), size=4), household("h2", {"assets"})]
        res = compute_mpi(table(records), NINE)
        assert res.headcount == 0.0
        assert res.intensity == 0.0
        assert res.mpi == 0.0
        assert res.contributions is None

    def test_person_enumeration_oracle_200_households(self):
        rng = np.random.default_rng(33)
        records = []
        for i in range(200):
            deprived = {
                ind for ind in NINE.indicators if rng.random() < 0.3
            }
            records.append(
                household(f"h{i}", deprived, size=int(rng.integers(1, 9)))
            )
        res = compute_mpi(table(records), NINE)
        h, a, m = enumerate_persons(records, NINE)
        # Both routes are exact rational computations of the same quantity,
        # so the floats must agree exactly.
        assert res.headcount == float(h)
        assert res.intensity == pytest.approx(float(a), abs=1e-15)
        assert res.mpi == pytest.approx(float(m), abs=1e-15)

    def test_weights_scale_population_base(self):
        records = [
            household("h1", {"child_mortality"}, size=2, weight=3.0),
            household("h2", set(), size=4, weight=0.5),
        ]
        res = compute_mpi(table(records), NINE)
        assert res.population_base == pytest.approx(8.0)
        assert res.headcount == pytest.approx(6.0 / 8.0)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="no household records"):
            compute_mpi(table([], NINE.indicators), NINE)


class TestTabulate:
    def test_counts_by_area_and_subgroup(self):
        h = AreaHierarchy.from_pairs([("a1", "g1"), ("a2", "g1")])
        records = [
            household("h1", {"child_mortality"}, size=5, area="a1", subgroup="female"),
            household("h2", {"years_of_schooling"}, size=3, area="a1", subgroup="male"),
            household("h3", set(LIVING_STANDARD_INDICATORS), size=2, area="a2",
                      subgroup="female"),
        ]
        c = tabulate_poverty(table(records), NINE, h)
        np.testing.assert_array_equal(c.counts, [[5.0, 3.0], [2.0, 0.0]])
        fem = tabulate_poverty(of_subgroup(table(records), "female"), NINE, h)
        np.testing.assert_array_equal(fem.counts, [[5.0, 0.0], [2.0, 0.0]])

    def test_unknown_area_rejected(self):
        h = AreaHierarchy.from_pairs([("a1", "g1")])
        records = [household("h1", set()), household("h2", set(), area="zz")]
        with pytest.raises(ValueError, match="^household 'h2' in unknown area 'zz'$"):
            tabulate_poverty(table(records), NINE, h)

    def test_empty_table_tabulates_zeros(self):
        h = AreaHierarchy.from_pairs([("a1", "g1")])
        c = tabulate_poverty(table([], NINE.indicators), NINE, h)
        assert c.counts.tolist() == [[0.0, 0.0]]


@st.composite
def profiles(draw):
    """Weights a_k / sum(a) (denominators like 7, 21 or 45) and a cutoff
    that is often the exact score of some indicator subset."""
    k = draw(st.integers(1, 6))
    parts = draw(st.lists(st.integers(1, 12), min_size=k, max_size=k))
    weights = tuple(Fraction(a, sum(parts)) for a in parts)
    subset = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    on_tie = sum((w for w, b in zip(weights, subset) if b), Fraction(0))
    if on_tie > 0 and draw(st.booleans()):
        cutoff = on_tie
    else:
        d = draw(st.sampled_from([3, 7, 9, 21, 35]))
        cutoff = Fraction(draw(st.integers(1, d)), d)
    return MpiProfile(tuple(f"i{j}" for j in range(k)), weights, cutoff)


@st.composite
def households(draw, p, areas=("a1", "a2", "a3")):
    n = draw(st.integers(1, 40))
    out = []
    for i in range(n):
        flags = {ind: draw(st.booleans()) for ind in p.indicators}
        out.append(Household(
            f"h{i}",
            draw(st.sampled_from(areas)),
            draw(st.sampled_from(["f", "m"])),
            draw(st.integers(1, 9)),
            flags,
            draw(st.sampled_from([1.0, 0.1, 0.7, 1e-3, 2.5, 3])),
        ))
    return out


PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)
HIERARCHY = AreaHierarchy.from_pairs([("a1", "g1"), ("a2", "g1"), ("a3", "g2")])


class TestMatchesFractionOracle:
    """The common-denominator paths equal the per-record Fraction scorer."""

    @PROPERTY
    @given(st.data())
    def test_compute_mpi(self, data):
        p = data.draw(profiles())
        records = data.draw(households(p))
        assert compute_mpi(table(records), p) == reference_compute_mpi(records, p)

    @PROPERTY
    @given(st.data())
    def test_tabulate_poverty(self, data):
        p = data.draw(profiles())
        records = data.draw(households(p))
        got = tabulate_poverty(table(records), p, HIERARCHY)
        want = reference_tabulate(records, p, HIERARCHY)
        assert got.counts.tobytes() == want.counts.tobytes()
        got = tabulate_poverty(of_subgroup(table(records), "f"), p, HIERARCHY)
        want = reference_tabulate([r for r in records if r.subgroup_id == "f"], p, HIERARCHY)
        assert got.counts.tobytes() == want.counts.tobytes()

    @PROPERTY
    @given(st.data())
    def test_int64_scores_equal_the_flag_matmul(self, data):
        # The scores are summed column by column, without the int64 copy of
        # the flags that the matmul needed.
        p = data.draw(profiles())
        flags, score, denom, _ = _score(table(data.draw(households(p))), p)
        scaled = np.array([w.numerator * (denom // w.denominator) for w in p.weights])
        assert score.dtype == np.int64
        assert score.tobytes() == (flags.astype(np.int64) @ scaled.astype(np.int64)).tobytes()

    def test_tabulate_sums_in_record_order(self):
        # Non-integer weights make the float sums depend on their order.
        rng = np.random.default_rng(3)
        weights = [0.1, 0.7, 1e-3, 1.0 / 3.0]
        records = [
            household(
                f"h{i}",
                {ind for ind in NINE.indicators if rng.random() < 0.25},
                size=int(rng.integers(1, 9)),
                area=f"a{rng.integers(1, 4)}",
                weight=weights[i % len(weights)],
            )
            for i in range(2000)
        ]
        got = tabulate_poverty(table(records), NINE, HIERARCHY)
        want = reference_tabulate(records, NINE, HIERARCHY)
        assert got.counts.tobytes() == want.counts.tobytes()
        # A sum in another order would differ in the last bits.
        assert got.counts.tobytes() != reference_tabulate(
            records[::-1], NINE, HIERARCHY
        ).counts.tobytes()

    @pytest.mark.parametrize(
        "primes",
        [(100_000_007, 100_000_037), (1_000_000_007, 998_244_353, 999_999_937)],
        ids=["lcm_past_2**53", "lcm_past_int64"],
    )
    def test_large_coprime_denominators(self, primes):
        # Past 2**53 an int64 score no longer converts to float exactly (the
        # first case double-rounds household (0, 1, 1) that way), and past
        # 2**63 it overflows; scores then run on Python ints.
        w = [Fraction(q // (len(primes) + 2), q) for q in primes]
        names = tuple(f"i{k}" for k in range(len(w) + 1))
        p = MpiProfile(names, (*w, 1 - sum(w)), w[0] + w[1])
        assert math.lcm(*primes) > 2**53
        records = [
            Household(f"h{i}", f"a{i}", "all", i + 1, dict(zip(names, bits)), 0.7)
            for i, bits in enumerate(np.ndindex(*[2] * len(names)))
        ]
        assert compute_mpi(table(records), p) == reference_compute_mpi(records, p)
        for r in records:
            assert compute_mpi(table([r]), p) == reference_compute_mpi([r], p)
        h = AreaHierarchy.from_pairs([(r.area_id, "g") for r in records])
        poor = tabulate_poverty(table(records), p, h).counts[:, 0] > 0
        scores = [score(r, p) for r in records]
        assert poor.tolist() == [is_poor(s, p) for s in scores]
        assert p.poverty_cutoff in scores  # an exact tie is poor


PAIRWISE_OVERFLOW = [
    2.0068037756678867e307, 5.022489637803324e306, 2.0034184060507563e307, 8.151228258284695e306,
    1.0231712998364586e307, 1.7777328689931208e307, 9.968098853420168e306, 1.2587846192194815e307,
    2.846736765868004e306, 1.6392960817600947e307, 1.237418342733199e307, 8.485245282605551e306,
    1.704448208810578e307, 7.990069800399053e306, 1.0794708857135031e307,
]


class TestErrorsNameFirstBadHousehold:
    """Both paths raise the per-row scorer's message for the first
    rejected household in row order."""

    def missing(self, hid, indicator="assets", **kw):
        flags = {i: False for i in NINE.indicators} | {indicator: None}
        return Household(hid, kw.get("area", "a1"), kw.get("subgroup", "f"), 1, flags)

    def test_first_missing_flag_in_row_order(self):
        # The first row with a missing flag, and in it the first missing
        # indicator in profile order, deep in a table and behind bad rows.
        rng = np.random.default_rng(4)
        records = [
            household(
                f"h{i}",
                {ind for ind in NINE.indicators if rng.random() < 0.3},
                size=int(rng.integers(1, 9)),
                area=f"a{rng.integers(1, 4)}",
                weight=0.1,
            )
            for i in range(200)
        ]
        records[30] = self.missing("h30", "housing")
        records[30].deprivations["sanitation"] = None
        records[50] = self.missing("h50")
        expected = raised(reference_compute_mpi, records, NINE)
        assert expected[1].startswith("household 'h30' has a missing flag for 'sanitation'")
        assert_same_error(expected, compute_mpi, table(records), NINE)
        expected = raised(reference_tabulate, records, NINE, HIERARCHY)
        assert_same_error(expected, tabulate_poverty, table(records), NINE, HIERARCHY)

    def test_unknown_area_and_bad_flags_in_record_order(self):
        stray = household("h2", set(), area="zz")
        both = self.missing("h4", area="zz")  # the area is checked first
        for records in ([stray, self.missing("h3")], [self.missing("h3"), stray], [both]):
            expected = raised(reference_tabulate, records, NINE, HIERARCHY)
            assert_same_error(expected, tabulate_poverty, table(records), NINE, HIERARCHY)

    def test_subset_drops_bad_records(self):
        records = [self.missing("h1", subgroup="m"), household("h2", {"assets"})]
        got = tabulate_poverty(of_subgroup(table(records), "all"), NINE, HIERARCHY)
        assert got.counts.tolist() == [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
        expected = raised(reference_tabulate, records[:1], NINE, HIERARCHY)
        assert_same_error(
            expected, tabulate_poverty, of_subgroup(table(records), "m"), NINE, HIERARCHY
        )

    def test_score_above_one(self):
        # Weights may exceed a sum of 1 by up to 1e-12; a household deprived
        # in all of them then scores above 1, which is_poor rejects.  A bad
        # flag anywhere is reported first, as the scorer sees it first.
        p = MpiProfile(("x", "y"), (Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**14)))
        full = Household("h1", "a1", "f", 1, {"x": True, "y": True})
        later = Household("h2", "a1", "f", 1, {"x": None, "y": True})
        for records in ([full], [full, later]):
            expected = raised(reference_compute_mpi, records, p)
            assert_same_error(expected, compute_mpi, table(records), p)
            expected = raised(reference_tabulate, records, p, HIERARCHY)
            assert_same_error(expected, tabulate_poverty, table(records), p, HIERARCHY)
        assert "outside [0, 1]" in raised(reference_compute_mpi, [full], p)[1]
        assert "missing flag" in raised(reference_compute_mpi, [full, later], p)[1]
        assert "outside [0, 1]" in raised(reference_tabulate, [full, later], p, HIERARCHY)[1]

    @pytest.mark.parametrize(
        "sizes, weights, message",
        [
            ([1, 5, 1], [1.0, 1e308, 1.0], "household 'h2': size * weight is not finite"),
            ([1, 5, 1], [1.0, math.inf, 1.0], "household 'h2': size * weight is not finite"),
            ([1, 1, 2**62], [1.0, 1.0, 1e300], "household 'h3': size * weight is not finite"),
            ([1, 1, 1], [1e308, 1e308, 1.0], "household 'h2': the people sum is not finite"),
            # Every running sum is finite, but numpy's pairwise sum is not.
            ([1] * 15, PAIRWISE_OVERFLOW, "household 'h15': the people sum is not finite"),
        ],
        ids=["product_overflow", "weight_inf", "size_overflow", "sum_overflow", "pairwise_sum"],
    )
    def test_people_past_the_float_range(self, sizes, weights, message):
        # Each household's size * weight, and their sum, must be finite; the
        # first household that is not is named, without a RuntimeWarning.
        records = [
            household(f"h{i + 1}", set(), size=size, area=f"a{i % 3 + 1}", weight=weight)
            for i, (size, weight) in enumerate(zip(sizes, weights))
        ]
        with np.errstate(all="raise"):
            for score in (lambda t: compute_mpi(t, NINE),
                          lambda t: tabulate_poverty(t, NINE, HIERARCHY)):
                with pytest.raises(ValueError) as info:
                    score(table(records))
                assert str(info.value) == message


class TestHouseholds:
    """The table constructor is the one check of households."""

    def columns(self, **changes):
        cols = dict(
            household_ids=("h1", "h2", "h3"), area_ids=("a1", "a1", "a2"),
            subgroup_ids=("f", "m", "f"), size=[5, 3, 2], weight=[1.0, 0.5, 2.0],
            indicators=("x", "y"), flags=[[True, False], [False, True], [True, True]],
            missing=[[False, False], [False, True], [False, False]],
        )
        return cols | changes

    def test_columns(self):
        hh = Households(**self.columns())
        assert len(hh) == 3
        assert hh.size.dtype == np.int64 and hh.weight.dtype == float
        # A missing flag reads False.
        assert hh.flags.tolist() == [[True, False], [False, False], [True, True]]
        for arr in (hh.size, hh.weight, hh.flags, hh.missing):
            assert not arr.flags.writeable

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"household_ids": ("h1", "h2", "h1")}, "duplicate household ids: ['h1']"),
            ({"size": [5, 0, 2]}, "household size must be >= 1, got 0"),
            ({"size": [5, -3, 0]}, "household size must be >= 1, got -3"),
            ({"size": [5.0, 3.0, 2.0]}, "household sizes must be integers below 2**63, got float64"),
            ({"weight": [1.0, 0.0, 2.0]}, "weight must be positive, got 0.0"),
            ({"weight": [1.0, 0.5, -2.0]}, "weight must be positive, got -2.0"),
            ({"weight": [1.0, float("nan"), 2.0]}, "weight must be positive, got nan"),
            ({"area_ids": ("a1", "a1")},
             "ragged household columns: area_ids has shape (2,), expected (3,)"),
            ({"weight": [1.0, 0.5, 2.0, 4.0]},
             "ragged household columns: weight has shape (4,), expected (3,)"),
            ({"flags": [[True, False], [False, True]]},
             "ragged household columns: flags has shape (2, 2), expected (3, 2)"),
            ({"missing": np.zeros((3, 3), dtype=bool)},
             "ragged household columns: missing has shape (3, 3), expected (3, 2)"),
            ({"indicators": ("x", "x")}, "duplicate indicator ids: ['x']"),
        ],
        ids=["duplicate_id", "size_zero", "size_negative", "size_float", "weight_zero",
             "weight_negative", "weight_nan", "ragged_area", "ragged_weight",
             "ragged_flags", "ragged_missing", "duplicate_indicator"],
    )
    def test_rejects(self, changes, message):
        with pytest.raises(ValueError) as info:
            Households(**self.columns(**changes))
        assert str(info.value) == message

    def test_constructor_copies_what_it_is_given(self):
        given = self.columns(
            size=np.array([5, 3, 2]), weight=np.array([1.0, 0.5, 2.0]),
            flags=np.array([[True, False], [False, True], [True, True]]),
            missing=np.array([[False, False], [False, True], [False, False]]),
        )
        hh = Households(**given)
        for name in ("size", "weight", "flags", "missing"):
            assert not np.shares_memory(getattr(hh, name), given[name]), name
            assert given[name].flags.writeable
        # The missing flag is cleared in the table's copy only.
        assert given["flags"][1, 1] and not hh.flags[1, 1]

    def test_a_loader_hands_over_its_columns(self):
        given = self.columns(
            area_ids=["a1", "a1", "a2"], size=np.array([5, 3, 2]), weight=np.array([1.0, 0.5, 2.0]),
            flags=np.array([[True, False], [False, False], [True, True]]),
            missing=np.array([[False, False], [False, True], [False, False]]),
        )
        hh = Households._adopt(*given.values())
        for name in ("size", "weight", "flags", "missing"):
            assert getattr(hh, name) is given[name], name
            assert not given[name].flags.writeable
        assert hh.area_ids == ("a1", "a1", "a2") and type(hh.area_ids) is tuple
        with pytest.raises(ValueError, match="weight must be positive, got -1.0"):
            Households._adopt(*self.columns(weight=np.array([1.0, -1.0, 2.0])).values())

    def test_subset_keeps_row_order(self):
        hh = Households(**self.columns())
        sub = hh.subset([True, False, True])
        assert sub.household_ids == ("h1", "h3")
        assert sub.area_ids == ("a1", "a2") and sub.subgroup_ids == ("f", "f")
        assert sub.size.tolist() == [5, 2] and sub.weight.tolist() == [1.0, 2.0]
        assert sub.flags.tolist() == [[True, False], [True, True]]
        assert sub.indicators == hh.indicators
        assert len(hh.subset(np.zeros(3, dtype=bool))) == 0
        with pytest.raises(ValueError, match="mask shape"):
            hh.subset([True, False])


class TestHeadcountFromComposition:
    def test_poor_share_per_area(self):
        comp = Composition(("r1", "r2"), ("poor", "non-poor"),
                           [[518.0, 482.0], [503.0, 497.0]])
        np.testing.assert_allclose(
            headcount_from_composition(comp), [0.518, 0.503]
        )

    def test_zero_population_area_is_nan(self):
        comp = Composition(("r1", "r2"), ("poor", "non-poor"),
                           [[3.0, 1.0], [0.0, 0.0]])
        out = headcount_from_composition(comp)
        assert out[0] == pytest.approx(0.75)
        assert np.isnan(out[1])

    def test_wrong_categories_rejected(self):
        c = make_composition([[1.0, 2.0]])
        with pytest.raises(ValueError, match="not"):
            headcount_from_composition(c)

    def test_poor_share_matches_masked_division_bitwise(self):
        # The formula ``_poor_share`` had before it divided in place.
        g = np.random.default_rng(29)
        counts = g.uniform(0.0, 1e6, (50, 7, 3)) * (g.random((50, 7, 3)) < 0.7)
        totals = counts.sum(axis=-1)
        want = np.where(totals > 0, counts[..., 1] / np.where(totals > 0, totals, 1.0), np.nan)
        assert same_bits(_poor_share(counts, 1), want)
