import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreekit import (
    AreaHierarchy,
    Composition,
    HouseholdRecord,
    MpiProfile,
    compute_mpi,
    deprivation_score,
    headcount_from_composition,
    is_poor,
    tabulate_poverty,
)
from spreekit import mpi
from spreekit.mpi import LIVING_STANDARD_INDICATORS, POVERTY_CATEGORIES, MpiResult

from conftest import make_composition

NINE = MpiProfile.nine_indicator()


def household(hid, deprived, size=1, area="a1", subgroup="all", weight=1.0):
    flags = {i: i in deprived for i in NINE.indicators}
    return HouseholdRecord(hid, area, subgroup, size, flags, weight)


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
    scores = [deprivation_score(r, p) for r in records]
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


def reference_tabulate(records, p, h, subgroup=None):
    """Oracle: one household at a time, added in record order."""
    pos = {a: i for i, a in enumerate(h.small_ids)}
    counts = np.zeros((len(h.small_ids), 2))
    for r in records:
        if subgroup is not None and r.subgroup_id != subgroup:
            continue
        if r.area_id not in pos:
            raise KeyError(f"household {r.household_id!r} in unknown area {r.area_id!r}")
        col = 0 if is_poor(deprivation_score(r, p), p) else 1
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
        assert deprivation_score(r, NINE) == Fraction(1, 3)
        assert is_poor(deprivation_score(r, NINE), NINE)

    def test_six_living_standards_are_exactly_one_third(self):
        r = household("h", set(LIVING_STANDARD_INDICATORS))
        # Six eighteenths must reach the cutoff exactly, which float
        # accumulation (6 * 0.0555...) would miss.
        assert deprivation_score(r, NINE) == Fraction(1, 3)
        assert is_poor(deprivation_score(r, NINE), NINE)

    def test_five_living_standards_are_below_cutoff(self):
        r = household("h", set(LIVING_STANDARD_INDICATORS[:5]))
        assert deprivation_score(r, NINE) == Fraction(5, 18)
        assert not is_poor(deprivation_score(r, NINE), NINE)

    def test_missing_flag_is_an_error(self):
        flags = {i: False for i in NINE.indicators}
        flags["assets"] = None
        r = HouseholdRecord("h", "a1", "all", 1, flags)
        with pytest.raises(ValueError, match="missing flag"):
            deprivation_score(r, NINE)

    def test_flag_set_must_match_profile(self):
        r = HouseholdRecord("h", "a1", "all", 1, {"child_mortality": True})
        with pytest.raises(ValueError, match="cover the profile"):
            deprivation_score(r, NINE)


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
        res = compute_mpi(records, NINE)
        assert res.headcount == pytest.approx(0.8)
        assert res.mpi == pytest.approx(res.headcount * res.intensity, abs=1e-15)

    def test_contributions_normalise_to_one(self):
        records = [
            household("h1", {"child_mortality"}, size=5),
            household("h2", {"years_of_schooling", "school_attendance"}, size=3),
            household("h3", set(LIVING_STANDARD_INDICATORS[:3]), size=2),
        ]
        res = compute_mpi(records, NINE)
        assert res.contributions is not None
        assert sum(res.contributions.values()) == pytest.approx(1.0, abs=1e-9)
        # child_mortality: weighted headcount (1/3)(5/10) out of a weighted
        # total of (1/3)(1/2) + (1/6)(3/10)*2 + (1/18)(1/5)*3 = 3/10.
        assert res.contributions["child_mortality"] == pytest.approx(5 / 9)

    def test_no_poor_households(self):
        records = [household("h1", set(), size=4), household("h2", {"assets"})]
        res = compute_mpi(records, NINE)
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
        res = compute_mpi(records, NINE)
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
        res = compute_mpi(records, NINE)
        assert res.population_base == pytest.approx(8.0)
        assert res.headcount == pytest.approx(6.0 / 8.0)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError, match="no household records"):
            compute_mpi([], NINE)


class TestTabulate:
    def test_counts_by_area_and_subgroup(self):
        h = AreaHierarchy.from_pairs([("a1", "g1"), ("a2", "g1")])
        records = [
            household("h1", {"child_mortality"}, size=5, area="a1", subgroup="female"),
            household("h2", {"years_of_schooling"}, size=3, area="a1", subgroup="male"),
            household("h3", set(LIVING_STANDARD_INDICATORS), size=2, area="a2",
                      subgroup="female"),
        ]
        c = tabulate_poverty(records, NINE, h)
        np.testing.assert_array_equal(c.counts, [[5.0, 3.0], [2.0, 0.0]])
        fem = tabulate_poverty(records, NINE, h, subgroup="female")
        np.testing.assert_array_equal(fem.counts, [[5.0, 0.0], [2.0, 0.0]])

    def test_unknown_area_rejected(self):
        h = AreaHierarchy.from_pairs([("a1", "g1")])
        records = [household("h1", set(), area="zz")]
        with pytest.raises(KeyError, match="unknown area"):
            tabulate_poverty(records, NINE, h)


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
        out.append(HouseholdRecord(
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
        assert compute_mpi(records, p) == reference_compute_mpi(records, p)

    @PROPERTY
    @given(st.data())
    def test_tabulate_poverty(self, data):
        p = data.draw(profiles())
        records = data.draw(households(p))
        for subgroup in (None, "f"):
            got = tabulate_poverty(records, p, HIERARCHY, subgroup)
            want = reference_tabulate(records, p, HIERARCHY, subgroup)
            assert got.counts.tobytes() == want.counts.tobytes()

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
        got = tabulate_poverty(records, NINE, HIERARCHY)
        want = reference_tabulate(records, NINE, HIERARCHY)
        assert got.counts.tobytes() == want.counts.tobytes()
        # A sum in another order would differ in the last bits.
        assert got.counts.tobytes() != reference_tabulate(
            records[::-1], NINE, HIERARCHY
        ).counts.tobytes()

    def test_blocks_join_seamlessly(self, monkeypatch):
        monkeypatch.setattr(mpi, "_BLOCK", 7)
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
        assert compute_mpi(records, NINE) == reference_compute_mpi(records, NINE)
        got = tabulate_poverty(records, NINE, HIERARCHY)
        assert got.counts.tobytes() == reference_tabulate(records, NINE, HIERARCHY).counts.tobytes()
        flags = dict(records[30].deprivations, assets=None)
        records[30] = HouseholdRecord("h30", "a1", "all", 1, flags)
        expected = raised(reference_compute_mpi, records, NINE)
        assert "'h30'" in expected[1]
        assert_same_error(expected, compute_mpi, records, NINE)

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
            HouseholdRecord(f"h{i}", f"a{i}", "all", i + 1, dict(zip(names, bits)), 0.7)
            for i, bits in enumerate(np.ndindex(*[2] * len(names)))
        ]
        assert compute_mpi(records, p) == reference_compute_mpi(records, p)
        for r in records:
            assert compute_mpi([r], p) == reference_compute_mpi([r], p)
        h = AreaHierarchy.from_pairs([(r.area_id, "g") for r in records])
        poor = tabulate_poverty(records, p, h).counts[:, 0] > 0
        scores = [deprivation_score(r, p) for r in records]
        assert poor.tolist() == [is_poor(s, p) for s in scores]
        assert p.poverty_cutoff in scores  # an exact tie is poor


class TestErrorsNameFirstBadHousehold:
    """Both paths raise the per-record scorer's message for the first
    rejected household in record order."""

    def missing(self, hid, **kw):
        flags = {i: False for i in NINE.indicators}
        flags["assets"] = None
        return HouseholdRecord(hid, kw.get("area", "a1"), kw.get("subgroup", "f"), 1, flags)

    def uncovered(self, hid, **kw):
        flags = {i: False for i in NINE.indicators[:-1]} | {"extra": True}
        return HouseholdRecord(hid, kw.get("area", "a1"), kw.get("subgroup", "f"), 1, flags)

    def extra(self, hid, **kw):
        flags = {i: False for i in NINE.indicators} | {"extra": False}
        return HouseholdRecord(hid, kw.get("area", "a1"), kw.get("subgroup", "f"), 1, flags)

    @pytest.mark.parametrize("first", ["missing", "uncovered", "extra"])
    def test_bad_flags(self, first):
        kinds = ["missing", "uncovered", "extra"]
        kinds.remove(first)
        bad = [getattr(self, kind)(f"h{k + 2}") for k, kind in enumerate([first, *kinds])]
        records = [household("h1", set()), *bad, household("h5", {"assets"})]
        expected = raised(reference_compute_mpi, records, NINE)
        assert bad[0].household_id in expected[1]
        assert_same_error(expected, compute_mpi, records, NINE)
        expected = raised(reference_tabulate, records, NINE, HIERARCHY)
        assert_same_error(expected, tabulate_poverty, records, NINE, HIERARCHY)

    def test_unknown_area_and_bad_flags_in_record_order(self):
        stray = household("h2", set(), area="zz")
        for records in ([stray, self.missing("h3")], [self.missing("h3"), stray]):
            expected = raised(reference_tabulate, records, NINE, HIERARCHY)
            assert_same_error(expected, tabulate_poverty, records, NINE, HIERARCHY)

    def test_subgroup_filter_skips_bad_records(self):
        records = [self.missing("h1", subgroup="m"), household("h2", {"assets"})]
        got = tabulate_poverty(records, NINE, HIERARCHY, subgroup="all")
        assert got.counts.tolist() == [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
        expected = raised(reference_tabulate, records, NINE, HIERARCHY, "m")
        assert_same_error(expected, tabulate_poverty, records, NINE, HIERARCHY, "m")

    def test_score_above_one(self):
        # Weights may exceed a sum of 1 by up to 1e-12; a household deprived
        # in all of them then scores above 1, which is_poor rejects.  A bad
        # flag anywhere is reported first, as the scorer sees it first.
        p = MpiProfile(("x", "y"), (Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**14)))
        full = HouseholdRecord("h1", "a1", "f", 1, {"x": True, "y": True})
        later = HouseholdRecord("h2", "a1", "f", 1, {"x": None, "y": True})
        for records in ([full], [full, later]):
            expected = raised(reference_compute_mpi, records, p)
            assert_same_error(expected, compute_mpi, records, p)
            expected = raised(reference_tabulate, records, p, HIERARCHY)
            assert_same_error(expected, tabulate_poverty, records, p, HIERARCHY)
        assert "outside [0, 1]" in raised(reference_compute_mpi, [full], p)[1]
        assert "missing flag" in raised(reference_compute_mpi, [full, later], p)[1]
        assert "outside [0, 1]" in raised(reference_tabulate, [full, later], p, HIERARCHY)[1]


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
