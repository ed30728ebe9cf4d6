import csv
import io
import json
import os
import re
import signal
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spreekit import (
    AreaHierarchy,
    Composition,
    Households,
    IngestError,
    MarginLevel,
    MarginVector,
    MpiProfile,
    PixelTable,
    SimulationPlan,
    SurveyDesign,
)
from spreekit import io as sio

from conftest import FIXTURES, another_thread_alive, fake_cpus, same_bits


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestCompositionRoundTrip:
    def test_round_trip_is_exact(self, tmp_path):
        c = Composition(
            ("a1", "a2"),
            ("poor", "non-poor"),
            [[0.1 + 0.2, 400.0], [1e-17, 123456789.125]],
        )
        p = tmp_path / "c.csv"
        sio.save_composition(p, c)
        back = sio.load_composition(p)
        assert back.area_ids == c.area_ids
        assert back.category_ids == c.category_ids
        np.testing.assert_array_equal(back.counts, c.counts)

    def test_missing_pairs_become_zero(self, tmp_path):
        p = write(
            tmp_path,
            "c.csv",
            "area_id,category_id,count\na1,x,3\na2,y,4\n",
        )
        c = sio.load_composition(p)
        np.testing.assert_array_equal(c.counts, [[3.0, 0.0], [0.0, 4.0]])

    def test_orders_follow_first_appearance(self, tmp_path):
        p = write(
            tmp_path,
            "c.csv",
            "area_id,category_id,count\nzz,late,1\naa,early,2\nzz,early,3\n",
        )
        c = sio.load_composition(p)
        assert c.area_ids == ("zz", "aa")
        assert c.category_ids == ("late", "early")

    def test_errors_carry_file_and_line(self, tmp_path):
        p = write(tmp_path, "bad.csv", "area_id,category_id,count\na,x,1\na,x,2\n")
        with pytest.raises(IngestError, match=r"bad\.csv:3: duplicate cell \(a,x\), first at line 2"):
            sio.load_composition(p)
        p2 = write(tmp_path, "neg.csv", "area_id,category_id,count\na,x,-1\n")
        with pytest.raises(IngestError, match=r"neg\.csv:2: negative count"):
            sio.load_composition(p2)
        p3 = write(tmp_path, "nan.csv", "area_id,category_id,count\na,x,abc\n")
        with pytest.raises(IngestError, match=r"nan\.csv:2: count is not a number"):
            sio.load_composition(p3)
        p4 = write(tmp_path, "head.csv", "wrong,header\n")
        with pytest.raises(IngestError, match=r"head\.csv:1: bad header"):
            sio.load_composition(p4)
        p5 = write(tmp_path, "empty.csv", "")
        with pytest.raises(IngestError, match=r"empty\.csv:1: empty file"):
            sio.load_composition(p5)
        p6 = write(tmp_path, "short.csv", "area_id,category_id,count\na,x\n")
        with pytest.raises(IngestError, match=r"short\.csv:2: expected 3 columns"):
            sio.load_composition(p6)
        p7 = write(tmp_path, "nodata.csv", "area_id,category_id,count\n")
        with pytest.raises(IngestError, match=r"no data rows"):
            sio.load_composition(p7)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="missing.csv"):
            sio.load_composition(tmp_path / "missing.csv")


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "load, header, row, field",
    [
        (sio.load_composition, "area_id,category_id,count", "a{i},x,{v}", "count"),
        (sio.load_margin, "id,value", "k{i},{v}", "value"),
        (sio.load_pixels, "lon,lat,value", "0.5,{v},1.0", "lat"),
        (sio.load_pixels, "lon,lat,value", "0.5,0.5,{v}", "value"),
    ],
    ids=["composition", "margin", "pixel_lat", "pixel_value"],
)
def test_non_finite_numbers_rejected_with_line(tmp_path, load, header, row, field, raw):
    lines = [header, row.format(i=1, v=1), row.format(i=2, v=raw)]
    p = write(tmp_path, "f.csv", "\n".join(lines) + "\n")
    with pytest.raises(IngestError, match=rf"f\.csv:3: {field} must be finite, got '{raw}'"):
        load(p)


class TestMarginRoundTrip:
    def test_round_trip(self, tmp_path):
        m = MarginVector(("k", "l"), np.array([0.1 + 0.2, 7.0]),
                         MarginLevel.LARGE_AREA, 3)
        p = tmp_path / "m.csv"
        sio.save_margin(p, m)
        back = sio.load_margin(p, MarginLevel.LARGE_AREA, 3)
        assert back.ids == m.ids
        np.testing.assert_array_equal(back.values, m.values)
        assert back.level is MarginLevel.LARGE_AREA
        assert back.reference_time == 3

    def test_duplicate_id(self, tmp_path):
        p = write(tmp_path, "m.csv", "id,value\nk,1\nk,2\n")
        with pytest.raises(IngestError, match=r"m\.csv:3: duplicate id 'k', first at line 2"):
            sio.load_margin(p)

    def test_pool_preserves_order(self, tmp_path):
        paths = []
        for k in range(3):
            m = MarginVector(("a",), np.array([float(k)]), MarginLevel.SMALL_AREA)
            p = tmp_path / f"p{k}.csv"
            sio.save_margin(p, m)
            paths.append(p)
        pool = sio.load_margin_pool(paths, MarginLevel.SMALL_AREA)
        assert [m.values[0] for m in pool] == [0.0, 1.0, 2.0]


class TestHierarchyRoundTrip:
    def test_round_trip(self, tmp_path):
        h = AreaHierarchy.from_pairs([("a1", "g2"), ("a2", "g1"), ("a3", "g2")])
        p = tmp_path / "h.csv"
        sio.save_hierarchy(p, h)
        back = sio.load_hierarchy(p)
        assert back.assignments == h.assignments
        assert back.large_ids == h.large_ids

    def test_duplicate_small(self, tmp_path):
        p = write(tmp_path, "h.csv", "small_id,large_id\na,g\na,g2\n")
        with pytest.raises(IngestError, match=r"h\.csv:3: duplicate small_id"):
            sio.load_hierarchy(p)


class TestHouseholds:
    def test_fixture_loads_with_profile(self):
        profile = sio.load_profile(FIXTURES / "profile9.json")
        households = sio.load_households(FIXTURES / "households3.csv", profile)
        assert len(households) == 3
        assert households.household_ids == ("h1", "h2", "h3")
        assert households.subgroup_ids == ("female", "male", "female")
        assert households.size.tolist() == [5, 3, 2]
        assert households.indicators == profile.indicators
        assert households.flags[0].tolist() == [True] + [False] * 8
        assert not households.missing.any()

    def test_round_trip_with_missing_flags(self, tmp_path):
        hh = Households(("h1", "h2"), ("a1", "a2"), ("s", ""), [2, 1], [1.5, 0.1], ("x", "y"),
                        [[True, False], [False, True]], [[False, True], [False, False]])
        p = tmp_path / "hh.csv"
        sio.save_households(p, hh)
        back = sio.load_households(p)
        for name in ("household_ids", "area_ids", "subgroup_ids", "indicators"):
            assert getattr(back, name) == getattr(hh, name)
        for name in ("size", "weight", "flags", "missing"):
            assert getattr(back, name).tolist() == getattr(hh, name).tolist()
        assert back.size.dtype == np.int64

    def test_error_contracts(self, tmp_path):
        head = "household_id,area_id,subgroup_id,size,weight,ind_x\n"
        p = write(tmp_path, "hh.csv", head + "h1,a,s,1,1.0,2\n")
        with pytest.raises(IngestError, match=r"hh\.csv:2: ind_x must be 0, 1, or empty"):
            sio.load_households(p)
        p2 = write(tmp_path, "hh2.csv", head + "h1,a,s,1,1.0,1\nh1,a,s,1,1.0,0\n")
        with pytest.raises(IngestError, match=r"hh2\.csv:3: duplicate household_id"):
            sio.load_households(p2)
        p3 = write(tmp_path, "hh3.csv", head + "h1,a,s,zero,1.0,1\n")
        with pytest.raises(IngestError, match=r"hh3\.csv:2: size is not an integer"):
            sio.load_households(p3)
        p4 = write(tmp_path, "hh4.csv", "household_id,area_id\n")
        with pytest.raises(IngestError, match=r"hh4\.csv:1: header must start with"):
            sio.load_households(p4)
        p5 = write(tmp_path, "hh5.csv", head.replace("ind_x", "flag_x"))
        with pytest.raises(IngestError, match=r"must start with 'ind_'"):
            sio.load_households(p5)

    def test_size_past_int64_is_rejected(self, tmp_path):
        head = "household_id,area_id,subgroup_id,size,weight,ind_x\n"
        p = write(tmp_path, "hh.csv", head + "h1,a,s,1,1.0,1\nh2,a,s,99999999999999999999,1.0,1\n")
        with pytest.raises(IngestError, match=r"hh\.csv: household sizes must be integers below 2\*\*63"):
            sio.load_households(p)

    def test_profile_mismatch(self, tmp_path):
        head = "household_id,area_id,subgroup_id,size,weight,ind_x\n"
        p = write(tmp_path, "hh.csv", head + "h1,a,s,1,1.0,1\n")
        profile = MpiProfile(("y",), (Fraction(1),))
        with pytest.raises(IngestError, match="do not match the profile"):
            sio.load_households(p, profile)


class TestProfile:
    def test_fixture_has_exact_fractions(self):
        profile = sio.load_profile(FIXTURES / "profile9.json")
        assert profile.weight_of("child_mortality") == Fraction(1, 3)
        assert profile.weight_of("cooking_fuel") == Fraction(1, 18)
        assert profile.poverty_cutoff == Fraction(1, 3)
        assert sum(profile.weights) == 1

    def test_round_trip(self, tmp_path):
        p = tmp_path / "p.json"
        sio.save_profile(p, MpiProfile.ten_indicator())
        back = sio.load_profile(p)
        assert back == MpiProfile.ten_indicator()

    def test_float_weights_snap_to_fractions(self, tmp_path):
        p = write(
            tmp_path,
            "p.json",
            '{"indicators": [{"id": "a", "weight": 0.3333333333333333},'
            ' {"id": "b", "weight": 0.6666666666666666}], "cutoff": 0.3333333333333333}',
        )
        profile = sio.load_profile(p)
        assert profile.weight_of("a") == Fraction(1, 3)
        assert profile.weight_of("b") == Fraction(2, 3)
        assert profile.poverty_cutoff == Fraction(1, 3)

    def test_integer_weights_are_exact(self, tmp_path):
        p = write(tmp_path, "p.json", '{"indicators": [{"id": "a", "weight": 1}], "cutoff": 1}')
        profile = sio.load_profile(p)
        assert profile.weights == (Fraction(1),)
        assert profile.poverty_cutoff == Fraction(1)

    def test_error_contracts(self, tmp_path):
        p = write(tmp_path, "bad.json", "{nope")
        with pytest.raises(IngestError, match="invalid JSON"):
            sio.load_profile(p)
        p2 = write(tmp_path, "empty.json", "{}")
        with pytest.raises(IngestError, match="'indicators'"):
            sio.load_profile(p2)
        p3 = write(tmp_path, "short.json", '{"indicators": [{"id": "a"}]}')
        with pytest.raises(IngestError, match=r"indicators\[0\]"):
            sio.load_profile(p3)
        p4 = write(
            tmp_path,
            "sum.json",
            '{"indicators": [{"id": "a", "weight": "1/2"}]}',
        )
        with pytest.raises(IngestError, match="sum"):
            sio.load_profile(p4)

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "[Errno 2] No such file or directory"),
            ('{"indicators": []}', "'indicators' must be a non-empty list"),
            (
                '{"indicators": [{"id": "a", "weight": true}]}',
                "indicators[0].weight must be a number or fraction string",
            ),
            (
                '{"indicators": [{"id": "a", "weight": "1/0"}]}',
                "bad indicators[0].weight '1/0': Fraction(1, 0)",
            ),
            (
                '{"indicators": [{"id": "a", "weight": 1}], "cutoff": [1]}',
                "cutoff must be a number or fraction string, got [1]",
            ),
            (
                '{"indicators": [{"id": "a", "weight": Infinity}]}',
                "indicators[0].weight must be finite, got inf",
            ),
            (
                '{"indicators": [{"id": "a", "weight": 1e400}]}',
                "indicators[0].weight must be finite, got inf",
            ),
            (
                '{"indicators": [{"id": "a", "weight": NaN}]}',
                "indicators[0].weight must be finite, got nan",
            ),
            (
                '{"indicators": [{"id": "a", "weight": "1e400"}]}',
                "weights sum to inf, expected 1",
            ),
            (
                '{"indicators": [{"id": "a", "weight": 1%s}]}' % ("0" * 399),
                "weights sum to inf, expected 1",
            ),
            (
                '{"indicators": [{"id": "a", "weight": 1}], "cutoff": 1e400}',
                "cutoff must be finite, got inf",
            ),
        ],
        ids=["missing-file", "no-indicators", "bool-weight", "zero-denominator", "list-cutoff",
             "infinite-weight", "weight-past-the-float-range", "nan-weight",
             "string-weight-past-the-float-range", "400-digit-weight",
             "cutoff-past-the-float-range"],
    )
    def test_bad_profile_is_an_ingest_error_naming_the_file(self, tmp_path, text, message):
        p = tmp_path / "p.json" if text is None else write(tmp_path, "p.json", text)
        with pytest.raises(IngestError, match=f"^{re.escape(f'{p}: {message}')}"):
            sio.load_profile(p)


class TestByYear:
    def test_projections_round_trip(self, tmp_path):
        margins = {
            2013: MarginVector(("k", "l"), np.array([2200.0, 2100.0]),
                               MarginLevel.LARGE_AREA, 2013),
            2015: MarginVector(("k", "l"), np.array([2300.0, 2150.0]),
                               MarginLevel.LARGE_AREA, 2015),
        }
        p = tmp_path / "proj.csv"
        sio.save_by_year(p, margins, ("large_id", "year", "population"))
        back = sio.load_projections(p)
        assert sorted(back) == [2013, 2015]
        for year, m in margins.items():
            assert back[year].reference_time == year
            np.testing.assert_array_equal(back[year].values, m.values)

    @pytest.mark.parametrize(
        "load, header",
        [
            (sio.load_projections, ("large_id", "year", "population")),
            (sio.load_aux_populations, ("small_id", "year", "population")),
        ],
        ids=["projections", "aux"],
    )
    def test_an_empty_mapping_round_trips(self, tmp_path, load, header):
        p = tmp_path / "by_year.csv"
        sio.save_by_year(p, {}, header)
        assert p.read_bytes() == ",".join(header).encode() + b"\r\n"
        assert load(p) == {}

    def test_aux_fixture(self):
        aux = sio.load_aux_populations(FIXTURES / "mini" / "aux.csv")
        assert list(aux) == [2013]
        assert aux[2013].level is MarginLevel.SMALL_AREA
        np.testing.assert_array_equal(aux[2013].values, [1150.0, 1050.0, 1100.0, 1000.0])

    def test_error_contracts(self, tmp_path):
        p = write(tmp_path, "y.csv", "large_id,year,population\nk,20x3,5\n")
        with pytest.raises(IngestError, match=r"y\.csv:2: year is not an integer"):
            sio.load_projections(p)
        p2 = write(tmp_path, "d.csv",
                   "large_id,year,population\nk,2013,5\nk,2013,6\n")
        with pytest.raises(IngestError, match=r"d\.csv:3: duplicate \(k,2013\)"):
            sio.load_projections(p2)


class TestPixelsAndDesign:
    def test_pixels_round_trip(self, tmp_path):
        px = PixelTable([0.5, 1.5], [0.25, 2.5], [1.0 / 3.0, 7.0])
        p = tmp_path / "px.csv"
        sio.save_pixels(p, px)
        back = sio.load_pixels(p)
        np.testing.assert_array_equal(back.lon, px.lon)
        np.testing.assert_array_equal(back.lat, px.lat)
        np.testing.assert_array_equal(back.value, px.value)

    def test_design_round_trip(self, tmp_path):
        d = sio.load_design(FIXTURES / "mini" / "design.csv")
        p = tmp_path / "d.csv"
        sio.save_design(p, d)
        back = sio.load_design(p)
        np.testing.assert_array_equal(back.weight, d.weight)
        np.testing.assert_array_equal(back.value, d.value)
        assert back.category_ids == d.category_ids
        assert back.strata == d.strata
        np.testing.assert_array_equal(back._psu_totals, d._psu_totals)

    def test_design_errors(self, tmp_path):
        head = "psu_id,stratum_id,weight,category_id,value\n"
        p = write(tmp_path, "d.csv", head + "p,s,0,c,1\n")
        with pytest.raises(IngestError, match="positive"):
            sio.load_design(p)
        p2 = write(tmp_path, "d2.csv", head + ",s,1,c,1\n")
        with pytest.raises(IngestError, match=r"d2\.csv:2: empty psu_id"):
            sio.load_design(p2)

    @pytest.mark.parametrize(
        "rows",
        [
            "p1,s1,1e6,poor,1e303\n",
            # Each product is finite; their PSU sum is not.
            "p1,s1,1e5,poor,1e303\np1,s1,1e5,poor,1e303\n",
        ],
        ids=["product", "psu-sum"],
    )
    def test_design_total_overflow(self, tmp_path, rows):
        p = write(tmp_path, "d.csv", "psu_id,stratum_id,weight,category_id,value\n" + rows)
        with pytest.raises(IngestError, match=r"d\.csv: design weight \* value must be finite"):
            sio.load_design(p)

    def test_design_whose_resampled_margin_can_overflow(self, tmp_path):
        rows = "p1,s1,1,poor,1e308\np2,s1,1,poor,1e308\n"
        p = write(tmp_path, "d.csv", "psu_id,stratum_id,weight,category_id,value\n" + rows)
        message = r"d\.csv: design weight \* value too large: a resampled margin can overflow"
        with pytest.raises(IngestError, match=message):
            sio.load_design(p)

    def test_polygons_fixture(self):
        polys = sio.load_polygons(FIXTURES / "polygons_horizontal.geojson")
        assert set(polys.area_ids) == {"north", "south"}

    def test_polygons_bad_json(self, tmp_path):
        p = write(tmp_path, "p.geojson", "{broken")
        with pytest.raises(IngestError, match="invalid JSON"):
            sio.load_polygons(p)


class TestPlans:
    def test_inline_scenario_plan(self):
        plan = sio.load_plan(FIXTURES / "shock.json")
        assert isinstance(plan, SimulationPlan)
        assert plan.replicates == 40
        assert plan.seed == 20250823
        assert len(plan.truth_t0.area_ids) == 12
        assert len(plan.aux_pool) == 60
        assert plan.survey_design is not None

    def test_file_reference_plan(self):
        plan = sio.load_plan(FIXTURES / "mini_plan.json")
        assert plan.replicates == 10
        assert plan.seed == 3
        assert plan.truth_t0.area_ids == ("a1", "a2", "a3", "a4")
        assert plan.truth_t.reference_time == 1
        assert plan.large_totals_t.level is MarginLevel.LARGE_AREA
        assert len(plan.aux_pool) == 1
        assert plan.survey_design is not None

    def test_missing_keys(self, tmp_path):
        p = write(tmp_path, "plan.json", '{"truth_t0": "x.csv"}')
        with pytest.raises(IngestError, match="plan missing keys"):
            sio.load_plan(p)

    def test_bad_scenario_field(self, tmp_path):
        p = write(tmp_path, "plan.json", '{"scenario": {"regions": -1}}')
        with pytest.raises(IngestError, match="bad scenario config"):
            sio.load_plan(p)

    def test_replicates_override(self, tmp_path):
        p = write(
            tmp_path, "plan.json",
            '{"scenario": {"replicates": 99}, "replicates": 5, "seed": 11}',
        )
        plan = sio.load_plan(p)
        assert plan.replicates == 5
        assert plan.seed == 11

    def test_plan_must_be_an_object(self, tmp_path):
        p = write(tmp_path, "plan.json", '[{"scenario": {}}]')
        with pytest.raises(IngestError, match=f"^{re.escape(str(p))}: plan must be a JSON object$"):
            sio.load_plan(p)

    def test_scenario_must_be_an_object(self, tmp_path):
        p = write(tmp_path, "plan.json", '{"scenario": 3}')
        with pytest.raises(IngestError, match="bad scenario config"):
            sio.load_plan(p)

    def test_unknown_inline_keys(self, tmp_path):
        p = write(
            tmp_path, "plan.json",
            '{"scenario": {"replicates": 2}, "replicate": 5, "truth_t0": "x.csv"}',
        )
        with pytest.raises(IngestError, match=r"unknown plan keys: \['replicate', 'truth_t0'\]"):
            sio.load_plan(p)

    def test_unknown_file_ref_keys(self, tmp_path):
        plan = json.loads((FIXTURES / "mini_plan.json").read_text())
        p = write(tmp_path, "plan.json", json.dumps({**plan, "replicates": 3, "replicate": 2}))
        with pytest.raises(IngestError, match=r"unknown plan keys: \['replicate'\]$"):
            sio.load_plan(p)


# Ids with commas, double quotes, line breaks and non-ASCII text; no
# surrounding whitespace, which the loaders strip.
IDS = st.text(
    st.one_of(st.sampled_from(',"\né€字 '), st.characters(exclude_categories=("Cs", "Cc"))),
    min_size=1,
    max_size=6,
).filter(lambda s: s == s.strip())
COUNTS = st.floats(min_value=0.0, max_value=1e308)
COORDS = st.floats(allow_nan=False, allow_infinity=False)
ROUND_TRIP = settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def unique_ids(min_size=1, max_size=5):
    return st.lists(IDS, min_size=min_size, max_size=max_size, unique=True)


class TestSaveThenLoadIsIdentity:
    @ROUND_TRIP
    @given(areas=unique_ids(), categories=unique_ids(), data=st.data())
    def test_composition(self, tmp_path, areas, categories, data):
        counts = data.draw(st.lists(COUNTS, min_size=len(areas) * len(categories),
                                    max_size=len(areas) * len(categories)))
        c = Composition(tuple(areas), tuple(categories),
                        np.reshape(counts, (len(areas), len(categories))))
        sio.save_composition(tmp_path / "c.csv", c)
        back = sio.load_composition(tmp_path / "c.csv")
        assert (back.area_ids, back.category_ids) == (c.area_ids, c.category_ids)
        assert same_bits(back.counts, c.counts)

    @ROUND_TRIP
    @given(ids=unique_ids(0, 6), data=st.data())
    def test_margin(self, tmp_path, ids, data):
        values = np.array(data.draw(st.lists(COUNTS, min_size=len(ids), max_size=len(ids))), dtype=float)
        m = MarginVector(tuple(ids), values, MarginLevel.CATEGORY, 4)
        sio.save_margin(tmp_path / "m.csv", m)
        back = sio.load_margin(tmp_path / "m.csv", MarginLevel.CATEGORY, 4)
        assert back.ids == m.ids
        assert same_bits(back.values, m.values)

    @ROUND_TRIP
    @given(small=unique_ids(), data=st.data())
    def test_hierarchy(self, tmp_path, small, data):
        large = data.draw(st.lists(IDS, min_size=len(small), max_size=len(small)))
        h = AreaHierarchy.from_pairs(zip(small, large))
        sio.save_hierarchy(tmp_path / "h.csv", h)
        back = sio.load_hierarchy(tmp_path / "h.csv")
        assert list(back.assignments.items()) == list(h.assignments.items())
        assert (back.small_ids, back.large_ids) == (h.small_ids, h.large_ids)

    @ROUND_TRIP
    @given(
        years=st.lists(st.integers(-3000, 3000), min_size=1, max_size=3, unique=True),
        data=st.data(),
    )
    def test_by_year(self, tmp_path, years, data):
        margins = {}
        for year in years:
            ids = data.draw(unique_ids())
            values = data.draw(st.lists(COUNTS, min_size=len(ids), max_size=len(ids)))
            margins[year] = MarginVector(tuple(ids), np.array(values, dtype=float),
                                         MarginLevel.LARGE_AREA, year)
        sio.save_by_year(tmp_path / "p.csv", margins, ("large_id", "year", "population"))
        back = sio.load_projections(tmp_path / "p.csv")
        assert list(back) == sorted(margins)
        for year, m in margins.items():
            assert (back[year].ids, back[year].level, back[year].reference_time) == (
                m.ids, m.level, year)
            assert same_bits(back[year].values, m.values)

    @ROUND_TRIP
    @given(rows=st.lists(st.tuples(COORDS, COORDS, COUNTS), max_size=6))
    def test_pixels(self, tmp_path, rows):
        px = PixelTable(*np.array(rows, dtype=float).reshape(-1, 3).T)
        sio.save_pixels(tmp_path / "px.csv", px)
        back = sio.load_pixels(tmp_path / "px.csv")
        for name in ("lon", "lat", "value"):
            assert same_bits(getattr(back, name), getattr(px, name))

    @ROUND_TRIP
    @given(
        rows=st.lists(
            st.tuples(IDS, IDS, st.floats(min_value=1e-300, max_value=1e300), IDS,
                      st.floats(min_value=0.0, max_value=1e6)),
            min_size=1,
            max_size=6,
        )
    )
    def test_design(self, tmp_path, rows):
        psu, stratum, weight, category, value = (list(col) for col in zip(*rows))
        d = SurveyDesign(np.array(psu, dtype=object), np.array(stratum, dtype=object),
                         np.array(weight), np.array(category, dtype=object), np.array(value))
        sio.save_design(tmp_path / "d.csv", d)
        back = sio.load_design(tmp_path / "d.csv")
        for name in ("psu", "stratum", "category"):
            assert getattr(back, name).tolist() == getattr(d, name).tolist()
        assert same_bits(back.weight, d.weight) and same_bits(back.value, d.value)
        assert (back.category_ids, back.strata) == (d.category_ids, d.strata)


# Ids that need quoting, or are not ASCII, and floats whose repr is easy to
# get wrong.  The expected bytes below were written by the csv.writer-based
# save_* functions this dialect replaced.
TRICKY_IDS = ("a,1", 'b"2', "c\n3", "d\r4", "é字")
TRICKY_FLOATS = (-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308)
YZ = 'y,"z"'


def tricky_design():
    return SurveyDesign(
        np.array(TRICKY_IDS, dtype=object),
        np.array(TRICKY_IDS[::-1], dtype=object),
        # The largest value has the smallest weight, so no margin drawn from
        # the design can overflow.
        np.array((1.0, 1e-05, 1e16, 5e-324, 2.5)),
        np.array(("x", YZ, "x", "x", YZ), dtype=object),
        np.array((-0.0, 5e-324, 1e-05, 1.7976931348623157e308, 1e16)),
    )


SAVED_BYTES = {
    "composition": (
        lambda p: sio.save_composition(p, Composition(
            TRICKY_IDS, ("x", YZ), np.array([TRICKY_FLOATS, TRICKY_FLOATS[::-1]]).T)),
        b'area_id,category_id,count\r\n"a,1",x,-0.0\r\n"a,1","y,""z""",1.7976931348623157e+308'
        b'\r\n"b""2",x,5e-324\r\n"b""2","y,""z""",1e+16\r\n"c\n3",x,1e-05\r\n"c\n3","y,""z""",'
        b'1e-05\r\n"d\r4",x,1e+16\r\n"d\r4","y,""z""",5e-324\r\n\xc3\xa9\xe5\xad\x97,x,'
        b'1.7976931348623157e+308\r\n\xc3\xa9\xe5\xad\x97,"y,""z""",-0.0\r\n',
    ),
    "margin": (
        lambda p: sio.save_margin(
            p, MarginVector(TRICKY_IDS, np.array(TRICKY_FLOATS), MarginLevel.SMALL_AREA, 0)),
        b'id,value\r\n"a,1",-0.0\r\n"b""2",5e-324\r\n"c\n3",1e-05\r\n"d\r4",1e+16\r\n'
        b'\xc3\xa9\xe5\xad\x97,1.7976931348623157e+308\r\n',
    ),
    "hierarchy": (
        lambda p: sio.save_hierarchy(p, AreaHierarchy.from_pairs(
            zip(TRICKY_IDS, ("L,1", "L,1", 'L"2', "L\n3", "L\n3")))),
        b'small_id,large_id\r\n"a,1","L,1"\r\n"b""2","L,1"\r\n"c\n3","L""2"\r\n"d\r4","L\n3"'
        b'\r\n\xc3\xa9\xe5\xad\x97,"L\n3"\r\n',
    ),
    "households": (
        lambda p: sio.save_households(p, Households(
            TRICKY_IDS, TRICKY_IDS[::-1], ("x", YZ, "x", YZ, "x"), [1, 7, 2**40, 3, 12],
            (5e-324, 1e-05, 1e16, 1.0, 1.7976931348623157e308), ("x", YZ),
            [[True, False], [False, True], [False, False], [True, True], [False, False]],
            [[False, True], [False, False], [True, True], [False, False], [False, False]])),
        b'household_id,area_id,subgroup_id,size,weight,ind_x,"ind_y,""z"""\r\n"a,1",\xc3\xa9'
        b'\xe5\xad\x97,x,1,5e-324,1,\r\n"b""2","d\r4","y,""z""",7,1e-05,0,1\r\n"c\n3","c\n3",x,'
        b'1099511627776,1e+16,,\r\n"d\r4","b""2","y,""z""",3,1.0,1,1\r\n\xc3\xa9\xe5\xad\x97,'
        b'"a,1",x,12,1.7976931348623157e+308,0,0\r\n',
    ),
    "design": (
        lambda p: sio.save_design(p, tricky_design()),
        b'psu_id,stratum_id,weight,category_id,value\r\n"a,1",\xc3\xa9\xe5\xad\x97,1.0,x,'
        b'-0.0\r\n"b""2","d\r4",1e-05,"y,""z""",5e-324\r\n"c\n3","c\n3",1e+16,x,1e-05\r\n'
        b'"d\r4","b""2",5e-324,x,1.7976931348623157e+308\r\n\xc3\xa9\xe5\xad\x97,"a,1",2.5,'
        b'"y,""z""",1e+16\r\n',
    ),
}


class TestDialect:
    # Blocks of 1 and 2 rows split the five rows at every boundary.
    @pytest.mark.parametrize("block", [1, 2, sio._BLOCK_ROWS])
    @pytest.mark.parametrize("schema", sorted(SAVED_BYTES))
    def test_save_bytes(self, tmp_path, monkeypatch, schema, block):
        monkeypatch.setattr(sio, "_BLOCK_ROWS", block)
        save, expected = SAVED_BYTES[schema]
        save(tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == expected
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


@pytest.mark.parametrize(
    "header, columns, message",
    [
        (("a", "b"), [[1.0]], r"^2 header fields for columns of lengths \[1\]$"),
        (("a", "b"), [[1.0], ["x", "y"]], r"^2 header fields for columns of lengths \[1, 2\]$"),
    ],
    ids=["header-longer", "unequal-columns"],
)
def test_csv_text_needs_one_equal_length_column_per_header_field(header, columns, message):
    with pytest.raises(ValueError, match=message):
        next(sio.csv_text(header, columns, "\n"))


class TestOverlongField:
    """A field over the ``csv`` module's size limit is a fault of its line,
    found after any earlier fault in its block."""

    LONG = "x" * (csv.field_size_limit() + 1)
    ERROR = f"field larger than field limit ({csv.field_size_limit()})"

    # In blocks of 2 rows the long field is a block's first row (rows 1 and 3) or last (row 2).
    @pytest.mark.parametrize("block", [2, sio._BLOCK_ROWS])
    @pytest.mark.parametrize("row", [1, 2, 3])
    def test_composition(self, tmp_path, monkeypatch, block, row):
        monkeypatch.setattr(sio, "_BLOCK_ROWS", block)
        rows = [f"a{i},x,1" for i in range(4)]
        rows[row - 1] = f"{self.LONG},x,1"
        p = write(tmp_path, "c.csv", "area_id,category_id,count\n" + "\n".join(rows) + "\n")
        with pytest.raises(IngestError) as e:
            sio.load_composition(p)
        assert str(e.value) == f"{p}:{row + 1}: {self.ERROR}"

    def test_composition_header_and_earlier_fault(self, tmp_path):
        p = write(tmp_path, "head.csv", f"area_id,category_id,{self.LONG}\n")
        with pytest.raises(IngestError, match=rf"head\.csv:1: {re.escape(self.ERROR)}"):
            sio.load_composition(p)
        p = write(tmp_path, "neg.csv", f"area_id,category_id,count\na,x,-1\n{self.LONG},x,1\n")
        with pytest.raises(IngestError, match=r"neg\.csv:2: negative count -1"):
            sio.load_composition(p)

    def test_households(self, tmp_path):
        head = "household_id,area_id,subgroup_id,size,weight,ind_x\n"
        p = write(tmp_path, "hh.csv", head + f"h1,a,s,1,1.0,1\nh2,{self.LONG},s,1,1.0,1\n")
        with pytest.raises(IngestError) as e:
            sio.load_households(p)
        assert str(e.value) == f"{p}:3: {self.ERROR}"
        p = write(tmp_path, "hh2.csv", head + f"h1,a,s,1,1.0,2\nh2,{self.LONG},s,1,1.0,1\n")
        with pytest.raises(IngestError, match=r"hh2\.csv:2: ind_x must be 0, 1, or empty"):
            sio.load_households(p)


class _Unprintable:
    def __str__(self) -> str:
        raise RuntimeError("no text for this id")


def _unprintable_households() -> Households:
    """A household table whose id fails to print; only a table changed
    after its checks can hold one."""
    hh = Households(("h1",), ("a1",), ("s",), [1], [1.0], ("x",), [[True]], [[False]])
    object.__setattr__(hh, "household_ids", (_Unprintable(),))
    return hh


@pytest.mark.parametrize(
    "save, error",
    [
        (lambda p: sio.save_households(p, _unprintable_households()), RuntimeError),
        (lambda p: sio.save_margin(
            p, MarginVector(("ok", "\udc80"), np.ones(2), MarginLevel.SMALL_AREA, 0)),
         UnicodeEncodeError),
    ],
    ids=["str_raises", "not_utf8"],
)
def test_failed_save_keeps_previous_file(tmp_path, save, error):
    p = write(tmp_path, "out.csv", "previous contents\n")
    with pytest.raises(error):
        save(p)
    assert p.read_bytes() == b"previous contents\n"
    assert [q.name for q in tmp_path.iterdir()] == ["out.csv"]


def test_failed_stream_keeps_previous_file(tmp_path):
    """A write whose block iterator raises after its first block removes
    ``<path>.tmp`` and leaves the previous file byte-identical."""
    p = write(tmp_path, "out.csv", "previous contents\n")

    def blocks():
        yield "id,value\n"
        raise RuntimeError("second block failed")

    with pytest.raises(RuntimeError, match="second block failed"):
        sio.write_text(p, blocks())
    assert p.read_bytes() == b"previous contents\n"
    assert [q.name for q in tmp_path.iterdir()] == ["out.csv"]


def test_failed_save_after_first_block_keeps_previous_file(tmp_path, monkeypatch):
    monkeypatch.setattr(sio, "_BLOCK_ROWS", 1)
    hh = Households(("h1", "h2"), ("a1", "a1"), ("s", "s"), [1, 1], [1.0, 1.0], ("x",),
                    [[True], [False]], [[False], [False]])
    object.__setattr__(hh, "household_ids", ("h1", _Unprintable()))
    p = write(tmp_path, "out.csv", "previous contents\n")
    with pytest.raises(RuntimeError, match="no text for this id"):
        sio.save_households(p, hh)
    assert p.read_bytes() == b"previous contents\n"
    assert [q.name for q in tmp_path.iterdir()] == ["out.csv"]


class TestSplitText:
    """``csv_text`` on several CPUs, with blocks of 3 rows and at least 4
    rows (so 2 blocks) a range: the text of one process, byte for byte, and
    no child left on any path."""

    HEADER = ("id", "name", "value")

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids of the children forked; each must be reaped by the end
        of the test."""
        monkeypatch.setattr(sio, "_BLOCK_ROWS", 3)
        monkeypatch.setattr(sio, "_ROWS_PER_PROCESS", 4)
        pids, fork = [], os.fork

        def recorded():
            pids.append(fork())
            return pids[-1]

        monkeypatch.setattr(os, "fork", recorded)
        yield pids
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def columns(self, rows: int, name=lambda i: None) -> list:
        """Ids, names that need quoting (``name(i)`` where it is not None)
        and floats."""
        names = ['x,"y"', "two\nlines", "plain", "\u00e9\u5b57"]
        return [
            [f"a{i}" for i in range(rows)],
            [names[i % 4] if name(i) is None else name(i) for i in range(rows)],
            np.arange(rows) / 7 - 1e-300 * (np.arange(rows) % 2),
        ]

    # 0 rows; 7 rows end in a one-row block; 12 rows in 4 whole blocks; 26
    # rows in 8 whole blocks and a ragged one.
    @pytest.mark.parametrize("rows, splits", [(0, 1), (7, 1), (12, 2), (26, 4)])
    def test_every_process_count_gives_the_same_text(self, forks, monkeypatch, rows, splits):
        fake_cpus(monkeypatch, 1)
        want = "".join(sio.csv_text(self.HEADER, self.columns(rows), "\r\n"))
        assert len(want.splitlines()) > rows
        for cpus in (1, 2, 3, 4):
            del forks[:]
            fake_cpus(monkeypatch, cpus)
            got = "".join(sio.csv_text(self.HEADER, self.columns(rows), "\r\n"))
            assert got == want, cpus
            assert len(forks) == min(cpus, splits) - 1

    @pytest.mark.parametrize(
        "bad, error",
        [(_Unprintable(), RuntimeError), ("\udc80", UnicodeEncodeError)],
        ids=["str_raises", "not_utf8"],
    )
    # Row 3 opens the caller's second block; rows 10 and 11 are a child's
    # in four processes, row 25 in two and in four.
    @pytest.mark.parametrize("row", [3, 10, 11, 25])
    def test_an_error_is_that_of_one_process(self, tmp_path, forks, monkeypatch, bad, error, row):
        p = write(tmp_path, "out.csv", "previous contents\n")
        columns = self.columns(26, lambda i: bad if i == row else None)
        raised = []
        for cpus in (1, 2, 4):
            fake_cpus(monkeypatch, cpus)
            with pytest.raises(error) as e:
                sio.write_text(p, sio.csv_text(self.HEADER, columns, "\n"))
            raised.append((type(e.value), str(e.value)))
            assert p.read_bytes() == b"previous contents\n"
            assert [q.name for q in tmp_path.iterdir()] == ["out.csv"]
        assert raised == [raised[0]] * 3
        assert len(forks) == 1 + 3

    def test_a_generator_closed_early_leaves_no_child(self, forks, monkeypatch):
        fake_cpus(monkeypatch, 4)
        text = sio.csv_text(self.HEADER, self.columns(26), "\n")
        next(text), next(text)
        assert len(forks) == 3
        text.close()

    def test_a_caller_that_ignores_its_children_gets_the_same_text(self, forks, monkeypatch):
        # Children that have ended are reaped by the system, not by the writer.
        fake_cpus(monkeypatch, 1)
        want = "".join(sio.csv_text(self.HEADER, self.columns(26), "\n"))
        fake_cpus(monkeypatch, 4)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            assert "".join(sio.csv_text(self.HEADER, self.columns(26), "\n")) == want
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 3

    def test_this_process_holds_one_block_of_a_child_at_a_time(self, tmp_path, monkeypatch):
        # 80 blocks of about 16 kB: the child's 40 blocks come one at a time,
        # as this process's own do, not as one 0.65 MB text.
        rows = 80 * sio._BLOCK_ROWS
        columns = self.columns(rows)
        fake_cpus(monkeypatch, 1)
        want = "".join(sio.csv_text(self.HEADER, columns, "\n")).encode()
        fake_cpus(monkeypatch, 2)
        tracemalloc.start()
        try:
            sio.write_text(tmp_path / "out.csv", sio.csv_text(self.HEADER, columns, "\n"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "out.csv").read_bytes() == want
        assert peak < len(want) / 4


def recorded_forks(monkeypatch) -> list[int]:
    """The pids of the children forked from here on, through a wrapped ``os.fork``."""
    pids, fork = [], os.fork

    def recorded():
        pids.append(fork())
        return pids[-1]

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def assert_reaped(pids: list[int]) -> None:
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, 0)


def test_a_csv_splits_from_2048_rows_on_two_cpus(monkeypatch):
    # As the README says of every CSV spreekit writes.
    forks = recorded_forks(monkeypatch)
    for rows, splits in [(2047, 1), (2048, 2)]:
        columns = [[f"a{i}" for i in range(rows)], np.arange(rows) / 7]
        fake_cpus(monkeypatch, 1)
        want = "".join(sio.csv_text(("id", "value"), columns, "\n"))
        fake_cpus(monkeypatch, 2)
        del forks[:]
        assert "".join(sio.csv_text(("id", "value"), columns, "\n")) == want
        assert len(forks) == splits - 1
        assert_reaped(forks)


HOUSEHOLD_HEAD = ("household_id", "area_id", "subgroup_id", "size", "weight", "ind_x", "ind_y")
# Ids with a comma, a quote, a line break (LF and CRLF), multibyte UTF-8 and padding.
SPLIT_IDS = ["a", "b,c", 'q"x', "two\nlines", "cr\r\nlf", "é字", " pad "]
SPLIT_NUMBERS = ["0", "1.5", " 2 ", "1e-300", "12345678.125", "-0.0"]
# One bad field per kind, each a fault the loaders name.
SPLIT_FAULTS = {
    "households": ["", "0", "-1", "x", "2", "nan", "1\n2"],
    "pixels": ["-1", "nan", "abc", "é", "", "1\n2"],
}


@st.composite
def split_csv(draw, kind: str) -> bytes:
    """A household or pixel file: quoted fields with ``,``, ``"`` or a line
    break anywhere, LF or CRLF line ends, with or without a final line end,
    empty or header-only; and at most one fault, in its first, a middle or
    its last row, or a household id repeated from an earlier row."""
    if draw(st.integers(0, 19)) == 0:
        return b""
    rows = []
    for i in range(draw(st.integers(0, 24))):
        if kind == "households":
            hid = f"h{i}" + draw(st.sampled_from(["", *SPLIT_IDS]))
            ids = [draw(st.sampled_from(SPLIT_IDS)) for _ in range(2)]
            flags = [draw(st.sampled_from(["", "0", "1"])) for _ in range(2)]
            rows.append([hid, *ids, draw(st.sampled_from(["1", "3", " 2"])),
                         draw(st.sampled_from(SPLIT_NUMBERS[1:])), *flags])
        else:
            rows.append([draw(st.sampled_from(SPLIT_NUMBERS)) for _ in range(3)])
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(sorted({0, len(rows) // 2, len(rows) - 1})))
        if kind == "households" and draw(st.booleans()):
            rows[row][0] = rows[draw(st.integers(0, row))][0]
        else:
            rows[row][draw(st.integers(0, len(rows[row]) - 1))] = draw(
                st.sampled_from(SPLIT_FAULTS[kind]))
    out = io.StringIO()
    end = draw(st.sampled_from(["\n", "\r\n"]))
    writer = csv.writer(out, lineterminator=end,
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(HOUSEHOLD_HEAD if kind == "households" else ("lon", "lat", "value"))
    writer.writerows(rows)
    text = out.getvalue()
    if draw(st.booleans()):
        text = text[: -len(end)]
    return text.encode("utf-8")


def load_outcome(kind: str, path):
    """The loaded table's fields (arrays as dtype, shape and bytes), or the
    error's type and message."""
    try:
        if kind == "households":
            table = sio.load_households(path)
            # One str per distinct id, whichever process read it.
            for ids in (table.area_ids, table.subgroup_ids):
                assert len({id(i) for i in ids}) == len(set(ids))
        else:
            table = sio.load_pixels(path)
    except Exception as e:
        return type(e), str(e)
    return "ok", {
        name: (value.dtype, value.shape, value.tobytes()) if isinstance(value, np.ndarray)
        else value
        for name, value in vars(table).items()
    }


PIXEL_ROWS = [f"{k / 3!r},{k % 7},{k * 0.25!r}" for k in range(40)]
# Lines a pixel file may hold: plain numbers numpy takes, and lines the
# csv path reads otherwise or rejects.
PIXEL_LINES = [
    " 2 ,-0.0,1e-300", "\u00a01.5\x1c,2,3", "1.5,2", "1,2,3,", "1,,3", "1e400,2,3", "nan,1,2",
    "1,2,-3", "1.5,\x00,3", '"1.5",2,3', '"1,5",2,3', "1_0,2,3", "\u0661,2,3", "1,2,3\r4,5,6", "1,2,3\r",
    "", " ", "\ufefflon,lat,value", "lon, lat ,value",
]
PIXEL_ALPHABET = '0123456789.,-+e _"\r\n\t\x00\ufeff\u0661'


def pixel_text(rows, header="lon,lat,value", end="\n", final=True) -> str:
    return end.join([header, *rows]) + (end if final else "")


# A file, and whether numpy's reader gives rows for it, by name.
PIXEL_CASES = {
    "a_short_row": (pixel_text(PIXEL_ROWS[:30] + ["1.5,2"] + PIXEL_ROWS[31:]), False),
    "no_final_newline": (pixel_text(PIXEL_ROWS, final=False), True),
    "a_bom_header": (pixel_text(PIXEL_ROWS, "\ufefflon,lat,value"), False),
    "1e400": (pixel_text(PIXEL_ROWS[:30] + ["1e400,2,3"] + PIXEL_ROWS[31:]), True),
    "nul": (pixel_text(PIXEL_ROWS[:30] + ["1.5,\x00,3"] + PIXEL_ROWS[31:]), False),
    "a_trailing_blank_line": (pixel_text(PIXEL_ROWS + [""]), False),
    "a_lone_cr": (pixel_text(PIXEL_ROWS[:30] + ["1.5,2,3\r\r"] + PIXEL_ROWS[31:]), False),
    "a_quoted_field": (pixel_text(PIXEL_ROWS[:30] + ['"1.5",2,3'] + PIXEL_ROWS[31:]), False),
    "crlf_as_save_pixels_writes": ("".join(sio.csv_text(
        sio._PIXELS_HEADER, np.arange(120.0).reshape(3, 40) / 7, "\r\n"
    )), True),
    "only_the_header": ("lon,lat,value\r\n", False),
    "a_field_longer_than_the_csv_module_takes": (
        pixel_text(PIXEL_ROWS[:30] + ["0" * csv.field_size_limit() + "1.5,2,3"]), False
    ),
}


def csv_only_outcome(monkeypatch, path):
    """:func:`load_outcome` of a pixel file read by the csv path alone."""
    with monkeypatch.context() as m:
        m.setattr(sio, "_numbers", lambda *args: None)
        return load_outcome("pixels", path)


class TestSplitLoad:
    """``load_households`` and ``load_pixels`` on several CPUs, with
    a 1-byte range threshold (so a file is cut at line ends all through it)
    and blocks of 2 rows: the object, or the error, of one process, and no
    child left on any path."""

    @pytest.fixture
    def forks(self, monkeypatch):
        monkeypatch.setattr(sio, "_BLOCK_ROWS", 2)
        monkeypatch.setattr(sio, "_BYTES_PER_PROCESS", 1)
        pids = recorded_forks(monkeypatch)
        yield pids
        assert_reaped(pids)

    def reruns(self, monkeypatch, split: bool = False) -> list[int]:
        """A list that gets an entry each time a file is read in one
        process: by numpy's reader, by the households' range reader (a
        one-process load, or the rerun after a split fails) or by the
        pixels' csv path.  With ``split``, a read in several processes gets
        one too: its count of ranges."""
        reads = []

        def counted(read):
            def wrapped(*args):  # the ranges' bounds come last, where there are any
                ranges = len(args[-1]) - 1 if isinstance(args[-1], list) else 1
                if split or ranges == 1:
                    reads.append(ranges)
                return read(*args)

            return wrapped

        for name in ("_numbers", "_households", "_pixels"):
            monkeypatch.setattr(sio, name, counted(getattr(sio, name)))
        return reads

    @pytest.mark.parametrize("kind", ["households", "pixels"])
    @settings(
        max_examples=150,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_every_process_count_gives_the_one_process_load(
        self, tmp_path, forks, monkeypatch, kind, data
    ):
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(data.draw(split_csv(kind)))
        fake_cpus(monkeypatch, 1)
        want = load_outcome(kind, path)
        assert want[0] in ("ok", sio.IngestError)
        for cpus in (2, 3, 4):
            fake_cpus(monkeypatch, cpus)
            assert load_outcome(kind, path) == want, cpus

    def big(self, tmp_path, rows: int = 40, changed: dict[int, str] | None = None) -> Path:
        """A clean household file of ``rows`` rows, but for the ``changed``
        rows."""
        changed = changed or {}
        lines = [changed.get(i, f"h{i},a{i % 3},s,{1 + i % 4},1.5,1,") for i in range(rows)]
        return write(tmp_path, "hh.csv", "\n".join([",".join(HOUSEHOLD_HEAD), *lines]) + "\n")

    def test_a_range_that_ends_inside_a_quoted_field_fails(self, tmp_path):
        # Without ``strict`` the csv module would close the quote at the end
        # of the range and read the row as ['a', 'b\n'].
        path = write(tmp_path, "x.csv", 'a,"b\nc"\nd,e\n')
        end = path.read_bytes().index(b"\n") + 1
        with pytest.raises(sio.IngestError, match=r"x\.csv:1: unexpected end of data$"):
            list(sio._csv_blocks(path, 0, end))
        assert list(sio._csv_blocks(path, end)) == [[['c"']], [["d", "e"]]]
        assert list(sio._csv_blocks(path)) == [[["a", "b\nc"]], [["d", "e"]]]

    def test_a_clean_file_is_read_once_in_every_process(self, tmp_path, forks, monkeypatch):
        reruns = self.reruns(monkeypatch)
        path = self.big(tmp_path)
        fake_cpus(monkeypatch, 1)
        want = load_outcome("households", path)
        for cpus in (2, 3, 4):
            del forks[:]
            fake_cpus(monkeypatch, cpus)
            assert load_outcome("households", path) == want
            assert len(forks) == cpus - 1
        assert reruns == [1]  # the one-process load only

    def test_no_fork_while_another_thread_is_alive(self, tmp_path, forks, monkeypatch):
        # Each file is read once, in one process: the one-process table, for
        # the households and the pixels, and the one-process CSV text.
        reruns = self.reruns(monkeypatch)
        households = self.big(tmp_path)
        pixels = write(tmp_path, "px.csv", "lon,lat,value\n" + "".join(
            f"{k / 3!r},{k % 7},{k * 0.25!r}\n" for k in range(40)
        ))
        fake_cpus(monkeypatch, 1)
        want = [load_outcome("households", households), load_outcome("pixels", pixels)]
        columns = [[f"a{i}" for i in range(40)], np.arange(40) / 7]
        text = "".join(sio.csv_text(("id", "value"), columns, "\n"))
        fake_cpus(monkeypatch, 4)
        with another_thread_alive():
            got = [load_outcome("households", households), load_outcome("pixels", pixels)]
            assert "".join(sio.csv_text(("id", "value"), columns, "\n")) == text
        assert got == want and want[0][0] == want[1][0] == "ok"
        assert forks == [] and reruns == [1] * 4

    @pytest.mark.parametrize(
        "fault, message",
        [("1.5,2,-3", "negative value '-3'"), ("1.5,2", "expected 3 columns, got 2")],
        ids=["negative", "short"],
    )
    def test_a_fault_on_the_last_line_is_found_in_two_reads(
        self, tmp_path, forks, monkeypatch, fault, message
    ):
        # numpy's reader, then the csv path in one process: the error is the
        # csv path's.
        path = write(tmp_path, "px.csv", pixel_text(PIXEL_ROWS[:-1] + [fault]))
        reads = self.reruns(monkeypatch, split=True)
        for cpus, want in ((1, [1, 1]), (4, [4, 1])):
            del reads[:]
            fake_cpus(monkeypatch, cpus)
            with pytest.raises(sio.IngestError, match=rf"px\.csv:41: {message}$"):
                sio.load_pixels(path)
            assert reads == want

    def test_a_file_numpy_declines_is_read_by_the_csv_path_once_in_this_process(
        self, tmp_path, forks, monkeypatch
    ):
        # Only numpy's readers fork; the quoted field sends the file to the
        # csv path, which reads it once, here.
        path = write(tmp_path, "px.csv", PIXEL_CASES["a_quoted_field"][0])
        want = csv_only_outcome(monkeypatch, path)
        reads = self.reruns(monkeypatch, split=True)
        fake_cpus(monkeypatch, 4)
        assert load_outcome("pixels", path) == want and want[0] == "ok"
        assert reads == [4, 1] and len(forks) == 3

    @pytest.mark.parametrize(
        "text", ["", "lon,lat,value\n", "lon,lat,value\n\n", "lon,lat,value\n1,2,3\n\n\n\n\n\n"]
    )
    def test_an_empty_file_or_range_warns_of_nothing(self, tmp_path, forks, monkeypatch, text):
        path = write(tmp_path, "px.csv", text)
        want = csv_only_outcome(monkeypatch, path)
        for cpus in (1, 4):
            fake_cpus(monkeypatch, cpus)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert load_outcome("pixels", path) == want
            assert caught == []

    @pytest.mark.parametrize("case", PIXEL_CASES)
    def test_numpy_reads_a_file_as_the_csv_path_does(self, tmp_path, forks, monkeypatch, case):
        text, parsed = PIXEL_CASES[case]
        path = tmp_path / "px.csv"
        path.write_bytes(text.encode("utf-8"))
        fake_cpus(monkeypatch, 1)
        want = csv_only_outcome(monkeypatch, path)
        got, numbers = [], sio._numbers
        monkeypatch.setattr(sio, "_numbers", lambda *args: got.append(numbers(*args)) or got[-1])
        for cpus in (1, 4):
            fake_cpus(monkeypatch, cpus)
            assert load_outcome("pixels", path) == want, cpus
        assert [rows is not None for rows in got] == [parsed, parsed]

    @settings(
        max_examples=150,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_any_one_line_changed_reads_as_the_csv_path_reads(
        self, tmp_path, forks, monkeypatch, data
    ):
        rows = PIXEL_ROWS[: data.draw(st.integers(0, 12))]
        lines = ["lon,lat,value", *rows]
        k = data.draw(st.integers(0, len(lines)))  # past the end: one line more
        lines[k : k + 1] = [data.draw(st.one_of(
            st.sampled_from(PIXEL_LINES), st.text(PIXEL_ALPHABET, max_size=14)
        ))]
        end = data.draw(st.sampled_from(["\n", "\r\n"]))
        path = tmp_path / "px.csv"
        path.write_bytes(pixel_text(lines[1:], lines[0], end, data.draw(st.booleans())).encode())
        fake_cpus(monkeypatch, 1)
        want = csv_only_outcome(monkeypatch, path)
        assert want[0] in ("ok", sio.IngestError)
        for cpus in (1, 4):
            fake_cpus(monkeypatch, cpus)
            assert load_outcome("pixels", path) == want, cpus

    def test_no_fork_in_one_process_or_below_the_threshold(self, tmp_path, monkeypatch):
        forks = recorded_forks(monkeypatch)
        path = self.big(tmp_path, 30_000)
        assert path.stat().st_size > 2 * sio._BYTES_PER_PROCESS
        fake_cpus(monkeypatch, 1)
        sio.load_households(path)
        fake_cpus(monkeypatch, 4)
        monkeypatch.setattr(sio, "_BYTES_PER_PROCESS", path.stat().st_size // 2 + 1)
        sio.load_households(path)
        assert forks == []
        monkeypatch.setattr(sio, "_BYTES_PER_PROCESS", path.stat().st_size // 2)
        sio.load_households(path)
        assert len(forks) == 1
        assert_reaped(forks)

    # Row 0 is in this process's range, row 39 in the last child's; h5 in
    # row 39 repeats an id of the first range, which only this process sees.
    @pytest.mark.parametrize(
        "changed, message",
        [
            ({0: "h0,a,s,0,1.5,1,"}, r"hh\.csv:2: household size must be >= 1, got 0$"),
            ({39: "h39,a,s,1,1.5,1,7"}, r"hh\.csv:41: ind_y must be 0, 1, or empty, got '7'$"),
            ({39: "h5,a,s,1,1.5,1,"}, r"hh\.csv:41: duplicate household_id 'h5', first at line 7$"),
            ({39: 'h39,"a,s,1,1.5,1,'}, r"hh\.csv:41: expected 7 columns, got 2$"),
        ],
        ids=["this_process", "a_child", "an_id_in_two_ranges", "an_open_quote_at_the_end"],
    )
    def test_every_child_is_reaped_when_a_range_fails(self, tmp_path, forks, monkeypatch,
                                                      changed, message):
        reruns = self.reruns(monkeypatch)
        path = self.big(tmp_path, changed=changed)
        for cpus in (1, 4):
            fake_cpus(monkeypatch, cpus)
            with pytest.raises(sio.IngestError, match=message):
                sio.load_households(path)
        assert len(forks) == 3 and reruns == [1, 1]

    def test_a_child_lost_is_a_rerun(self, tmp_path, forks, monkeypatch):
        reruns = self.reruns(monkeypatch)
        path = self.big(tmp_path)
        parse_in = os.getpid()

        def lost(*args):  # the child dies without a result
            if os.getpid() != parse_in:
                os._exit(3)
            return csv_blocks(*args)

        csv_blocks = sio._csv_blocks
        monkeypatch.setattr(sio, "_csv_blocks", lost)
        fake_cpus(monkeypatch, 2)
        got = load_outcome("households", path)
        fake_cpus(monkeypatch, 1)
        assert got == load_outcome("households", path)
        assert len(forks) == 1 and reruns == [1, 1]


# Ingest memory: a load may hold, beyond the table it returns, one block of
# rows and the set of unique keys read so far, not the file's rows.
INGEST_ROWS = 200_000
INGEST_ALLOWANCE = 8 * 2**20


def held_bytes(table) -> int:
    """The bytes of a table's arrays, id tuples and distinct id strings."""
    total, strings = 0, {}
    for value in vars(table).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, tuple):
            total += sys.getsizeof(value)
            strings.update((id(s), s) for s in value)
    return total + sum(map(sys.getsizeof, strings.values()))


def traced_peak(load, path):
    tracemalloc.start()
    try:
        table = load(path)
        return table, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pixel_ingest_memory_is_bounded(tmp_path, monkeypatch):
    fake_cpus(monkeypatch, 1)  # every row read in this process, where it is traced
    g = np.random.default_rng(13)
    columns = (g.uniform(-180, 180, INGEST_ROWS), g.uniform(-90, 90, INGEST_ROWS),
               g.integers(0, 200, INGEST_ROWS).astype(float))
    path = tmp_path / "pixels.csv"
    rows = (f"{x!r},{y!r},{v!r}\n" for x, y, v in zip(*(c.tolist() for c in columns)))
    path.write_text("lon,lat,value\n" + "".join(rows), encoding="utf-8")
    px, peak = traced_peak(sio.load_pixels, path)
    assert len(px) == INGEST_ROWS
    assert peak < held_bytes(px) + INGEST_ALLOWANCE


def test_household_ingest_memory_is_bounded(tmp_path, monkeypatch):
    fake_cpus(monkeypatch, 1)  # every row read in this process, where it is traced
    g = np.random.default_rng(17)
    area = g.integers(0, 500, INGEST_ROWS).tolist()
    group = g.integers(0, 4, INGEST_ROWS).tolist()
    size = g.integers(1, 9, INGEST_ROWS).tolist()
    weight = g.uniform(0.5, 3.0, INGEST_ROWS).tolist()
    flags = [",".join(row) for row in np.where(g.random((INGEST_ROWS, 9)) < 0.3, "1", "0")]
    path = tmp_path / "households.csv"
    head = "household_id,area_id,subgroup_id,size,weight," + ",".join(f"ind_{k}" for k in range(9))
    rows = (f"h{i},A{a},G{s},{n},{w!r},{f}\n"
            for i, (a, s, n, w, f) in enumerate(zip(area, group, size, weight, flags)))
    path.write_text(head + "\n" + "".join(rows), encoding="utf-8")
    # The peak while the file is read, then the peak from when the loader
    # hands its columns to the table.
    reading, adopt = [], Households._adopt.__func__

    def handed(cls, *columns):
        reading.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return adopt(cls, *columns)

    monkeypatch.setattr(Households, "_adopt", classmethod(handed))
    hh, peak = traced_peak(sio.load_households, path)
    assert len(hh) == INGEST_ROWS and len(set(hh.area_ids)) == 500
    # Reading holds the keys read so far as a dict.  The table keeps the
    # loader's columns uncopied, so building and checking it stays below
    # reading.
    keys = sys.getsizeof(dict.fromkeys(hh.household_ids))
    assert reading[0] < held_bytes(hh) + keys + INGEST_ALLOWANCE
    assert peak < reading[0]
    # Repeated ids share one string.
    assert len({id(a) for a in hh.area_ids}) == 500
