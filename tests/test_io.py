from fractions import Fraction

import numpy as np
import pytest

from spreekit import (
    AreaHierarchy,
    Composition,
    HouseholdRecord,
    IngestError,
    MarginLevel,
    MarginVector,
    MpiProfile,
    PixelTable,
    SimulationPlan,
)
from spreekit import io as sio

from conftest import FIXTURES


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
        records = sio.load_households(FIXTURES / "households3.csv", profile)
        assert len(records) == 3
        assert records[0].household_id == "h1"
        assert records[0].deprivations["child_mortality"] is True
        assert records[0].deprivations["assets"] is False

    def test_round_trip_with_missing_flags(self, tmp_path):
        inds = ("x", "y")
        r = HouseholdRecord("h1", "a1", "s", 2, {"x": True, "y": None}, 1.5)
        p = tmp_path / "hh.csv"
        sio.save_households(p, [r], inds)
        back = sio.load_households(p)
        assert back[0].deprivations == {"x": True, "y": None}
        assert back[0].weight == 1.5
        assert back[0].size == 2

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
        px = PixelTable.from_rows([(0.5, 0.25, 1.0 / 3.0), (1.5, 2.5, 7.0)])
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
        np.testing.assert_array_equal(back.psu_totals(), d.psu_totals())

    def test_design_errors(self, tmp_path):
        head = "psu_id,stratum_id,weight,category_id,value\n"
        p = write(tmp_path, "d.csv", head + "p,s,0,c,1\n")
        with pytest.raises(IngestError, match="positive"):
            sio.load_design(p)
        p2 = write(tmp_path, "d2.csv", head + ",s,1,c,1\n")
        with pytest.raises(IngestError, match=r"d2\.csv:2: empty psu_id"):
            sio.load_design(p2)

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
