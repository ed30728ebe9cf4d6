"""Regenerate every file under fixtures/.

All content is deterministic (no RNG), so re-running this script leaves
the checked-in files byte-identical.  Run from the repository root:

    python3 fixtures/generate.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from spreekit import AreaHierarchy, Composition, MarginLevel, MarginVector
from spreekit import io as sio
from spreekit.bootstrap import SurveyDesign

HERE = Path(__file__).parent
MINI = HERE / "mini"

AREAS = ("a1", "a2", "a3", "a4")
CATEGORIES = ("poor", "non-poor")


def mini_country() -> None:
    MINI.mkdir(exist_ok=True)
    census_2002 = Composition(
        AREAS,
        CATEGORIES,
        np.array([[400.0, 600.0], [300.0, 700.0], [550.0, 450.0], [200.0, 800.0]]),
        0,
    )
    sio.save_composition(MINI / "census2002.csv", census_2002)
    # A later census consistent with the 2013 projections (K 2200, L 2100).
    census_2013 = Composition(
        AREAS,
        CATEGORIES,
        np.array([[520.0, 640.0], [310.0, 730.0], [600.0, 470.0], [200.0, 830.0]]),
        1,
    )
    sio.save_composition(MINI / "census2013.csv", census_2013)

    hierarchy = AreaHierarchy.from_pairs(
        [("a1", "K"), ("a2", "K"), ("a3", "L"), ("a4", "L")]
    )
    sio.save_hierarchy(MINI / "hierarchy.csv", hierarchy)

    sio.save_by_year(
        MINI / "projections.csv",
        {
            2013: MarginVector(
                ("K", "L"), np.array([2200.0, 2100.0]), MarginLevel.LARGE_AREA, 2013
            )
        },
        ("large_id", "year", "population"),
    )
    sio.save_margin(
        MINI / "large_totals.csv",
        MarginVector(("K", "L"), np.array([2200.0, 2100.0]), MarginLevel.LARGE_AREA),
    )
    # Survey margin totals equal the projection total (4300), so the default
    # reconciliation is a no-op and fitted column margins reproduce this file.
    sio.save_margin(
        MINI / "survey_margin.csv",
        MarginVector(CATEGORIES, np.array([1500.0, 2800.0]), MarginLevel.CATEGORY),
    )
    sio.save_by_year(
        MINI / "aux.csv",
        {
            2013: MarginVector(
                AREAS,
                np.array([1150.0, 1050.0, 1100.0, 1000.0]),
                MarginLevel.SMALL_AREA,
                2013,
            )
        },
        ("small_id", "year", "population"),
    )

    poor_by_psu = {"K": (38, 33, 36, 31), "L": (37, 34, 32, 39)}
    psu, stratum, weight, category, value = [], [], [], [], []
    for region, poor_counts in poor_by_psu.items():
        for i, poor in enumerate(poor_counts):
            for cat, count in zip(CATEGORIES, (poor, 100 - poor)):
                psu.append(f"{region}-P{i + 1}")
                stratum.append(region)
                weight.append(5.375)
                category.append(cat)
                value.append(float(count))
    design = SurveyDesign(
        np.asarray(psu, dtype=object),
        np.asarray(stratum, dtype=object),
        np.asarray(weight, dtype=float),
        np.asarray(category, dtype=object),
        np.asarray(value, dtype=float),
    )
    sio.save_design(MINI / "design.csv", design)


def plans() -> None:
    with open(HERE / "shock.json", "w", encoding="utf-8") as f:
        json.dump(
            {"scenario": {"replicates": 40, "aux_pool_size": 60, "seed": 20250823}},
            f,
            indent=2,
        )
        f.write("\n")
    with open(HERE / "mini_plan.json", "w", encoding="utf-8") as f:
        json.dump(
            {
                "truth_t0": "mini/census2002.csv",
                "truth_t": "mini/census2013.csv",
                "hierarchy": "mini/hierarchy.csv",
                "large_totals": "mini/large_totals.csv",
                "design": "mini/design.csv",
                "aux_pool": ["mini/aux_replicate.csv"],
                "replicates": 10,
                "seed": 3,
            },
            f,
            indent=2,
        )
        f.write("\n")
    sio.save_margin(
        MINI / "aux_replicate.csv",
        MarginVector(
            AREAS, np.array([1240.0, 960.0, 1270.0, 1030.0]), MarginLevel.SMALL_AREA
        ),
    )


def dakar() -> None:
    # Regional headcount readout per 1000 persons: 51.8% overall, 50.3% in
    # the female-headed subgroup.
    rows = Composition(
        ("dakar", "dakar-female"),
        CATEGORIES,
        np.array([[518.0, 482.0], [503.0, 497.0]]),
        0,
    )
    sio.save_composition(HERE / "dakar.csv", rows)


def pixels_and_polygons() -> None:
    lines = ["lon,lat,value"]
    v = 1
    for y in range(10):
        for x in range(10):
            lines.append(f"{x + 0.5},{y + 0.5},{v}")
            v += 1
    (HERE / "pixels10.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    def rect(area_id: str, x0: float, y0: float, x1: float, y1: float) -> dict:
        return {
            "type": "Feature",
            "properties": {"area_id": area_id},
            "geometry": {
                "type": "Polygon",
                "coordinates": [
                    [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]
                ],
            },
        }

    for name, features in (
        ("polygons_vertical.geojson", [rect("west", 0, 0, 5, 10), rect("east", 5, 0, 10, 10)]),
        ("polygons_horizontal.geojson", [rect("south", 0, 0, 10, 5), rect("north", 0, 5, 10, 10)]),
    ):
        with open(HERE / name, "w", encoding="utf-8") as f:
            json.dump({"type": "FeatureCollection", "features": features}, f, indent=2)
            f.write("\n")


def households() -> None:
    indicators = (
        "child_mortality",
        "years_of_schooling",
        "school_attendance",
        "cooking_fuel",
        "sanitation",
        "drinking_water",
        "electricity",
        "housing",
        "assets",
    )
    header = "household_id,area_id,subgroup_id,size,weight," + ",".join(
        f"ind_{i}" for i in indicators
    )
    rows = [
        "h1,a1,female,5,1.0,1,0,0,0,0,0,0,0,0",
        "h2,a1,male,3,1.0,0,1,1,0,0,0,0,0,0",
        "h3,a2,female,2,1.0,0,0,0,1,1,1,0,0,0",
    ]
    (HERE / "households3.csv").write_text(
        header + "\n" + "\n".join(rows) + "\n", encoding="utf-8"
    )
    profile = {
        "indicators": [
            {"id": "child_mortality", "weight": "1/3"},
            {"id": "years_of_schooling", "weight": "1/6"},
            {"id": "school_attendance", "weight": "1/6"},
            {"id": "cooking_fuel", "weight": "1/18"},
            {"id": "sanitation", "weight": "1/18"},
            {"id": "drinking_water", "weight": "1/18"},
            {"id": "electricity", "weight": "1/18"},
            {"id": "housing", "weight": "1/18"},
            {"id": "assets", "weight": "1/18"},
        ],
        "cutoff": "1/3",
    }
    with open(HERE / "profile9.json", "w", encoding="utf-8") as f:
        json.dump(profile, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    mini_country()
    plans()
    dakar()
    pixels_and_polygons()
    households()
    print("fixtures regenerated under", HERE)
