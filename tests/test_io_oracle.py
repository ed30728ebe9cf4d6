"""Every columnar ``spreekit.io`` loader against the row-by-row oracle.

On valid and malformed files (wrong widths, empty ids, duplicate keys,
non-numbers, non-finite and negative values, bad ints and flags, padded
and quoted fields, several faults at once) the loader must return the
oracle's object, bit for bit, or raise the oracle's exception with the
same message.  The one difference allowed: the household size and weight
errors, which the oracle raises without a line, now name their line.
"""

from __future__ import annotations

import csv
import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import io_oracle
from spreekit import io as sio

IDS = ["a", "b", "c", "a,1", 'q"x', "é"]
NUMBERS = ["0", "1", "2.5", "0.1", "1e-300", "12345678.125", "-0.0", "4.9e-324"]
ST_NUMBER = st.one_of(
    st.sampled_from(NUMBERS),
    st.floats(min_value=0, max_value=1e300).map(repr),
)
BAD_NUMBERS = ["-1", "-2.5e3", "nan", "NaN", "inf", "-inf", "1e999", "abc", "", "1,5", "0x10", "1_0", "١"]

# kind -> (good values, extra bad values)
KINDS = {
    "id": (st.sampled_from(IDS), st.sampled_from(["", "  "])),
    "number": (ST_NUMBER, st.sampled_from(BAD_NUMBERS)),
    "coord": (
        st.one_of(ST_NUMBER, st.sampled_from(["-1", "-179.5"])),
        st.sampled_from(["nan", "inf", "-inf", "abc", ""]),
    ),
    "year": (st.sampled_from(["2013", "2014", " 2015"]), st.sampled_from(["20x3", "", "2013.0", "1e3"])),
    "size": (st.sampled_from(["1", "2", "7", " 3"]), st.sampled_from(["0", "-1", "x", "1.5", "", "0", "-2"])),
    "weight": (
        st.one_of(st.sampled_from(["1", "0.5", "2.5"]), st.floats(min_value=1e-3, max_value=1e6).map(repr)),
        st.sampled_from(["0", "-1", "-0.0", "nan", "inf", "w", "", "0", "-3"]),
    ),
    "flag": (st.sampled_from(["", "0", "1"]), st.sampled_from(["2", "yes", "01", "-"])),
}

# name -> (new loader, oracle loader, header, column kinds, key columns)
LOADERS = {
    "composition": (
        sio.load_composition, io_oracle.load_composition,
        ("area_id", "category_id", "count"), ("id", "id", "number"), (0, 1),
    ),
    "margin": (sio.load_margin, io_oracle.load_margin, ("id", "value"), ("id", "number"), (0,)),
    "hierarchy": (
        sio.load_hierarchy, io_oracle.load_hierarchy, ("small_id", "large_id"), ("id", "id"), (0,),
    ),
    "projections": (
        sio.load_projections, io_oracle.load_projections,
        ("large_id", "year", "population"), ("id", "year", "number"), (0, 1),
    ),
    "pixels": (
        sio.load_pixels, io_oracle.load_pixels, ("lon", "lat", "value"), ("coord", "coord", "number"), (),
    ),
    "design": (
        sio.load_design, io_oracle.load_design,
        ("psu_id", "stratum_id", "weight", "category_id", "value"),
        ("id", "id", "weight", "id", "number"), (),
    ),
    "households": (
        sio.load_households, io_oracle.load_households,
        ("household_id", "area_id", "subgroup_id", "size", "weight"),
        ("id", "id", "id", "size", "weight"), (0,),
    ),
}

HOUSEHOLD_FLAG_HEADERS = [(), ("ind_x",), ("ind_x", "ind_y", "ind_z")] * 3 + [("ind_x", "ind_x"), ("flag_x",)]
PADS = ["", "", "", "", " ", "\x1c", "  ", "\t"]


@st.composite
def csv_files(draw, name: str) -> str:
    _, _, header, kinds, keys = LOADERS[name]
    header = list(header)
    kinds = list(kinds)
    if name == "households":
        flags = draw(st.sampled_from(HOUSEHOLD_FLAG_HEADERS))
        header += flags
        kinds += ["flag"] * len(flags)
    faulty = draw(st.booleans())
    # A faulty file has most of its faults in one column, so that every
    # column's checks get to report the first fault.
    hot = draw(st.sampled_from(range(len(kinds))))

    def field(k: int, kind: str) -> str:
        good, bad = KINDS[kind]
        roll = draw(st.integers(0, 99))
        value = draw(bad if faulty and roll < (33 if k == hot else 3) else good)
        return PADS[roll % 8] + value + PADS[roll // 8 % 8]

    rows = [[field(k, kind) for k, kind in enumerate(kinds)] for _ in range(draw(st.integers(0, 8)))]
    if keys and not faulty:  # a clean file has unique keys
        by_key = {}
        for row in rows:
            by_key.setdefault(tuple(row[c].strip() for c in keys), row)
        rows = list(by_key.values())
    for row in rows if faulty else ():
        cut = draw(st.integers(0, 40))
        if cut < len(row):
            del row[cut:]
        elif cut == 40:
            row.append("extra")
    head = draw(st.sampled_from(["plain"] * 8 + ["padded", "wrong"])) if faulty else "plain"
    if head == "padded":
        header = [f" {h} " for h in header]
    elif head == "wrong":
        header = header[::-1]
    out = io.StringIO()
    w = csv.writer(
        out,
        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])),
        lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
    )
    w.writerow(header)
    w.writerows(rows)
    return out.getvalue()


def same(got, want) -> bool:
    """Equal objects, with every float and float array equal bit for bit."""
    if type(got) is not type(want):
        return False
    if isinstance(want, np.ndarray):
        if got.dtype != want.dtype or got.shape != want.shape:
            return False
        if want.dtype.kind == "f":
            return got.tobytes() == want.tobytes()
        return got.tolist() == want.tolist()
    if isinstance(want, float):
        return got.hex() == want.hex()
    if isinstance(want, dict):
        return list(got) == list(want) and all(same(got[k], want[k]) for k in want)
    if isinstance(want, (tuple, list)):
        return len(got) == len(want) and all(map(same, got, want))
    if hasattr(want, "__dict__"):
        return same(vars(got), vars(want))
    return got == want


LINE_ADDED = re.compile(r":\d+(: (household size must be >= 1|weight must be positive), got )")


def outcome(load, path):
    try:
        return "ok", load(path)
    except Exception as e:  # compared by type and message
        return type(e), str(e)


def assert_matches_oracle(name: str, path) -> None:
    new, oracle, *_ = LOADERS[name]
    got_kind, got = outcome(new, path)
    want_kind, want = outcome(oracle, path)
    assert got_kind is want_kind
    if want_kind == "ok":
        assert same(got, want)
    else:
        assert LINE_ADDED.sub(r"\1", got) == want


@pytest.mark.parametrize("name", list(LOADERS))
@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_loader_matches_row_by_row_oracle(tmp_path, name, data):
    path = tmp_path / f"{name}.csv"
    path.write_text(data.draw(csv_files(name)), encoding="utf-8", newline="")
    assert_matches_oracle(name, path)


def test_household_size_and_weight_errors_name_their_line(tmp_path):
    head = "household_id,area_id,subgroup_id,size,weight,ind_x\n"
    path = tmp_path / "hh.csv"
    path.write_text(head + "h1,a,s,1,1.0,1\nh2,a,s,0,1.0,1\n", encoding="utf-8")
    with pytest.raises(sio.IngestError, match=r"hh\.csv:3: household size must be >= 1, got 0$"):
        sio.load_households(path)
    path.write_text(head + "h1,a,s,1,-2,1\n", encoding="utf-8")
    with pytest.raises(sio.IngestError, match=r"hh\.csv:2: weight must be positive, got -2.0$"):
        sio.load_households(path)


# Files whose faults sit where the property rarely puts them: two faults
# in one row, or a later row's fault behind an earlier row's.
HAND_WRITTEN = [
    ("households", "household_id,area_id,subgroup_id,size,weight,ind_x\nh1,a,s,1,1,1\nh2,a,s,0,1,1\nh3,a,s,1,1,2\n"),
    ("households", "household_id,area_id,subgroup_id,size,weight,ind_x\nh1,a,s,0,0,1\n"),
    ("households", "household_id,area_id,subgroup_id,size,weight,ind_x\nh1,a,s,1,0,1\nh2,a,s,0,1,1\n"),
    ("households", "household_id,area_id,subgroup_id,size,weight,ind_x\nh1,a,s,0,1,yes\n"),
    ("households", "household_id,area_id,subgroup_id,size,weight,ind_x,ind_y\nh1,a,s, 2 ,1,1, 0 \nh1,a,s,x,1,,\n"),
    ("households", "household_id,area_id,subgroup_id,size,weight\nh1,a,s,2,1\nh2,a,,3,2.5\n"),
    ("projections", "large_id,year,population\nk,2013,5\nk, 2013 ,6\n"),
    ("projections", "large_id,year,population\nk,2013, -1 \nk,20x3,6\n"),
    ("projections", "large_id,year,population\nk,2013,5\nl,2014\nk,2013,1\n"),
    ("composition", "area_id,category_id,count\na,x,1\na,x,-1\n"),
    ("composition", "area_id,category_id,count\na,x,1\nb,x,nan\na,x,2\n"),
    ("composition", 'area_id,category_id,count\n"a,1",x,1\n" a,1 ",y,2\n'),
    ("margin", "id,value\nk,1\nk,abc\n"),
    ("margin", "id,value\nk,1\nl,-0.0\nm,1e-320\n"),
    ("pixels", "lon,lat,value\nx,inf,-1\n"),
    ("pixels", "lon,lat,value\n1,2,3\n1,2\n1,2,-3\n"),
    ("design", "psu_id,stratum_id,weight,category_id,value\np,s,1,c,1\np,s,inf,,x\n"),
    ("design", "psu_id,stratum_id,weight,category_id,value\np,s,-1,c,1\n"),
    ("hierarchy", "small_id,large_id\na,g\n\na,h\n"),
]


@pytest.mark.parametrize("name, text", HAND_WRITTEN)
def test_hand_written_faults_match_oracle(tmp_path, name, text):
    path = tmp_path / f"{name}.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert_matches_oracle(name, path)


# Block sizes small enough that the generated files span several blocks.
SMALL_BLOCKS = [2, 3]


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@pytest.mark.parametrize("name", list(LOADERS))
@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(data=st.data())
def test_blocks_match_whole_file(tmp_path, monkeypatch, name, block, data):
    """Read in blocks of 2 or 3 rows, every loader returns what it returns
    reading the file as one block, or raises the same message and line;
    both agree with the row-by-row oracle."""
    new = LOADERS[name][0]
    path = tmp_path / f"{name}.csv"
    path.write_text(data.draw(csv_files(name)), encoding="utf-8", newline="")
    whole_kind, whole = outcome(new, path)
    monkeypatch.setattr(sio, "_BLOCK_ROWS", block)
    got_kind, got = outcome(new, path)
    assert got_kind is whole_kind
    assert same(got, whole) if got_kind == "ok" else got == whole
    assert_matches_oracle(name, path)


# At two rows a block: data rows 1-2 are lines 2-3, rows 3-4 lines 4-5, ...
BLOCK_FAULTS = [
    # A repeated key whose first occurrence is in an earlier block.
    ("margin", "id,value\na,1\nb,2\nc,3\na,4\n", "5: duplicate id 'a', first at line 2"),
    ("households",
     "household_id,area_id,subgroup_id,size,weight\nh1,a,s,1,1\nh2,a,s,1,1\nh3,a,s,1,1\nh2,b,s,1,1\n",
     "5: duplicate household_id 'h2', first at line 3"),
    ("composition", "area_id,category_id,count\na,x,1\na,y,2\nb,x,3\nb,y,4\nb,x,5\n",
     "6: duplicate cell (b,x), first at line 4"),
    ("projections", "large_id,year,population\nk,2013,1\nk,2014,2\nl,2013,3\nk, 2014 ,4\n",
     "5: duplicate (k,2014), first at line 3"),
    # A width fault in a later block, behind clean blocks.
    ("pixels", "lon,lat,value\n1,2,3\n1,2,3\n1,2,3\n1,2,3\n1,2\n", "6: expected 3 columns, got 2"),
    ("design",
     "psu_id,stratum_id,weight,category_id,value\np,s,1,c,1\np,s,1,d,1\nq,s,1,c,1\nq,s,1,d,1\nr,s,1,c\n",
     "6: expected 5 columns, got 4"),
    # A fault on a block's first row, and one on its last row.
    ("hierarchy", "small_id,large_id\na,g\nb,g\n,g\nd,h\n", "4: empty small_id or large_id"),
    ("margin", "id,value\na,1\nb,2\nc,3\nd,-4\n", "5: negative value -4 for 'd'"),
    # A later block whose first row repeats a key and whose last row has an
    # earlier-stated fault: the first row's fault is the file's first.
    ("margin", "id,value\na,1\nb,2\nb,3\n,4\n", "4: duplicate id 'b', first at line 3"),
]


@pytest.mark.parametrize("name, text, fault", BLOCK_FAULTS)
def test_faults_across_block_boundaries(tmp_path, monkeypatch, name, text, fault):
    monkeypatch.setattr(sio, "_BLOCK_ROWS", 2)
    path = tmp_path / f"{name}.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.raises(sio.IngestError) as raised:
        LOADERS[name][0](path)
    assert str(raised.value) == f"{path}:{fault}"
    assert_matches_oracle(name, path)
