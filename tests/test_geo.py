import json
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreekit import AreaPolygonSet, PixelTable, aggregate_pixels
from spreekit import geo
from spreekit import io as sio

from conftest import FIXTURES, fake_cpus, report_bits


def grid_pixels():
    return sio.load_pixels(FIXTURES / "pixels10.csv")


def area_contains(lon, lat, polygons):
    """Containment in a (multi)polygon of points in any order, through the
    kernel that takes them sorted by latitude."""
    lon, lat = np.asarray(lon, dtype=float), np.asarray(lat, dtype=float)
    by_lat = np.argsort(lat)
    inside = np.empty(len(lat), dtype=bool)
    inside[by_lat] = geo._contains_sorted(lon[by_lat], lat[by_lat], polygons)
    return inside


def vertical_split():
    return sio.load_polygons(FIXTURES / "polygons_vertical.geojson")


def horizontal_split():
    return sio.load_polygons(FIXTURES / "polygons_horizontal.geojson")


def rectangle_oracle(px, x0, y0, x1, y1):
    """Half-open [x0, x1) x [y0, y1) sum, matching first-in-id-order
    assignment for axis-aligned adjacent rectangles."""
    total = 0.0
    for lon, lat, v in zip(px.lon, px.lat, px.value):
        if x0 <= lon < x1 and y0 <= lat < y1:
            total += v
    return total


def convex_polygon(rng, n_vertices, radius=4.0, center=(5.0, 5.0)):
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n_vertices))
    xs = center[0] + radius * np.cos(angles)
    ys = center[1] + radius * np.sin(angles)
    ring = np.column_stack([np.append(xs, xs[0]), np.append(ys, ys[0])])
    return ring


def halfplane_oracle(ring, lon, lat):
    """Convex containment: point lies on the inner side of every edge.

    Vertices are in counter-clockwise order (sorted angles), so inside
    means all cross products are positive.
    """
    for (x1, y1), (x2, y2) in zip(ring[:-1], ring[1:]):
        if (x2 - x1) * (lat - y1) - (y2 - y1) * (lon - x1) <= 0:
            return False
    return True


def reference_ring(lon, lat, ring):
    """Oracle: the even-odd crossing test, one edge at a time."""
    inside = np.zeros(len(lon), dtype=bool)
    for ex1, ey1, ex2, ey2 in zip(ring[:-1, 0], ring[:-1, 1], ring[1:, 0], ring[1:, 1]):
        if ey1 == ey2:
            continue
        straddles = (ey1 > lat) != (ey2 > lat)
        with np.errstate(invalid="ignore"):
            x_cross = ex1 + (lat - ey1) * (ex2 - ex1) / (ey2 - ey1)
        inside ^= straddles & (lon < x_cross)
    return inside


def reference_contains(lon, lat, polygons):
    inside = np.zeros(len(lon), dtype=bool)
    for polygon in polygons:
        odd = np.zeros(len(lon), dtype=bool)
        for ring in polygon:
            odd ^= reference_ring(lon, lat, ring)
        inside |= odd
    return inside


def reference_aggregate(px, polys):
    """Oracle: every open pixel against every area, in id order."""
    ordered = sorted(polys.area_ids)
    assignment = np.full(len(px), -1, dtype=int)
    for pos, area in enumerate(ordered):
        open_mask = assignment < 0
        hit = reference_contains(px.lon[open_mask], px.lat[open_mask], polys.polygons[area])
        assignment[np.flatnonzero(open_mask)[hit]] = pos
    sums = np.array([px.value[assignment == pos].sum() for pos in range(len(ordered))])
    return assignment, sums


def aggregate_on(cpus, px, polys):
    """``aggregate_pixels`` with one area a range on ``cpus`` faked CPUs;
    on more than one it must fork a child for each range but the first and
    give every bit that one CPU gives."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geo, "_AREAS_PER_PROCESS", 1)
        fake_cpus(mp, 1)
        alone = aggregate_pixels(px, polys)
        if cpus == 1:
            return alone
        fake_cpus(mp, cpus)
        forks, fork = [], os.fork
        mp.setattr(os, "fork", lambda: forks.append(1) or fork())
        split = aggregate_pixels(px, polys)
    assert len(forks) == min(cpus, len(polys.area_ids)) - 1
    assert report_bits(split) == report_bits(alone)
    return split


CPUS = pytest.mark.parametrize("cpus", [1, 4], ids=["one_cpu", "four_cpus"])


def closed(points):
    ring = np.asarray(points, dtype=float)
    return np.vstack([ring, ring[:1]])


def adversarial_areas():
    """Horizontal edges, a hole, a multipolygon, overlaps, a concave ring
    with vertices on shared latitudes, and coordinates that do not round
    trip through binary (0.1, 0.3)."""
    return AreaPolygonSet({
        "a_square": ((closed([(0, 0), (1, 0), (1, 1), (0, 1)]),),),
        "b_holed": ((
            closed([(2, 0), (6, 0), (6, 4), (2, 4)]),
            closed([(3, 1), (5, 1), (5, 3), (3, 3)]),
        ),),
        "c_multi": (
            (closed([(0.1, 2.0), (1.3, 2.0), (0.7, 3.3)]),),
            (closed([(7.0, 0.1), (8.0, 0.3), (7.5, 1.7)]),),
        ),
        "d_overlap": ((closed([(0.5, 0.5), (2.5, 0.5), (2.5, 3.5), (0.5, 3.5)]),),),
        "e_zigzag": ((closed([
            (4.0, 5.0), (5.0, 6.0), (6.0, 5.0), (7.0, 6.0), (7.0, 7.3),
            (6.0, 6.0), (5.0, 7.3), (4.1, 6.0), (4.0, 6.0),
        ]),),),
        # Crossings at the extreme vertex's latitude round past the box.
        "f_rounds_right": ((closed(ROUNDS_RIGHT),),),
        "g_rounds_left": ((closed(ROUNDS_LEFT),),),
    })


# The first edge of each ends at the ring's extreme-longitude vertex; at
# that vertex's latitude its crossing rounds to 0.10000000000000009 > 0.1
# and -0.10000000000000031 < -0.1, so a point one ulp outside the box has
# an odd crossing count.
ROUNDS_RIGHT = [(-1.2, 52.4), (0.1, 50.7), (-1.2, 49.0)]
ROUNDS_LEFT = [(1.5, -10.7), (-0.1, -12.2), (1.5, -13.0)]


def probe_points(polys, rng):
    """Every vertex, its ulp neighbours in both axes, edge midpoints, the
    corners and side midpoints of every bounding box, plus random points."""
    pts = []
    for polygons in polys.polygons.values():
        vertices = np.concatenate([ring for polygon in polygons for ring in polygon])
        for polygon in polygons:
            for ring in polygon:
                pts.extend(ring.tolist())
                pts.extend(((ring[:-1] + ring[1:]) / 2).tolist())
        (x0, y0), (x1, y1) = vertices.min(axis=0), vertices.max(axis=0)
        xm, ym = (x0 + x1) / 2, (y0 + y1) / 2
        pts += [(x, y) for x in (x0, xm, x1) for y in (y0, ym, y1)]
    base = np.array(pts)
    out = [base]
    for axis in (0, 1):
        for direction in (-np.inf, np.inf):
            moved = base.copy()
            moved[:, axis] = np.nextafter(moved[:, axis], direction)
            out.append(moved)
    lo, hi = base.min(axis=0) - 0.5, base.max(axis=0) + 0.5
    out.append(rng.uniform(lo, hi, size=(400, 2)))
    pts = np.concatenate(out)
    return pts[:, 0], pts[:, 1]


class TestContainment:
    def test_unit_square(self):
        ring = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        lon = np.array([0.5, 1.5, -0.2, 0.99, 0.5])
        lat = np.array([0.5, 0.5, 0.5, 0.01, 1.7])
        got = area_contains(lon, lat, ((ring,),))
        assert got.tolist() == [True, False, False, True, False]

    def test_hole_is_excluded(self):
        outer = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0], [0.0, 0.0]])
        hole = np.array([[1.0, 1.0], [3.0, 1.0], [3.0, 3.0], [1.0, 3.0], [1.0, 1.0]])
        poly = ((outer, hole),)
        lon = np.array([0.5, 2.0, 3.5])
        lat = np.array([0.5, 2.0, 3.5])
        assert area_contains(lon, lat, poly).tolist() == [True, False, True]

    def test_multipolygon_is_union(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        b = np.array([[2.0, 0.0], [3.0, 0.0], [3.0, 1.0], [2.0, 1.0], [2.0, 0.0]])
        poly = ((a,), (b,))
        lon = np.array([0.5, 1.5, 2.5])
        lat = np.array([0.5, 0.5, 0.5])
        assert area_contains(lon, lat, poly).tolist() == [True, False, True]

    def test_random_convex_against_halfplane_oracle(self):
        rng = np.random.default_rng(61)
        for trial in range(20):
            ring = convex_polygon(rng, int(rng.integers(3, 12)))
            lon = rng.uniform(0.0, 10.0, size=50)
            lat = rng.uniform(0.0, 10.0, size=50)
            got = area_contains(lon, lat, ((ring,),))
            want = [halfplane_oracle(ring, x, y) for x, y in zip(lon, lat)]
            assert got.tolist() == want


class TestMatchesPerEdgeOracle:
    """The vectorised, prefiltered paths equal the per-edge loop bitwise."""

    def test_containment_on_adversarial_points(self):
        polys = adversarial_areas()
        lon, lat = probe_points(polys, np.random.default_rng(5))
        for area, polygons in polys.polygons.items():
            got = area_contains(lon, lat, polygons)
            np.testing.assert_array_equal(got, reference_contains(lon, lat, polygons), area)

    @pytest.mark.parametrize("chunk_cells", [geo._CHUNK_CELLS, 7])
    def test_aggregation_on_adversarial_points(self, monkeypatch, chunk_cells):
        monkeypatch.setattr(geo, "_CHUNK_CELLS", chunk_cells)
        polys = adversarial_areas()
        lon, lat = probe_points(polys, np.random.default_rng(6))
        values = np.random.default_rng(7).uniform(0.0, 1.0, size=len(lon)) * 0.1
        px = PixelTable(lon, lat, values)
        agg = aggregate_pixels(px, polys)
        assignment, sums = reference_aggregate(px, polys)
        np.testing.assert_array_equal(agg.area_index, assignment)
        assert agg.margin.values.tobytes() == sums.tobytes()
        assert agg.unassigned_count == int((assignment < 0).sum())
        # Every area owns some probes, and some stay outside.
        assert set(assignment.tolist()) == set(range(-1, len(polys.area_ids)))

    @pytest.mark.parametrize("ring, x", [(ROUNDS_RIGHT, 0.1), (ROUNDS_LEFT, -0.1)])
    def test_point_outside_box_counted_inside(self, ring, x):
        # The prefilter's ulp pad keeps such points as candidates.
        polys = AreaPolygonSet({"a": ((closed(ring),),)})
        lon = np.nextafter(x, np.sign(x) * np.inf)
        lat = ring[1][1]
        assert reference_contains(np.array([lon]), np.array([lat]), polys.polygons["a"])[0]
        agg = aggregate_pixels(PixelTable([lon], [lat], [1.0]), polys)
        assert agg.area_index.tolist() == [0]

    @CPUS
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_random_jittered_polygons(self, cpus, data):
        # Offsets up to 1e6 degrees scale the rounding of the crossings.
        shift = data.draw(st.sampled_from([0.0, 16.25, -179.9, 1e6]))
        polys = AreaPolygonSet({
            f"area{k}": data.draw(jittered_area(shift))
            for k in range(data.draw(st.integers(1, 3)))
        })
        seed = data.draw(st.integers(0, 2**32 - 1))
        lon, lat = probe_points(polys, np.random.default_rng(seed))
        px = PixelTable(lon, lat, np.full(len(lon), 0.1))
        for polygons in polys.polygons.values():
            got = area_contains(lon, lat, polygons)
            np.testing.assert_array_equal(got, reference_contains(lon, lat, polygons))
        agg = aggregate_on(cpus, px, polys)
        assignment, sums = reference_aggregate(px, polys)
        np.testing.assert_array_equal(agg.area_index, assignment)
        assert agg.margin.values.tobytes() == sums.tobytes()

    def test_tied_latitudes_on_shared_edges_and_vertices(self):
        # Every latitude of a quarter-step grid holds 82 pixels, in shuffled
        # rows, many of them on the squares' shared edges and vertices and
        # on the diamond's; no order of the tied latitudes may change a bit.
        squares = {
            f"g{i}{j}": ((closed([(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]),),)
            for i in range(4) for j in range(4)
        }
        polys = AreaPolygonSet({"a_diamond": ((closed([(1, 0), (2, 1), (1, 2), (0, 1)]),),),
                                **squares})
        grid = np.arange(-0.5, 4.75, 0.25)
        lon, lat = (np.repeat(axis.ravel(), 2) for axis in np.meshgrid(grid, grid))
        rng = np.random.default_rng(21)
        rows = rng.permutation(len(lon))
        values = rng.uniform(0.0, 1.0, len(lon)) * 10.0 ** rng.uniform(-3.0, 6.0, len(lon))
        px = PixelTable(lon[rows], lat[rows], values)
        for polygons in polys.polygons.values():
            want = reference_contains(px.lon, px.lat, polygons)
            np.testing.assert_array_equal(area_contains(px.lon, px.lat, polygons), want)
        agg = aggregate_pixels(px, polys)
        assignment, _ = reference_aggregate(px, polys)
        np.testing.assert_array_equal(agg.area_index, assignment)
        want = masked_sums(px.value, assignment, len(polys.area_ids))
        assert agg.margin.values.tobytes() == want.tobytes()
        assert set(assignment.tolist()) == set(range(-1, len(polys.area_ids)))
        shuffled = rng.permutation(len(px))
        again = aggregate_pixels(
            PixelTable(px.lon[shuffled], px.lat[shuffled], px.value[shuffled]), polys
        )
        np.testing.assert_array_equal(again.area_index, agg.area_index[shuffled])


def comb(teeth):
    """A bar along y in [-1, 0] with ``teeth`` unit-wide teeth up to y = 1:
    every point with 0 <= lat < 1 lies between 2 * teeth tall edges."""
    top = []
    for k in range(teeth - 1, -1, -1):
        top += [(2 * k + 1, 1.0), (2 * k, 1.0)]
        if k:
            top += [(2 * k, 0.0), (2 * k - 1, 0.0)]
    return closed([(0.0, -1.0), (2 * teeth - 1, -1.0)] + top)


def test_comb_is_contained_in_bounded_memory(monkeypatch):
    # 2000 points x 102 straddled edges = 204,000 (edge, point) pairs, which
    # would take 1.6 MB per temporary if they were not split into batches.
    monkeypatch.setattr(geo, "_CHUNK_CELLS", 1024)
    polys = AreaPolygonSet({"comb": ((comb(50),),)})
    rng = np.random.default_rng(11)
    lon, lat = rng.uniform(-0.5, 99.5, 2000), rng.uniform(0.0, 1.0, 2000)
    tracemalloc.start()
    try:
        got = area_contains(lon, lat, polys.polygons["comb"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = reference_contains(lon, lat, polys.polygons["comb"])
    np.testing.assert_array_equal(got, want)
    assert 0 < want.sum() < len(want)
    assert peak < 512 * 1024, f"peak {peak} bytes"
    px = PixelTable(lon, lat, np.ones(len(lon)))
    np.testing.assert_array_equal(aggregate_pixels(px, polys).area_index, np.where(want, 0, -1))


def test_multipolygon_is_a_union_of_its_polygons():
    # Five polygons, the first two overlapping: a point in both is inside.
    polys = AreaPolygonSet({"islands": tuple(
        (closed([(x, 0.0), (x + 0.8, 0.0), (x + 0.8, 0.5 + 0.1 * k), (x, 0.5)]),)
        for k, x in enumerate((0.0, 0.5, 1.9, 3.1, 4.3))
    )})
    lon, lat = probe_points(polys, np.random.default_rng(12))
    want = reference_contains(lon, lat, polys.polygons["islands"])
    np.testing.assert_array_equal(area_contains(lon, lat, polys.polygons["islands"]), want)
    overlap = (lon > 0.5) & (lon < 0.8) & (lat > 0.0) & (lat < 0.5)
    assert overlap.any() and want[overlap].all()


def masked_sums(values, assignment, n_areas):
    """Each area's sum as one masked sum over all pixels, in row order."""
    sums = np.zeros(n_areas)
    for pos in range(n_areas):
        sums[pos] = values[assignment == pos].sum()
    return sums


class TestAreaSums:
    @CPUS
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(n_areas=st.integers(1, 12), n_pixels=st.integers(0, 3000), seed=st.integers(0, 2**32 - 1))
    def test_equal_the_masked_sums_bitwise(self, cpus, n_areas, n_pixels, seed):
        # Unit squares two apart, so pixels between them stay unassigned;
        # a square far from the pixels leaves its area empty.
        rng = np.random.default_rng(seed)
        far = rng.random(n_areas) < 0.3
        polys = AreaPolygonSet({
            f"a{k:02d}": ((closed([(x, 0), (x + 1, 0), (x + 1, 1), (x, 1)]),),)
            for k, x in enumerate(np.where(far, 1000.0, 0.0) + 2.0 * np.arange(n_areas))
        })
        lon = rng.uniform(-0.5, 2.0 * n_areas, n_pixels)
        lat = rng.uniform(-0.2, 1.2, n_pixels)
        values = rng.uniform(0.0, 1.0, n_pixels) * 10.0 ** rng.uniform(-3.0, 6.0, n_pixels)
        agg = aggregate_on(cpus, PixelTable(lon, lat, values), polys)
        want = masked_sums(values, agg.area_index, n_areas)
        assert agg.margin.values.tobytes() == want.tobytes()
        assert agg.unassigned_count == int((agg.area_index < 0).sum())

    @pytest.mark.parametrize("n_areas", [255, 256])
    def test_narrow_area_keys_sum_like_an_int64_stable_sort(self, n_areas):
        # Keys 0 (unassigned) to n_areas: 255 fits a uint8 key, 256 needs
        # a uint16 one.
        rng = np.random.default_rng(n_areas)
        polys = AreaPolygonSet({
            f"a{k:03d}": ((closed([(k, 0), (k + 1, 0), (k + 1, 1), (k, 1)]),),)
            for k in range(n_areas)
        })
        n = 20 * n_areas
        lon, lat = rng.uniform(-1.0, n_areas + 1.0, n), rng.uniform(-0.2, 1.2, n)
        values = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 6.0, n)
        agg = aggregate_pixels(PixelTable(lon, lat, values), polys)
        by_area = np.argsort(agg.area_index.astype(np.int64), kind="stable")
        bounds = np.searchsorted(agg.area_index[by_area], np.arange(n_areas + 1))
        ordered = values[by_area]
        want = np.array([ordered[lo:hi].sum() for lo, hi in zip(bounds, bounds[1:])])
        assert agg.margin.values.tobytes() == want.tobytes()
        assert agg.unassigned_count == bounds[0] > 0
        assert agg.unassigned_mass == ordered[: bounds[0]].sum()
        assert (agg.area_index == n_areas - 1).any()


@st.composite
def jittered_ring(draw, cx, cy, scale):
    """Star-shaped ring around (cx, cy) with jittered angles and radii;
    some vertices copy their predecessor's latitude (horizontal edges)."""
    n = draw(st.integers(3, 9))
    jitter = np.array(draw(st.lists(st.floats(-0.45, 0.45), min_size=n, max_size=n)))
    radii = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    level = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    angles = (np.arange(n) + jitter) * 2.0 * np.pi / n
    xs = cx + scale * radii * np.cos(angles)
    ys = cy + scale * radii * np.sin(angles)
    for i in range(1, n):
        if level[i]:
            ys[i] = ys[i - 1]
    return closed(np.column_stack([xs, ys]))


@st.composite
def jittered_area(draw, shift):
    """One to two polygons near (shift, 0), each an outer ring and maybe a
    smaller hole; areas drawn together often overlap."""
    polygons = []
    for _ in range(draw(st.integers(1, 2))):
        cx = shift + draw(st.floats(-3.0, 3.0))
        cy = draw(st.floats(-3.0, 3.0))
        scale = draw(st.floats(0.5, 3.0))
        rings = [draw(jittered_ring(cx, cy, scale))]
        if draw(st.booleans()):
            rings.append(draw(jittered_ring(cx, cy, scale * 0.4)))
        polygons.append(tuple(rings))
    return tuple(polygons)


class TestGeojsonParsing:
    def test_loads_fixture(self):
        polys = vertical_split()
        assert set(polys.area_ids) == {"west", "east"}

    def test_error_contracts(self):
        with pytest.raises(ValueError, match="FeatureCollection"):
            AreaPolygonSet.from_geojson({"type": "Feature"})
        base = {
            "type": "FeatureCollection",
            "features": [
                {
                    "properties": {},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]],
                    },
                }
            ],
        }
        with pytest.raises(ValueError, match="feature 0: missing properties.area_id"):
            AreaPolygonSet.from_geojson(base)
        dupe = json.loads(json.dumps(base))
        dupe["features"][0]["properties"]["area_id"] = "x"
        dupe["features"].append(json.loads(json.dumps(dupe["features"][0])))
        with pytest.raises(ValueError, match="feature 1: duplicate area_id"):
            AreaPolygonSet.from_geojson(dupe)
        open_ring = json.loads(json.dumps(base))
        open_ring["features"][0]["properties"]["area_id"] = "x"
        open_ring["features"][0]["geometry"]["coordinates"] = [
            [[0, 0], [1, 0], [1, 1], [0, 1]]
        ]
        with pytest.raises(ValueError, match="closed"):
            AreaPolygonSet.from_geojson(open_ring)
        line = json.loads(json.dumps(base))
        line["features"][0]["properties"]["area_id"] = "x"
        line["features"][0]["geometry"] = {
            "type": "LineString",
            "coordinates": [[0, 0], [1, 1]],
        }
        with pytest.raises(ValueError, match="Polygon or MultiPolygon"):
            AreaPolygonSet.from_geojson(line)


SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]


def collection(*coordinates):
    return {
        "type": "FeatureCollection",
        "features": [
            {"properties": {"area_id": f"a{i}"}, "geometry": {"type": "Polygon", "coordinates": c}}
            for i, c in enumerate(coordinates)
        ],
    }


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PixelTable([0.0, np.nan], [0.0, 1.0], [1.0, 1.0]), "pixel coordinates must be finite"),
        (lambda: PixelTable([0.0], [np.inf], [1.0]), "pixel coordinates must be finite"),
        (lambda: AreaPolygonSet.from_geojson(collection([[[0, 0], [1, 0], [0, 0]]])),
         "area 'a0' polygon 0 ring 0: ring needs at least 4 vertices"),
        (lambda: AreaPolygonSet.from_geojson(collection([SQUARE, [[0, 0], [1e400, 0], [1, 1], [0, 0]]])),
         "area 'a0' polygon 0 ring 1: ring coordinates must be finite"),
        (lambda: AreaPolygonSet({}), "empty polygon set"),
        (lambda: AreaPolygonSet({"a": ()}), "area 'a' has no polygons"),
        (lambda: AreaPolygonSet({"a": ((np.array(SQUARE, dtype=float),), ())}),
         "area 'a' polygon 1 has no rings"),
        (lambda: AreaPolygonSet.from_geojson({"type": "FeatureCollection", "features": []}),
         "FeatureCollection has no features"),
        (lambda: AreaPolygonSet.from_geojson(collection([SQUARE], [])),
         "feature 1: empty coordinates"),
    ],
)
def test_bad_geometry_is_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


class TestAggregation:
    def test_mass_conserved_on_covering_fixture(self):
        px = grid_pixels()
        agg = aggregate_pixels(px, vertical_split())
        assert agg.unassigned_count == 0
        assert agg.unassigned_mass == 0.0
        assert agg.margin.total() == px.value.sum()
        assert not agg.warning

    def test_vertical_split_matches_rectangle_oracle(self):
        px = grid_pixels()
        agg = aggregate_pixels(px, vertical_split())
        m = agg.margin.as_dict()
        assert m["west"] == rectangle_oracle(px, 0, 0, 5, 10)
        assert m["east"] == rectangle_oracle(px, 5, 0, 10, 10)
        assert m == {"east": 2650.0, "west": 2400.0}

    def test_horizontal_split_matches_rectangle_oracle(self):
        px = grid_pixels()
        agg = aggregate_pixels(px, horizontal_split())
        m = agg.margin.as_dict()
        assert m["south"] == rectangle_oracle(px, 0, 0, 10, 5)
        assert m["north"] == rectangle_oracle(px, 0, 5, 10, 10)
        assert m["south"] + m["north"] == px.value.sum()

    @CPUS
    def test_boundary_pixels_go_to_first_area_in_id_order(self, cpus):
        # Pixels exactly on the shared edge x = 1 of two abutting squares.
        left = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        right = np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        polys = AreaPolygonSet({"a": ((left,),), "b": ((right,),)})
        px = PixelTable([1.0], [0.5], [7.0])
        agg = aggregate_on(cpus, px, polys)
        # Ray casting puts an on-edge point in exactly one square here; the
        # sweep order (sorted ids) makes the outcome reproducible.
        assert agg.unassigned_count == 0
        assert agg.area_index[0] in (0, 1)
        rerun = aggregate_pixels(px, polys)
        assert rerun.area_index[0] == agg.area_index[0]

    def test_unassigned_mass_warning_above_five_percent(self):
        square = np.array(
            [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]
        )
        polys = AreaPolygonSet({"only": ((square,),)})
        lon, lat = [0.5, 5.0], [0.5, 5.0]
        agg = aggregate_pixels(PixelTable(lon, lat, [90.0, 4.0]), polys)
        assert not agg.warning  # 4/94 < 5%
        agg2 = aggregate_pixels(PixelTable(lon, lat, [90.0, 6.0]), polys)
        assert agg2.warning  # 6/96 > 5%
        assert agg2.unassigned_count == 1
        assert agg2.unassigned_mass == 6.0
        assert agg2.margin.as_dict() == {"only": 90.0}

    @CPUS
    def test_overlapping_areas_resolve_by_id_order(self, cpus):
        # On four CPUs each area is a range of its own: the pixel is claimed
        # on both sides of the cut.
        big = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0], [0.0, 0.0]])
        polys = AreaPolygonSet({"z_first": ((big,),), "a_first": ((big,),)})
        px = PixelTable([2.0], [2.0], [5.0])
        agg = aggregate_on(cpus, px, polys)
        # Sorted id order puts "a_first" before "z_first".
        assert agg.margin.ids == ("a_first", "z_first")
        assert agg.margin.as_dict() == {"a_first": 5.0, "z_first": 0.0}


    @CPUS
    def test_the_first_range_to_claim_a_pixel_owns_it(self, cpus):
        # On four CPUs each area is a range of its own.  The caller's range,
        # "a_far", holds no pixel; the pixel at (1, 1) lies in the next two
        # ranges, each a child's, and goes to the first of them.
        big = closed([(0, 0), (2, 0), (2, 2), (0, 2)])
        polys = AreaPolygonSet({
            "a_far": ((closed([(50, 50), (51, 50), (51, 51), (50, 51)]),),),
            "c_big": ((big,),),
            "b_big": ((big,),),
            "d_east": ((closed([(3, 0), (4, 0), (4, 1), (3, 1)]),),),
        })
        px = PixelTable([1.0, 3.5, 9.0], [1.0, 0.5, 9.0], [5.0, 3.0, 0.25])
        agg = aggregate_on(cpus, px, polys)
        assert agg.area_index.tolist() == [1, 3, -1]
        assert agg.margin.as_dict() == {"a_far": 0.0, "b_big": 5.0, "c_big": 0.0, "d_east": 3.0}
        assert (agg.unassigned_count, agg.unassigned_mass) == (1, 0.25)

class TestPixelTable:
    def test_from_rows_and_len(self):
        px = PixelTable([0.0, 1.0], [0.0, 1.0], [1.0, 2.0])
        assert len(px) == 2
        np.testing.assert_array_equal(px.value, [1.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            PixelTable(np.array([0.0]), np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            PixelTable(np.array([0.0]), np.array([0.0]), np.array([-1.0]))
