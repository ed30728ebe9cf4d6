import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spreekit import AreaPolygonSet, PixelTable, aggregate_pixels, area_contains
from spreekit import geo
from spreekit import io as sio

from conftest import FIXTURES


def grid_pixels():
    return sio.load_pixels(FIXTURES / "pixels10.csv")


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
        agg = aggregate_pixels(PixelTable.from_rows([(lon, lat, 1.0)]), polys)
        assert agg.area_index.tolist() == [0]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_random_jittered_polygons(self, data):
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
        agg = aggregate_pixels(px, polys)
        assignment, sums = reference_aggregate(px, polys)
        np.testing.assert_array_equal(agg.area_index, assignment)
        assert agg.margin.values.tobytes() == sums.tobytes()


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

    def test_boundary_pixels_go_to_first_area_in_id_order(self):
        # Pixels exactly on the shared edge x = 1 of two abutting squares.
        left = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        right = np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        polys = AreaPolygonSet({"a": ((left,),), "b": ((right,),)})
        px = PixelTable.from_rows([(1.0, 0.5, 7.0)])
        agg = aggregate_pixels(px, polys)
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
        inside = [(0.5, 0.5, 90.0)]
        agg = aggregate_pixels(PixelTable.from_rows(inside + [(5.0, 5.0, 4.0)]), polys)
        assert not agg.warning  # 4/94 < 5%
        agg2 = aggregate_pixels(PixelTable.from_rows(inside + [(5.0, 5.0, 6.0)]), polys)
        assert agg2.warning  # 6/96 > 5%
        assert agg2.unassigned_count == 1
        assert agg2.unassigned_mass == 6.0
        assert agg2.margin.as_dict() == {"only": 90.0}

    def test_overlapping_areas_resolve_by_id_order(self):
        big = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0], [0.0, 0.0]])
        polys = AreaPolygonSet({"z_first": ((big,),), "a_first": ((big,),)})
        px = PixelTable.from_rows([(2.0, 2.0, 5.0)])
        agg = aggregate_pixels(px, polys)
        # Sorted id order puts "a_first" before "z_first".
        assert agg.margin.ids == ("a_first", "z_first")
        assert agg.margin.as_dict() == {"a_first": 5.0, "z_first": 0.0}


class TestPixelTable:
    def test_from_rows_and_len(self):
        px = PixelTable.from_rows([(0.0, 0.0, 1.0), (1.0, 1.0, 2.0)])
        assert len(px) == 2
        np.testing.assert_array_equal(px.value, [1.0, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            PixelTable(np.array([0.0]), np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            PixelTable(np.array([0.0]), np.array([0.0]), np.array([-1.0]))
