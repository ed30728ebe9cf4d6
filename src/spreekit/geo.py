"""Pixel-to-area aggregation: GeoJSON polygons and centroid assignment.

Pixels are points (cell centroids) with a population value.  Each pixel is
assigned to the first area, in id order, whose polygon contains it under
the even-odd ray-casting rule; holes are expressed as additional rings.
Geometry is treated as planar in lon/lat, which at 100 m cell scale keeps
the approximation error far below the pixel size away from the poles and
the antimeridian.  Points exactly on a shared edge follow whatever the
crossing test decides for each polygon, so ties stay deterministic.

An edge counts for a point only if ``(y1 > lat) != (y2 > lat)``, that
is ``min(y1, y2) <= lat < max(y1, y2)``: with the points in latitude
order, one slice of them, found by binary search.  So each point meets
only the edges whose latitude span holds it (the scanline edge table of
Hormann & Agathos 2001), each with the crossing abscissa of the per-edge
loop.  :func:`aggregate_pixels` also tests only the pixels in each area's
bounding box, which drops no pixel the full test would assign: a point
outside the latitude band ``[min_y, max_y)`` straddles no edge; left of
the box it lies left of every crossing, and a horizontal line straddles
an even number of a closed ring's edges; right of the box it lies right
of every crossing.  A rounded crossing can land a few ulps outside the
box, so its longitude limits are widened by :data:`_PAD_ULPS` ulps.

The latitude sort need not be stable: a pixel's crossings and owner
depend only on its own coordinates, and a binary-searched slice holds the
same pixels under any order of ties.  The by-area sort fixes the summation
order, so it is stable, on the narrowest unsigned key (a radix sort).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from spreekit._fork import forked, split
from spreekit.composition import MarginLevel, MarginVector

# A ring is an (n, 2) lon/lat array, closed; a polygon is a tuple of rings
# (outer ring plus holes); an area maps to a tuple of polygons.
Ring = np.ndarray
Polygon = tuple[Ring, ...]


@dataclass(frozen=True)
class PixelTable:
    """Point grid of population values at cell centroids."""

    lon: np.ndarray
    lat: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        lon = np.asarray(self.lon, dtype=float)
        lat = np.asarray(self.lat, dtype=float)
        value = np.asarray(self.value, dtype=float)
        if not (lon.shape == lat.shape == value.shape) or lon.ndim != 1:
            raise ValueError("lon, lat, and value must be equal-length 1-D arrays")
        if not (np.all(np.isfinite(lon)) and np.all(np.isfinite(lat))):
            raise ValueError("pixel coordinates must be finite")
        if not np.all(np.isfinite(value)) or np.any(value < 0):
            raise ValueError("pixel values must be finite and non-negative")
        for name, arr in (("lon", lon), ("lat", lat), ("value", value)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.value)


def _as_ring(vertices: Sequence[Sequence[float]], where: str) -> Ring:
    try:
        ring = np.asarray(vertices, dtype=float)
    except (TypeError, ValueError):
        ring = np.empty(0)
    if ring.ndim != 2 or ring.shape[1] < 2:
        raise ValueError(f"{where}: ring must be a sequence of lon/lat pairs")
    ring = ring[:, :2]
    if len(ring) < 4:
        raise ValueError(f"{where}: ring needs at least 4 vertices")
    if not np.all(np.isfinite(ring)):
        raise ValueError(f"{where}: ring coordinates must be finite")
    if ring[0, 0] != ring[-1, 0] or ring[0, 1] != ring[-1, 1]:
        raise ValueError(f"{where}: ring is not closed (first vertex != last)")
    ring.setflags(write=False)
    return ring


@dataclass(frozen=True)
class AreaPolygonSet:
    """One polygon or multipolygon per small-area id."""

    polygons: Mapping[str, tuple[Polygon, ...]]

    def __post_init__(self) -> None:
        if not self.polygons:
            raise ValueError("empty polygon set")
        checked: dict[str, tuple[Polygon, ...]] = {}
        for area, polys in self.polygons.items():
            area = str(area)
            if not polys:
                raise ValueError(f"area {area!r} has no polygons")
            fixed = []
            for p, rings in enumerate(polys):
                if not isinstance(rings, (tuple, list)):
                    raise ValueError(
                        f"area {area!r}: expected a tuple of polygons, each a "
                        f"tuple of rings; got {type(rings).__name__}"
                    )
                if not rings:
                    raise ValueError(f"area {area!r} polygon {p} has no rings")
                fixed.append(
                    tuple(
                        _as_ring(r, f"area {area!r} polygon {p} ring {i}")
                        for i, r in enumerate(rings)
                    )
                )
            checked[area] = tuple(fixed)
        object.__setattr__(self, "polygons", checked)

    @property
    def area_ids(self) -> tuple[str, ...]:
        return tuple(self.polygons)

    @classmethod
    def from_geojson(cls, data: Mapping[str, Any]) -> "AreaPolygonSet":
        """Build from a FeatureCollection carrying ``properties.area_id``;
        the constructor checks the rings."""
        if not isinstance(data, Mapping) or data.get("type") != "FeatureCollection":
            raise ValueError("expected a GeoJSON FeatureCollection")
        features = data.get("features")
        if not isinstance(features, list) or not features:
            raise ValueError("FeatureCollection has no features")
        out: dict[str, Any] = {}
        for i, feature in enumerate(features):
            where = f"feature {i}"
            if not isinstance(feature, Mapping):
                raise ValueError(f"{where}: feature must be an object")
            props = feature.get("properties") or {}
            geom = feature.get("geometry") or {}
            if not isinstance(props, Mapping) or not isinstance(geom, Mapping):
                raise ValueError(f"{where}: properties and geometry must be objects")
            area = props.get("area_id")
            if area is None:
                raise ValueError(f"{where}: missing properties.area_id")
            area = str(area)
            if area in out:
                raise ValueError(f"{where}: duplicate area_id {area!r}")
            gtype = geom.get("type")
            coords = geom.get("coordinates")
            if gtype not in ("Polygon", "MultiPolygon"):
                raise ValueError(f"{where}: geometry must be Polygon or MultiPolygon")
            if not isinstance(coords, list):
                raise ValueError(f"{where}: coordinates must be a list")
            if not coords:
                raise ValueError(f"{where}: empty coordinates")
            out[area] = [coords] if gtype == "Polygon" else coords
        return cls(out)


# (Edge, point) pairs per batch: keeps each per-pair array at 512 KiB.
_CHUNK_CELLS = 1 << 16
# Longitude pad of the prefilter box, in ulps of its largest |lon|; the
# rounding of one crossing abscissa stays below about 14 of them.
_PAD_ULPS = 64
# The fewest areas :func:`aggregate_pixels` gives a process.  On a shared
# two-CPU host, in medians of 60 to 80 alternating calls over cells of the
# poverty-raster grid at 250 pixels an area, a split in two loses at 64
# areas and fewer (by 6-200%), is about even at 80, and wins from 96 (by
# 5%; by 20% at 128 and 30% at 400).
_AREAS_PER_PROCESS = 48


def _contains_sorted(
    lon: np.ndarray, lat: np.ndarray, polygons: tuple[Polygon, ...]
) -> np.ndarray:
    """Containment, of points in ascending latitude order, in a
    (multi)polygon: inside any constituent polygon, which holds a point when
    an odd number of its rings do."""
    n = len(lat)
    inside = np.zeros(n, dtype=bool)
    for polygon in polygons:
        v = np.concatenate(polygon)
        # Edge k runs from vertex k to k + 1; its (x1, y1, dx, dy) are column k.
        edges = np.concatenate((v[:-1].T, v[1:].T - v[:-1].T))
        y1, y2 = v[:-1, 1], v[1:, 1]
        start, stop = lat.searchsorted(np.minimum(y1, y2)), lat.searchsorted(np.maximum(y1, y2))
        count = stop - start
        if len(polygon) > 1:  # no edge joins one ring's last vertex to the next's first
            count[np.cumsum([len(ring) for ring in polygon[:-1]]) - 1] = 0
        ends = count.cumsum()
        # Pair j, counted over all edges, is point j + shift of its edge.
        shift = start - ends + count
        crossings = np.zeros(n, dtype=np.intp)
        for j0 in range(0, ends[-1], _CHUNK_CELLS):
            j1 = min(j0 + _CHUNK_CELLS, ends[-1])
            e0, e1 = ends.searchsorted((j0, j1 - 1), side="right") + (0, 1)
            take = np.minimum(ends[e0:e1], j1) - np.maximum(ends[e0:e1] - count[e0:e1], j0)
            x1, y1, dx, dy = edges[:, e0:e1].repeat(take, axis=1)
            point = shift[e0:e1].repeat(take) + np.arange(j0, j1)
            with np.errstate(invalid="ignore"):
                hit = lon[point] < x1 + (lat[point] - y1) * dx / dy
            np.add.at(crossings, point[hit], 1)
        inside |= crossings & 1 == 1
    return inside


@dataclass(frozen=True)
class PixelAggregation:
    """Per-area sums plus the unassigned remainder.

    ``area_index`` holds, per pixel, the position of its area in
    ``margin.ids`` or -1 when no polygon contains it.  ``warning`` flags
    unassigned mass above 5% of the total.
    """

    margin: MarginVector
    area_index: np.ndarray
    unassigned_count: int
    unassigned_mass: float
    total_mass: float
    warning: bool


def aggregate_pixels(
    px: PixelTable, polys: AreaPolygonSet, reference_time: int = 0
) -> PixelAggregation:
    """Sum pixel values into the first containing area, in id order.

    The areas are cut into ranges in id order, of at least
    :data:`_AREAS_PER_PROCESS` areas, by the split rule of
    :mod:`spreekit._fork`; each range finds its own first owners, and a
    pixel keeps the owner of the first range that has one."""
    ordered = tuple(sorted(polys.area_ids))
    by_lat = np.argsort(px.lat)
    lon, lat = px.lon[by_lat], px.lat[by_lat]

    def owners(lo: int, hi: int) -> np.ndarray:
        """Per pixel in latitude order, the first area of positions ``lo``
        to ``hi - 1`` that contains it, or -1."""
        owner = np.full(len(px), -1, dtype=int)
        for pos in range(lo, hi):
            polygons = polys.polygons[ordered[pos]]
            vertices = np.concatenate([ring for polygon in polygons for ring in polygon])
            (x0, y0), (x1, y1) = vertices.min(axis=0), vertices.max(axis=0)
            pad = _PAD_ULPS * np.spacing(max(abs(x0), abs(x1)))
            south, north = np.searchsorted(lat, (y0, y1))
            band = slice(south, north)
            candidates = south + np.flatnonzero(
                (owner[band] < 0) & (lon[band] >= x0 - pad) & (lon[band] <= x1 + pad)
            )
            hit = _contains_sorted(lon[candidates], lat[candidates], polygons)
            owner[candidates[hit]] = pos
        return owner

    compact = np.min_scalar_type(-len(ordered))
    bounds = split(len(ordered), _AREAS_PER_PROCESS)
    with forked(lambda lo, hi: [owners(lo, hi).astype(compact)], bounds, "areas") as theirs:
        owner = owners(bounds[0], bounds[1])
        for [their] in theirs:
            np.copyto(owner, their, where=owner < 0)
    assignment = np.empty_like(owner)
    assignment[by_lat] = owner
    # Freed before the by-area sort, which would otherwise set the peak.
    del by_lat, lon, lat, owner
    # The unassigned pixels, then each area's, in row order as one slice: the
    # same sums as the masked ones.
    key = (assignment + 1).astype(np.min_scalar_type(len(ordered)))
    by_area = np.argsort(key, kind="stable")
    bounds = np.bincount(key, minlength=len(ordered) + 1).cumsum().tolist()
    values = px.value[by_area]
    sums = np.array([values[lo:hi].sum() for lo, hi in zip(bounds, bounds[1:])], dtype=float)
    unassigned_mass = float(values[: bounds[0]].sum())
    total = float(px.value.sum())
    margin = MarginVector(ordered, sums, MarginLevel.SMALL_AREA, reference_time)
    return PixelAggregation(
        margin,
        assignment,
        bounds[0],
        unassigned_mass,
        total,
        warning=total > 0 and unassigned_mass > 0.05 * total,
    )
