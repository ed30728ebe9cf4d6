"""Pixel-to-area aggregation: GeoJSON polygons and centroid assignment.

Pixels are points (cell centroids) with a population value.  Each pixel is
assigned to the first area, in id order, whose polygon contains it under
the even-odd ray-casting rule; holes are expressed as additional rings.
Geometry is treated as planar in lon/lat, which at 100 m cell scale keeps
the approximation error far below the pixel size away from the poles and
the antimeridian.  Points exactly on a shared edge follow whatever the
crossing test decides for each polygon, so ties stay deterministic.

The crossing test runs on all of a ring's edges at once, and
:func:`aggregate_pixels` runs it only on the pixels inside each area's
bounding box.  That prefilter drops no pixel the full test would
assign: an edge counts for a point only if ``(y1 > lat) != (y2 > lat)``,
so a point outside the latitude band ``[min_y, max_y)`` straddles no
edge; a point left of the box lies left of every crossing, and the
edges a horizontal line straddles around a closed ring are even in
number; a point right of the box lies right of every crossing.  The
crossing abscissa is rounded, so it can land a few ulps outside the
box; the longitude limits are widened by :data:`_PAD_ULPS` ulps of the
box's largest magnitude to cover that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

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


# Points x edges per broadcast: keeps each float temporary at 512 KiB.
_CHUNK_CELLS = 1 << 16
# Longitude pad of the prefilter box, in ulps of its largest |lon|; the
# rounding of one crossing abscissa stays below about 14 of them.
_PAD_ULPS = 64

# A ring's non-horizontal edges: (x1, y1, y2, x2 - x1, y2 - y1).
Edges = tuple[np.ndarray, ...]


def _edges(ring: Ring) -> Edges:
    x1, y1 = ring[:-1, 0], ring[:-1, 1]
    x2, y2 = ring[1:, 0], ring[1:, 1]
    keep = y1 != y2
    x1, y1, x2, y2 = x1[keep], y1[keep], x2[keep], y2[keep]
    return x1, y1, y2, x2 - x1, y2 - y1


def _ring_crossings(lon: np.ndarray, lat: np.ndarray, edges: Edges) -> np.ndarray:
    """Even-odd containment of each point against one ring's edges."""
    x1, y1, y2, dx, dy = edges
    lat = lat[:, None]
    straddles = (y1 > lat) != (y2 > lat)
    with np.errstate(invalid="ignore"):
        x_cross = x1 + (lat - y1) * dx / dy
    return np.count_nonzero(straddles & (lon[:, None] < x_cross), axis=1) % 2 == 1


def area_contains(
    lon: np.ndarray, lat: np.ndarray, polygons: tuple[Polygon, ...]
) -> np.ndarray:
    """Containment in a (multi)polygon: inside any constituent polygon.

    A polygon holds a point when an odd number of its rings do; the
    points are taken in chunks so the (points, edges) broadcast stays
    small however many points there are.
    """
    lon = np.asarray(lon, dtype=float)
    lat = np.asarray(lat, dtype=float)
    rings = [[_edges(ring) for ring in polygon] for polygon in polygons]
    width = max((len(edges[0]) for polygon in rings for edges in polygon), default=0)
    step = max(1, _CHUNK_CELLS // max(width, 1))
    inside = np.zeros(len(lon), dtype=bool)
    for start in range(0, len(lon), step):
        part = slice(start, start + step)
        x, y = lon[part], lat[part]
        for polygon in rings:
            odd = np.zeros(len(x), dtype=bool)
            for edges in polygon:
                odd ^= _ring_crossings(x, y, edges)
            inside[part] |= odd
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
    """Sum pixel values into the first containing area, in id order."""
    ordered = tuple(sorted(polys.area_ids))
    by_lat = np.argsort(px.lat, kind="stable")
    lon, lat = px.lon[by_lat], px.lat[by_lat]
    owner = np.full(len(px), -1, dtype=int)
    for pos, area in enumerate(ordered):
        polygons = polys.polygons[area]
        vertices = np.concatenate([ring for polygon in polygons for ring in polygon])
        (x0, y0), (x1, y1) = vertices.min(axis=0), vertices.max(axis=0)
        pad = _PAD_ULPS * np.spacing(max(abs(x0), abs(x1)))
        lo, hi = np.searchsorted(lat, (y0, y1))
        band = slice(lo, hi)
        candidates = lo + np.flatnonzero(
            (owner[band] < 0) & (lon[band] >= x0 - pad) & (lon[band] <= x1 + pad)
        )
        hit = area_contains(lon[candidates], lat[candidates], polygons)
        owner[candidates[hit]] = pos
    assignment = np.empty_like(owner)
    assignment[by_lat] = owner
    # Each area's pixels in row order, as one slice: the same sum as the masked one.
    by_area = np.argsort(assignment, kind="stable")
    bounds = np.searchsorted(assignment[by_area], np.arange(len(ordered) + 1)).tolist()
    values = px.value[by_area]
    sums = np.array([values[lo:hi].sum() for lo, hi in zip(bounds, bounds[1:])], dtype=float)
    unassigned_mask = assignment < 0
    unassigned_mass = float(px.value[unassigned_mask].sum())
    total = float(px.value.sum())
    margin = MarginVector(ordered, sums, MarginLevel.SMALL_AREA, reference_time)
    return PixelAggregation(
        margin,
        assignment,
        int(unassigned_mask.sum()),
        unassigned_mass,
        total,
        warning=total > 0 and unassigned_mass > 0.05 * total,
    )
