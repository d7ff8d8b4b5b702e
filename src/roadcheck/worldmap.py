"""Lanelet-based static road model.

A map is a set of convex lane-segment polygons, each carrying a driving
orientation and width, plus the explicit centre line separating opposing
traffic.  Maps are immutable after loading and safe for concurrent reads.

The on-disk format is a UTF-8 JSON document:

    {
      "lanelets": [
        {"id": "east", "vertices": [[x, y], ...],
         "orientation_rad": 0.0, "width_m": 3.65,
         "direction": "with_map_axis"},
        ...
      ],
      "centreline": [[x, y], ...]
    }

It is read against the field tables ``_MAP`` and ``_LANELET`` by
``inputs.Schema.read``.  A key that they do not name is accepted, and
reported as an ``inputs.UnknownKeysWarning`` once for the document and once
for all its lanelets.

Every map builds, once, a packed R-tree over the lanelets and one over the
centre-line segments when it has more of them than one tree node holds.
Every map query runs its exact test only on the candidates of ``_near``:
the items whose bounding box meets the query's box, or all items of a map
too small for a tree.  The nearest-point query takes as its box a square
about the point, and grows it fourfold until the closest candidate lies
within it.  Both ways give the same results as a scan.  An item's box is
the exact bounding box of its own coordinates, and a node is one flat
tuple of ``(x0, y0, x1, y1, child)`` runs after a pad, by which a query's
box is grown, with the query's own pad, before it is tested against the
node's entries.
"""

from __future__ import annotations

import json
import math
from itertools import chain

from .geometry import (ConvexPolygon, GeometryError, normalize_angle,
                       overlap_area, segment_intersects_polygon,
                       _point_in_polygon)
from .inputs import (REQUIRED, Schema, array, number, points, read_document,
                     string)
from .record import Record

DIRECTIONS = ("with_map_axis", "against_map_axis")

_LEAF = 8               # entries per R-tree node
_PAD = 1e-9             # a query's margin, relative to the coordinates
_AREA_EPS = 1e-6        # area a shape may stick out of the lanes it is within


class MapError(ValueError):
    """Malformed or invalid map document."""


class OffRoadError(LookupError):
    """A query point lies outside every lanelet."""


class Lanelet(Record):
    __slots__ = _fields = ("id", "shape", "orientation", "width", "direction")

    def __init__(self, id, shape, orientation, width, direction):
        if not (math.isfinite(width) and width > 0.0):
            raise MapError(f"lanelet {id!r}: lanelet width must be "
                           f"finite and > 0, got {width}")
        if not math.isfinite(orientation):
            raise MapError(f"lanelet {id!r}: lanelet orientation must be "
                           f"finite, got {orientation}")
        if direction not in DIRECTIONS:
            raise MapError(f"lanelet {id!r}: unknown direction "
                           f"{direction!r}")
        _set_id(self, id)
        _set_shape(self, shape)
        _set_orientation(self, normalize_angle(orientation))
        _set_width(self, width)
        _set_direction(self, direction)


_set_id, _set_shape, _set_orientation, _set_width, _set_direction = \
    Lanelet._setters


class _BoxTree:
    """Immutable R-tree (Guttman, SIGMOD 1984) over item boxes, packed by
    Sort-Tile-Recursive (Leutenegger, Lopez & Edgington, ICDE 1997).

    A node is a flat tuple ``(pad, x0, y0, x1, y1, child, x0, ...)``: its
    pad, then one run of five per entry, at most ``_LEAF`` of them, where
    ``child`` is an item index in a leaf and a node above it.  An entry's
    box is the exact bounding box of the item's points, or of its node's
    entries, and holds their own floats.  ``pad`` is ``_PAD`` times the
    largest coordinate magnitude below the node, or 1 if that is less: the
    largest margin of any item below.  A query box is grown by it, and by
    the margin of its own coordinates, before it is tested against the
    node's entries, so that rounding in an exact test cannot put a hit
    outside the box of its item.
    """

    __slots__ = ("root",)

    def __init__(self, n: int, points):
        """The tree over items ``0 .. n-1``; ``points(i)`` gives the points
        of item ``i``."""
        boxes = []
        for i in range(n):
            xs, ys = zip(*points(i))
            boxes += min(xs), min(ys), max(xs), max(ys), i
        # STR: vertical slices of about sqrt(leaves) leaves each, by x, then
        # runs of _LEAF items by y within a slice
        per_slice = _LEAF * math.ceil(math.sqrt(-(-n // _LEAF)))
        order = sorted(range(0, 5 * n, 5), key=lambda k: boxes[k] + boxes[k + 2])
        for s in range(0, n, per_slice):
            order[s:s + per_slice] = sorted(
                order[s:s + per_slice], key=lambda k: boxes[k + 1] + boxes[k + 3])
        level = []
        for k in order:
            level += boxes[k:k + 5]
        del boxes
        while True:
            up = []
            for s in range(0, len(level), 5 * _LEAF):
                run = level[s:s + 5 * _LEAF]
                box = (min(run[0::5]), min(run[1::5]),
                       max(run[2::5]), max(run[3::5]))
                up += *box, (_PAD * max(1.0, *map(abs, box)), *run)
            if len(up) == 5:
                self.root = up[4]
                return
            level = up

    def search(self, x0, y0, x1, y1) -> list[int]:
        """Indices of the items whose box, grown by the pads, meets the
        query box, ascending."""
        q = _PAD * max(1.0, abs(x0), abs(y0), abs(x1), abs(y1))
        hits = []
        nodes = [self.root]
        for node in nodes:      # grows as the walk goes down
            it = iter(node)
            m = next(it) + q
            lx, ly, hx, hy = x0 - m, y0 - m, x1 + m, y1 + m
            for bx0, by0, bx1, by1, child in zip(it, it, it, it, it):
                if bx0 <= hx and lx <= bx1 and by0 <= hy and ly <= by1:
                    (hits if type(child) is int else nodes).append(child)
        hits.sort()
        return hits


def _tree(n: int, points):
    """The tree over ``n`` items, or None when one node would hold them all."""
    return _BoxTree(n, points) if n > _LEAF else None


class RoadMap(Record):
    _fields = ("lanelets", "centreline")
    __slots__ = _fields + ("_lanelet_tree", "_segment_tree")

    def __post_init__(self):
        ids = [l.id for l in self.lanelets]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise MapError(f"duplicate lanelet ids: {dup}")
        if len(self.centreline) < 2:
            raise MapError("centreline needs at least 2 points")
        object.__setattr__(self, "lanelets",
                           tuple(sorted(self.lanelets, key=lambda l: l.id)))
        pts = tuple((float(x), float(y)) for x, y in self.centreline)
        if not all(map(math.isfinite, chain.from_iterable(pts))):
            raise MapError("centreline coordinates must be finite")
        object.__setattr__(self, "centreline", pts)
        lanelets = self.lanelets
        object.__setattr__(self, "_lanelet_tree", _tree(
            len(lanelets), lambda i: lanelets[i].shape.vertices))
        object.__setattr__(self, "_segment_tree", _tree(
            len(pts) - 1, lambda i: pts[i:i + 2]))


_MAP = Schema("map", {"lanelets": (array, REQUIRED),
                      "centreline": (points, REQUIRED)})
_LANELET = Schema("lanelets[{}]", {
    "id": (string, REQUIRED), "vertices": (points, REQUIRED),
    "orientation_rad": (number, REQUIRED), "width_m": (number, REQUIRED),
    "direction": (string, REQUIRED)})


def load_map(source) -> RoadMap:
    """Parse and validate a map document from bytes, text, or a file object."""
    doc = read_document(source, _MAP.where, MapError)
    entries, centreline = _MAP.read(doc, MapError)
    reported = set()
    lanelets = []
    for i, entry in enumerate(entries):
        lid, vertices, orientation, width, direction = _LANELET.read(
            entry, MapError, i, reported=reported)
        try:
            shape = ConvexPolygon.from_points(vertices)
        except GeometryError as exc:
            raise MapError(f"lanelet {lid!r}: invalid shape: {exc}") from None
        lanelets.append(Lanelet(lid, shape, orientation, width, direction))
    # free the document first: the indexes are built in the memory it held
    del doc, entries
    return RoadMap(tuple(lanelets), centreline)


def serialise_map(road: RoadMap) -> str:
    """Canonical JSON text; load_map(serialise_map(m)) equals m."""
    doc = {
        "lanelets": [
            {"id": l.id,
             "vertices": [[x, y] for x, y in l.shape.vertices],
             "orientation_rad": l.orientation,
             "width_m": l.width,
             "direction": l.direction}
            for l in road.lanelets
        ],
        "centreline": [[x, y] for x, y in road.centreline],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def _near(tree, items, points):
    """The items whose box meets the bounding box of ``points``, in their
    order; all of them when there is no tree."""
    if tree is None:
        return items
    xs, ys = zip(*points)
    return [items[i] for i in tree.search(min(xs), min(ys), max(xs), max(ys))]


def lanelets_containing(road: RoadMap, shape: ConvexPolygon):
    """All lanelets overlapping the shape with positive area, id-sorted."""
    out = []
    for l in _near(road._lanelet_tree, road.lanelets, shape.vertices):
        area = overlap_area(shape, l.shape)
        if area > 0.0:
            out.append((l.id, area))
    return out


def within(road: RoadMap, shape: ConvexPolygon, ids=None) -> bool:
    """True iff the lanelets, or those whose id is in ``ids``, cover the
    shape to within ``_AREA_EPS`` of its area."""
    covered = sum(area for lid, area in lanelets_containing(road, shape)
                  if ids is None or lid in ids)
    return abs(covered - shape.area) <= _AREA_EPS


def crosses_centreline(road: RoadMap, shape: ConvexPolygon) -> bool:
    """True iff the polygon touches or crosses the centre-line polyline."""
    pts = road.centreline
    for i in _near(road._segment_tree, range(len(pts) - 1), shape.vertices):
        if segment_intersects_polygon(pts[i], pts[i + 1], shape):
            return True
    return False


def lanelet_at(road: RoadMap, point: tuple[float, float]) -> Lanelet:
    """The smallest lanelet containing the point.

    Boundary-shared points resolve to the lexicographically smallest id.
    """
    candidates = [l for l in _near(road._lanelet_tree, road.lanelets, (point,))
                  if _point_in_polygon(point, l.shape)]
    if not candidates:
        raise OffRoadError(f"point {point} is outside every lanelet")
    return candidates[0] if len(candidates) == 1 else min(
        candidates, key=lambda l: (l.shape.area, l.id))


def lane_orientation_at(road: RoadMap, point: tuple[float, float]) -> float:
    """Driving orientation of the smallest containing lanelet."""
    return lanelet_at(road, point).orientation


def _closest_on_segment(a, b, px, py):
    """(squared distance, point) of the point of segment AB closest to P."""
    ax, ay = a
    bx, by = b
    abx, aby = bx - ax, by - ay
    denom = abx * abx + aby * aby
    t = 0.0 if denom == 0.0 else max(0.0, min(1.0, ((px - ax) * abx + (py - ay) * aby) / denom))
    qx, qy = ax + t * abx, ay + t * aby
    return (qx - px) ** 2 + (qy - py) ** 2, (qx, qy)


def nearest_centreline_point(road: RoadMap, p: tuple[float, float]):
    """The centre-line point closest to ``p``; of equally close points, the
    one on the lowest-numbered segment.

    The candidates are the segments whose box meets the square of half-side
    ``r`` about ``p``, for ``r`` = 1 m, then 4 times more each round.  The
    closest of them is the answer once it lies within ``r`` of ``p``, since
    a segment that close meets the square.  At ``r`` = 2**512, ``r * r`` is
    inf and any result is taken, also exactly: every segment whose squared
    distance is finite lies within that ``r``.  So the loop ends on every
    input.
    """
    px, py = p
    pts = road.centreline
    tree = road._segment_tree
    segments = range(len(pts) - 1)
    r = 1.0
    while True:
        best, best_d = None, math.inf
        for i in _near(tree, segments, ((px - r, py - r), (px + r, py + r))):
            d, q = _closest_on_segment(pts[i], pts[i + 1], px, py)
            if d < best_d:
                best, best_d = q, d
        if tree is None or best_d <= r * r:
            return best
        r *= 4.0
