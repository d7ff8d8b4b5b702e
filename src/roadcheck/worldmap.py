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

Unknown keys are warned about and ignored.

Every map builds, once, a packed R-tree over the lanelets and one over the
centre-line segments when it has more of them than one tree node holds;
the map queries then run their exact tests only on the items whose
bounding box meets the query's.  Smaller maps are scanned.  Both ways give
the same results.
"""

from __future__ import annotations

import heapq
import json
import math
import re
import warnings
from array import array
from itertools import accumulate, repeat

from .geometry import (ConvexPolygon, GeometryError, normalize_angle,
                       overlap_area, segment_intersects_polygon,
                       _point_in_polygon)
from .record import Record

DIRECTIONS = ("with_map_axis", "against_map_axis")

_LEAF = 8               # entries per R-tree node
_PAD = 1e-9             # relative padding of every bounding box
_SLACK = 1.0 + 1e-9     # relative slack of the nearest-item stopping rule
_AREA_EPS = 1e-6        # area a shape may stick out of the lanes it is within


class MapError(ValueError):
    """Malformed or invalid map document."""

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{message} (at {location})"
        super().__init__(message)


class OffRoadError(LookupError):
    """A query point lies outside every lanelet."""


class Lanelet(Record):
    __slots__ = _fields = ("id", "shape", "orientation", "width", "direction")

    def __post_init__(self):
        if not (math.isfinite(self.width) and self.width > 0.0):
            raise MapError(f"lanelet width must be finite and > 0, got "
                           f"{self.width}", location=f"lanelet {self.id!r}")
        if not math.isfinite(self.orientation):
            raise MapError(f"lanelet orientation must be finite, got "
                           f"{self.orientation}", location=f"lanelet {self.id!r}")
        if self.direction not in DIRECTIONS:
            raise MapError(f"unknown direction {self.direction!r}",
                           location=f"lanelet {self.id!r}")
        object.__setattr__(self, "orientation", normalize_angle(self.orientation))


def _padded(x0, y0, x1, y1):
    """The box grown by ``_PAD`` relative to its largest coordinate, so that
    rounding in an exact test cannot put a hit outside it."""
    pad = _PAD * max(1.0, abs(x0), abs(y0), abs(x1), abs(y1))
    return x0 - pad, y0 - pad, x1 + pad, y1 + pad


def _bounds(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return _padded(min(xs), min(ys), max(xs), max(ys))


class _BoxTree:
    """Immutable R-tree over item boxes, packed by Sort-Tile-Recursive
    (Leutenegger, Lopez & Edgington, ICDE 1997).

    ``levels[0]`` holds the item boxes in packed order, each level above one
    box per run of ``_LEAF`` consecutive boxes of the level below, and the
    last level a single box.  A level is a flat ``array('d')`` of
    (x0, y0, x1, y1); ``items`` maps level-0 slots to item indices.
    """

    __slots__ = ("levels", "items")

    def __init__(self, boxes: array):
        n = len(boxes) // 4

        def centre(i):
            return boxes[4 * i] + boxes[4 * i + 2], boxes[4 * i + 1] + boxes[4 * i + 3]

        # STR: vertical slices of about sqrt(leaves) leaves each, by x, then
        # runs of _LEAF boxes by y within a slice
        per_slice = _LEAF * math.ceil(math.sqrt(-(-n // _LEAF)))
        order = sorted(range(n), key=centre)
        for s in range(0, n, per_slice):
            order[s:s + per_slice] = sorted(
                order[s:s + per_slice], key=lambda i: centre(i)[::-1])
        self.items = array("i", order)
        level = array("d")
        for i in order:
            level.extend(boxes[4 * i:4 * i + 4])
        self.levels = [level]
        while len(level) > 4:
            up = array("d")
            for s in range(0, len(level), 4 * _LEAF):
                run = level[s:s + 4 * _LEAF]
                up.extend((min(run[0::4]), min(run[1::4]),
                           max(run[2::4]), max(run[3::4])))
            self.levels.append(up)
            level = up

    def search(self, x0, y0, x1, y1) -> list[int]:
        """Indices of the items whose box meets the query box, ascending."""
        levels = self.levels
        depth = len(levels) - 1
        slots = range(1)
        while True:
            boxes = levels[depth]
            hits = []
            for s in slots:
                k = 4 * s
                if (boxes[k] <= x1 and x0 <= boxes[k + 2]
                        and boxes[k + 1] <= y1 and y0 <= boxes[k + 3]):
                    hits.append(s)
            if not depth:
                break
            depth -= 1
            n = len(levels[depth]) // 4
            slots = [c for s in hits
                     for c in range(_LEAF * s, min(_LEAF * s + _LEAF, n))]
        items = self.items
        return sorted([items[s] for s in hits])

    def nearest(self, px, py, measure):
        """The ``value`` of the item ``i`` with the least ``(d, i)``, where
        ``(d, value) = measure(i)`` and ``d`` is the squared distance from
        (px, py) to the item, never less than that to its box.

        Boxes are opened nearest first; the search stops at a box farther
        than the best ``d`` by more than ``_SLACK``, which absorbs rounding
        in both distances.
        """
        levels, items = self.levels, self.items
        best, best_d, best_i = None, math.inf, -1
        heap = [(0.0, len(levels) - 1, 0)]
        while heap:
            bound, depth, s = heapq.heappop(heap)
            limit = best_d * _SLACK
            if bound > limit:
                break
            if not depth:
                i = items[s]
                d, value = measure(i)
                if d < best_d or (d == best_d and i < best_i):
                    best, best_d, best_i = value, d, i
                continue
            boxes = levels[depth - 1]
            for c in range(_LEAF * s, min(_LEAF * s + _LEAF, len(boxes) // 4)):
                k = 4 * c
                dx = boxes[k] - px
                if dx < 0.0:
                    dx = max(px - boxes[k + 2], 0.0)
                dy = boxes[k + 1] - py
                if dy < 0.0:
                    dy = max(py - boxes[k + 3], 0.0)
                gap = dx * dx + dy * dy
                if gap <= limit:
                    heapq.heappush(heap, (gap, depth - 1, c))
        return best


def _tree(boxes: array):
    """The tree over the boxes, or None when one node would hold them all."""
    return _BoxTree(boxes) if len(boxes) > 4 * _LEAF else None


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
        object.__setattr__(self, "centreline", pts)
        boxes = array("d")
        for l in self.lanelets:
            boxes.extend(_bounds(l.shape.vertices))
        object.__setattr__(self, "_lanelet_tree", _tree(boxes))
        boxes = array("d")
        for i in range(len(pts) - 1):
            boxes.extend(_bounds(pts[i:i + 2]))
        object.__setattr__(self, "_segment_tree", _tree(boxes))


_LANELET_KEYS = {"id", "vertices", "orientation_rad", "width_m", "direction"}
_TOP_KEYS = {"lanelets", "centreline"}


def _check_keys(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        warnings.warn(f"unknown keys {sorted(unknown)} in {where}")


def read_text(source, what: str) -> str:
    """``source`` (bytes, text or a file of either) as UTF-8 text."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (bytes, bytearray)):
        return source.decode("utf-8")
    if isinstance(source, str):
        return source
    raise TypeError(f"cannot read {what} from {type(source).__name__}")


# How deep arrays and objects may nest in a JSON document or record: far
# enough inside the interpreter's recursion limit (1000 by default) that
# decoding a value and naming it in a message both have stack to spare,
# so that where the limit falls does not depend on the caller's depth.
MAX_NESTING = 512
_ESCAPE = re.compile(r"\\.", re.S)
_STRING = re.compile(r'"[^"]*"')
# drops every ASCII character but quotes and brackets, and makes braces
# brackets
_BRACKETS = str.maketrans("{}", "[]", "".join(
    chr(c) for c in range(128) if chr(c) not in '"[]{}'))
_NESTING_STEP = {"[": 1, "]": -1}


def json_loads(text: str):
    """``json.loads(text)``, except that a value nested more than
    MAX_NESTING deep raises RecursionError before it is decoded."""
    if text.count("[") + text.count("{") > MAX_NESTING:
        # the brackets of ``text`` outside its strings, whose escapes go first
        brackets = _STRING.sub("", _ESCAPE.sub("", text).translate(_BRACKETS))
        depths = accumulate(map(_NESTING_STEP.get, brackets, repeat(0)))
        if max(depths) > MAX_NESTING:
            raise RecursionError(f"JSON nested more than {MAX_NESTING} deep")
    return json.loads(text)


def json_text(value) -> str:
    """``value`` as JSON text, for a message; a value nested too deeply to
    write from the caller's stack depth is named by its type instead."""
    try:
        return json.dumps(value)
    except RecursionError:
        return f"a {type(value).__name__}"


def json_number(value, what: str, error=ValueError, finite=False) -> float:
    """``value`` as a float if it is a JSON number, not a boolean or a
    numeric string (finite if ``finite``); otherwise ``error`` naming
    ``what``.  An integer too large for a float raises OverflowError."""
    if type(value) is not float and type(value) is not int:
        raise error(f"{what} must be a number, got {json_text(value)}")
    value = float(value)
    if finite and not math.isfinite(value):
        raise error(f"{what} must be finite, got {value}")
    return value


def json_string(value, what: str) -> str:
    """``value`` if it is a JSON string; otherwise ValueError naming ``what``."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {json_text(value)}")
    return value


def load_map(source) -> RoadMap:
    """Parse and validate a map document from bytes, text, or a file object."""
    text = read_text(source, "map")
    try:
        doc = json_loads(text)
    except json.JSONDecodeError as exc:
        raise MapError(f"invalid JSON: {exc.msg}",
                       location=f"line {exc.lineno}, column {exc.colno}") from exc
    except RecursionError:
        raise MapError("invalid JSON: nested too deeply") from None
    except ValueError as exc:       # an integer past int_max_str_digits
        raise MapError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise MapError("top-level value must be an object")
    _check_keys(doc, _TOP_KEYS, "map document")
    if "lanelets" not in doc:
        raise MapError("missing required key 'lanelets'")
    if "centreline" not in doc:
        raise MapError("missing required key 'centreline'")
    if not isinstance(doc["lanelets"], list):
        raise MapError("lanelets must be a list", location="lanelets")

    lanelets = []
    for i, entry in enumerate(doc["lanelets"]):
        where = f"lanelets[{i}]"
        if not isinstance(entry, dict):
            raise MapError("lanelet entry must be an object", location=where)
        _check_keys(entry, _LANELET_KEYS, where)
        missing = _LANELET_KEYS - set(entry)
        if missing:
            raise MapError(f"missing keys {sorted(missing)}", location=where)
        try:
            lid = json_string(entry["id"], "id")
        except ValueError as exc:
            raise MapError(str(exc), location=where) from None
        where = f"lanelet {lid!r}"
        try:
            shape = ConvexPolygon.from_points(
                [(json_number(x, "vertices"), json_number(y, "vertices"))
                 for x, y in entry["vertices"]])
        except (GeometryError, TypeError, ValueError, OverflowError) as exc:
            raise MapError(f"invalid shape: {exc}", location=where) from exc
        try:
            width = json_number(entry["width_m"], "width_m")
            orientation = json_number(entry["orientation_rad"],
                                      "orientation_rad")
        except (ValueError, OverflowError) as exc:
            raise MapError(f"invalid number: {exc}", location=where) from exc
        try:
            direction = json_string(entry["direction"], "direction")
        except ValueError as exc:
            raise MapError(str(exc), location=where) from None
        lanelets.append(Lanelet(lid, shape, orientation, width, direction))

    centreline = doc["centreline"]
    if (not isinstance(centreline, list) or len(centreline) < 2
            or not all(isinstance(p, list) and len(p) == 2 for p in centreline)):
        raise MapError("centreline must be a list of >= 2 [x, y] points",
                       location="centreline")
    try:
        centreline = tuple((json_number(x, "centreline"),
                            json_number(y, "centreline")) for x, y in centreline)
    except (ValueError, OverflowError) as exc:
        raise MapError(f"invalid number: {exc}", location="centreline") from exc
    if not all(map(math.isfinite, (c for p in centreline for c in p))):
        raise MapError("centreline coordinates must be finite",
                       location="centreline")
    # free the document first: the indexes are built in the memory it held
    del doc, text
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
    return [items[i] for i in tree.search(*_bounds(points))]


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
    return min(candidates, key=lambda l: (l.shape.area, l.id))


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
    one on the lowest-numbered segment."""
    px, py = p
    pts = road.centreline
    tree = road._segment_tree
    if tree is not None:
        return tree.nearest(px, py, lambda i: _closest_on_segment(
            pts[i], pts[i + 1], px, py))
    best = None
    best_d = math.inf
    for i in range(len(pts) - 1):
        d, q = _closest_on_segment(pts[i], pts[i + 1], px, py)
        if d < best_d:
            best_d, best = d, q
    return best
