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
the same results.  An item's box is the exact bounding box of its own
coordinates, and a node is one flat tuple of ``(x0, y0, x1, y1, child)``
runs after a pad, by which a query's box is grown, with the query's own
pad, before it is tested against the node's entries.
"""

from __future__ import annotations

import heapq
import json
import math
import re
import warnings
from itertools import accumulate, repeat

from .geometry import (ConvexPolygon, GeometryError, normalize_angle,
                       overlap_area, segment_intersects_polygon,
                       _point_in_polygon)
from .record import Record

DIRECTIONS = ("with_map_axis", "against_map_axis")

_LEAF = 8               # entries per R-tree node
_PAD = 1e-9             # a query's margin, relative to the coordinates
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

    def nearest(self, px, py, measure):
        """The ``value`` of the item ``i`` with the least ``(d, i)``, where
        ``(d, value) = measure(i)`` and ``d`` is the squared distance from
        (px, py) to the item, never less than that to its padded box.

        Boxes are opened nearest first; the search stops at a box farther
        than the best ``d`` by more than ``_SLACK``, which absorbs rounding
        in both distances.
        """
        best, best_d, best_i = None, math.inf, -1
        heap = [(0.0, 0, self.root)]
        pushed = 0
        while heap:
            bound, _, child = heapq.heappop(heap)
            limit = best_d * _SLACK
            if bound > limit:
                break
            if type(child) is int:
                d, value = measure(child)
                if d < best_d or (d == best_d and child < best_i):
                    best, best_d, best_i = value, d, child
                continue
            it = iter(child)
            pad = next(it)
            # the point moved by the pad toward each side of a box is as far
            # from that side as the point is from the box grown by the pad
            xr, yr, xl, yl = px + pad, py + pad, px - pad, py - pad
            for x0, y0, x1, y1, c in zip(it, it, it, it, it):
                dx = x0 - xr
                if dx < 0.0:
                    dx = xl - x1
                    if dx < 0.0:
                        dx = 0.0
                dy = y0 - yr
                if dy < 0.0:
                    dy = yl - y1
                    if dy < 0.0:
                        dy = 0.0
                gap = dx * dx + dy * dy
                if gap <= limit:
                    pushed += 1
                    heapq.heappush(heap, (gap, pushed, c))
        return best


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
        object.__setattr__(self, "centreline", pts)
        lanelets = self.lanelets
        object.__setattr__(self, "_lanelet_tree", _tree(
            len(lanelets), lambda i: lanelets[i].shape.vertices))
        object.__setattr__(self, "_segment_tree", _tree(
            len(pts) - 1, lambda i: pts[i:i + 2]))


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
        if entry.keys() != _LANELET_KEYS:
            _check_keys(entry, _LANELET_KEYS, where)
            missing = _LANELET_KEYS - set(entry)
            if missing:
                raise MapError(f"missing keys {sorted(missing)}",
                               location=where)
        try:
            lid = json_string(entry["id"], "id")
        except ValueError as exc:
            raise MapError(str(exc), location=where) from None
        where = f"lanelet {lid!r}"
        vertices = entry["vertices"]
        try:
            for x, y in vertices:
                if type(x) is not float or type(y) is not float:
                    json_number(x, "vertices"), json_number(y, "vertices")
            shape = ConvexPolygon.from_points(vertices)
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
        for x, y in centreline:
            json_number(x, "centreline"), json_number(y, "centreline")
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
