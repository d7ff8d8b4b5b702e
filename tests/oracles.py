"""Independent brute-force oracles used by the tests.

These deliberately avoid the algorithms used by the package (separating
axes, GJK, polygon clipping): distances come from exhaustive vertex/edge
enumeration, overlap from point membership and segment crossings, areas
from Monte-Carlo sampling.  The segment oracle, ``brute_segment_intersects``
(membership and crossings), is independent of the package as well, which
tests a segment against a polygon by separating axes.  The map scans are
the exception: they apply the
package's own exact tests to every lanelet or centre-line segment, the
reference the map index must reproduce bit for bit, ``reference_eval``
is the tree walk that the engine's compiled closures replaced, and
``walk_nesting_depth`` the walk over every bracket that the JSON nesting
check replaced.
"""

import math
import random
import re
from itertools import accumulate, repeat

from roadcheck.engine import _BUILTINS, _COMPARE, EvalError
from roadcheck.geometry import (ConvexPolygon, _point_in_polygon, overlap_area,
                                segment_intersects_polygon)
from roadcheck.inputs import _BRACKETS, _NESTING_STEP


def point_segment_distance(p, a, b):
    px, py = p
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    if denom == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / denom))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def point_in_convex(p, poly: ConvexPolygon) -> bool:
    x, y = p
    for (ax, ay), (bx, by) in poly.edges():
        if (bx - ax) * (y - ay) - (by - ay) * (x - ax) < 0.0:
            return False
    return True


def _segments_cross(p, q, a, b):
    def orient(o, s, t):
        return (s[0] - o[0]) * (t[1] - o[1]) - (s[1] - o[1]) * (t[0] - o[0])

    d1, d2 = orient(p, q, a), orient(p, q, b)
    d3, d4 = orient(a, b, p), orient(a, b, q)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True

    def on_seg(o, s, t):
        return (min(o[0], s[0]) <= t[0] <= max(o[0], s[0])
                and min(o[1], s[1]) <= t[1] <= max(o[1], s[1]))

    for d, seg, pt in ((d1, (p, q), a), (d2, (p, q), b),
                       (d3, (a, b), p), (d4, (a, b), q)):
        if d == 0 and on_seg(seg[0], seg[1], pt):
            return True
    return False


def brute_segment_intersects(p, q, poly: ConvexPolygon) -> bool:
    """Closed test: an end of PQ lies in the polygon, or PQ crosses or
    touches one of its edges."""
    return (point_in_convex(p, poly) or point_in_convex(q, poly)
            or any(_segments_cross(p, q, a, b) for a, b in poly.edges()))


def brute_overlap(a: ConvexPolygon, b: ConvexPolygon) -> bool:
    if any(point_in_convex(v, b) for v in a.vertices):
        return True
    if any(point_in_convex(v, a) for v in b.vertices):
        return True
    for ea in a.edges():
        for eb in b.edges():
            if _segments_cross(ea[0], ea[1], eb[0], eb[1]):
                return True
    return False


def brute_min_distance(a: ConvexPolygon, b: ConvexPolygon) -> float:
    if brute_overlap(a, b):
        return 0.0
    best = math.inf
    for v in a.vertices:
        for p, q in b.edges():
            best = min(best, point_segment_distance(v, p, q))
    for v in b.vertices:
        for p, q in a.edges():
            best = min(best, point_segment_distance(v, p, q))
    return best


def monte_carlo_overlap_area(a: ConvexPolygon, b: ConvexPolygon,
                             samples: int, seed: int = 0) -> float:
    import numpy as np

    xs = [v[0] for v in a.vertices] + [v[0] for v in b.vertices]
    ys = [v[1] for v in a.vertices] + [v[1] for v in b.vertices]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    rng = np.random.default_rng(seed)
    px = rng.uniform(x0, x1, samples)
    py = rng.uniform(y0, y1, samples)
    inside = np.ones(samples, dtype=bool)
    for poly in (a, b):
        for (ax, ay), (bx, by) in poly.edges():
            inside &= (bx - ax) * (py - ay) - (by - ay) * (px - ax) >= 0.0
    return inside.mean() * (x1 - x0) * (y1 - y0)


def random_convex_polygon(rng: random.Random, centre=(0.0, 0.0),
                          radius=2.0, max_vertices=8) -> ConvexPolygon:
    """Strictly convex polygon from hull of random points; retries until valid."""
    cx, cy = centre
    while True:
        n = rng.randint(3, max_vertices)
        pts = [(cx + rng.uniform(-radius, radius),
                cy + rng.uniform(-radius, radius)) for _ in range(n)]
        hull = _convex_hull(pts)
        if len(hull) < 3:
            continue
        try:
            return ConvexPolygon(tuple(hull))
        except Exception:
            continue


def _convex_hull(points):
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 1e-9:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 1e-9:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


# --- brute-force map scans ---------------------------------------------------

def scan_lanelet_at(road, point):
    """Smallest lanelet containing the point, ties to the smallest id; None
    off the road."""
    hits = [l for l in road.lanelets if _point_in_polygon(point, l.shape)]
    return min(hits, key=lambda l: (l.shape.area, l.id)) if hits else None


def scan_lanelets_containing(road, shape):
    out = []
    for l in road.lanelets:
        area = overlap_area(shape, l.shape)
        if area > 0.0:
            out.append((l.id, area))
    return out


def scan_crosses_centreline(road, shape) -> bool:
    pts = road.centreline
    return any(segment_intersects_polygon(pts[i], pts[i + 1], shape)
               for i in range(len(pts) - 1))


def scan_nearest_centreline_point(road, p):
    """Closest centre-line point; the first segment wins ties."""
    px, py = p
    best, best_d = None, math.inf
    pts = road.centreline
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        abx, aby = bx - ax, by - ay
        denom = abx * abx + aby * aby
        t = 0.0 if denom == 0.0 else max(
            0.0, min(1.0, ((px - ax) * abx + (py - ay) * aby) / denom))
        qx, qy = ax + t * abx, ay + t * aby
        d = (qx - px) ** 2 + (qy - py) ** 2
        if d < best_d:
            best, best_d = (qx, qy), d
    return best


# --- reference expression evaluator -----------------------------------------

def reference_eval(node, at):
    """Evaluate ``node`` at the step ``at`` by walking the tree, node by
    node: the evaluator the engine ran before it compiled expressions into
    closures, with the rule that a comparison of a non-finite operand is
    an evaluation error."""
    op, value, args = node.op, node.value, node.args
    if op in ("number", "duration", "bool"):
        return value
    if op == "string":
        return at.resolve(value)
    if op == "not":
        return not reference_eval(args[0], at)
    if op == "neg":
        return -reference_eval(args[0], at)
    if op == "call":
        return _BUILTINS[value](at, *[reference_eval(a, at) for a in args])
    if op == "and":
        return reference_eval(args[0], at) and reference_eval(args[1], at)
    if op == "or":
        return reference_eval(args[0], at) or reference_eval(args[1], at)
    if op not in _COMPARE and op not in ("+", "-", "*", "/"):
        raise EvalError(f"cannot evaluate {op!r}")
    left = reference_eval(args[0], at)
    right = reference_eval(args[1], at)
    if op in _COMPARE:
        if not (math.isfinite(left) and math.isfinite(right)):
            raise EvalError(f"non-finite operand in comparison: "
                            f"{left!r} {op} {right!r}")
        return _COMPARE[op](left, right)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if right == 0:
        raise EvalError("division by zero")
    return left / right


_ESCAPE = re.compile(r"\\.", re.S)
_STRING = re.compile(r'"[^"]*"')


def walk_nesting_depth(text: str) -> int:
    """The deepest point of the brackets of ``text`` outside its strings,
    escapes dropped first and braces read as brackets, found by a running
    sum over every bracket; 0 where there is none.  What follows a quote
    that does not close is counted."""
    brackets = _STRING.sub("", _ESCAPE.sub("", text).translate(_BRACKETS))
    return max(accumulate(map(_NESTING_STEP.get, brackets, repeat(0))),
               default=0)
