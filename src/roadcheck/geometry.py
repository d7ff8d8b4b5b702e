"""Planar geometry kernel: oriented boxes, convex polygons, distance and
overlap predicates, and forward-projected danger spaces.

All values are immutable and all operations are pure functions, so everything
here is safe to share across threads.  Coordinates live in a local metric
plane; angles are radians, counter-clockwise from the +x axis.

Conventions:
  * polygons are strictly convex, counter-clockwise, >= 3 vertices
  * touching counts as overlapping (closed-set semantics)
  * every intersection test, of two polygons or of a segment and a polygon,
    is the separating-axis test ``_separated`` on two vertex loops

Boxes and danger spaces whose polygon checks are sure to pass (finite
inputs; for length L and half-width H, min(L, H) above 1e-100, so that no
product underflows, and above 1e-6 max(L, H); inputs below 1e9 min(L, H)
and 1e150; cos^2 + sin^2 within 1e-12 of 1) skip them and carry a bounding
circle, widened by 1e-10 of their coordinates; any other runs them.
overlaps first compares two such circles, as a broad phase (Ericson,
"Real-Time Collision Detection", 2004, ch. 4).  Sound: the corners are
exact to a few ulps of that size, and rectangles at distance g are
g/sqrt(2) apart along an edge normal, where separating axes round by a few
ulps too.
"""

from __future__ import annotations

import math

from .record import Record

_TWO_PI = 2.0 * math.pi
_isfinite = math.isfinite

# Tolerance for the strict-convexity test, scaled by polygon extent.
_CONVEXITY_EPS = 1e-12


class GeometryError(ValueError):
    """Invalid geometric construction or argument."""


def normalize_angle(a: float) -> float:
    """Map an angle to [-pi, pi)."""
    a = math.fmod(a + math.pi, _TWO_PI)
    if a < 0.0:
        a += _TWO_PI
    return a - math.pi


class Pose2D(Record):
    """Position plus heading; heading is normalised to [-pi, pi)."""

    __slots__ = _fields = ("x", "y", "heading")

    def __init__(self, x, y, heading):
        if not (_isfinite(x) and _isfinite(y) and _isfinite(heading)):
            raise GeometryError("pose components must be finite")
        _set_x(self, x)
        _set_y(self, y)
        _set_heading(self, normalize_angle(heading))


_set_x, _set_y, _set_heading = Pose2D._setters


class BoxDims(Record):
    """Vehicle footprint: length along heading, width across it."""

    __slots__ = _fields = ("length", "width")

    def __post_init__(self):
        if not (0.0 < self.length < math.inf and 0.0 < self.width < math.inf):
            raise GeometryError(f"box dimensions must be finite and positive, "
                                f"got {self.length}x{self.width}")


class ConvexPolygon(Record):
    """Strictly convex polygon with counter-clockwise vertex order."""

    _fields = ("vertices",)
    _circle = None      # an unchecked rectangle's (x, y, radius + slack)

    def __init__(self, vertices):
        object.__setattr__(self, "vertices",
                           tuple([(float(x), float(y)) for x, y in vertices]))
        self.__post_init__()

    def __post_init__(self):
        verts = self.vertices
        n = len(verts)
        if n < 3:
            raise GeometryError(f"polygon needs >= 3 vertices, got {n}")
        xs, ys = zip(*verts)
        scale = max(max(xs) - min(xs), max(ys) - min(ys)) or 1.0
        eps = _CONVEXITY_EPS * scale * scale
        area2 = 0.0
        # each vertex with the next two, cyclically
        (ax, ay), (bx, by) = verts[0], verts[1]
        for i, (cx, cy) in enumerate(verts[2:] + verts[:2]):
            cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            if cross <= eps:
                raise GeometryError(
                    "polygon is not strictly convex in CCW order "
                    f"(cross={cross:g} at vertex {i})")
            area2 += ax * by - bx * ay
            ax, ay, bx, by = bx, by, cx, cy
        if not math.isfinite(area2):
            # a NaN vertex passes every convexity test above
            raise GeometryError("polygon vertices must be finite")
        object.__setattr__(self, "_area", 0.5 * area2)

    @classmethod
    def from_points(cls, points) -> "ConvexPolygon":
        """Build from points in either winding order; CW input is reversed."""
        pts = tuple([(float(x), float(y)) for x, y in points])
        area2 = 0.0
        for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
            area2 += ax * by - bx * ay
        poly = object.__new__(cls)
        object.__setattr__(poly, "vertices", pts[::-1] if area2 < 0.0 else pts)
        poly.__post_init__()
        return poly

    @property
    def area(self) -> float:
        return self._area

    def edges(self):
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            yield verts[i], verts[(i + 1) % n]

    def transformed(self, angle: float, dx: float, dy: float) -> "ConvexPolygon":
        """Rotate about the origin by ``angle`` then translate."""
        c, s = math.cos(angle), math.sin(angle)
        return ConvexPolygon(tuple(
            (c * x - s * y + dx, s * x + c * y + dy) for x, y in self.vertices))


def _rectangle(ox: float, oy: float, c: float, s: float, front: float,
               back: float, hw: float) -> ConvexPolygon:
    """The rectangle with local corners (front, hw), (back, hw),
    (back, -hw), (front, -hw), rotated by (cos, sin) = (c, s) and moved to
    (ox, oy): CCW from the front-left corner when front > back.  Built
    without ``ConvexPolygon``'s checks only if they are sure to pass (see
    the module docstring).
    """
    c_f, s_f, c_b, s_b = c * front, s * front, c * back, s * back
    c_w, s_w = c * hw, s * hw
    x0, y0 = ox + c_f - s_w, oy + s_f + c_w
    x1, y1 = ox + c_b - s_w, oy + s_b + c_w
    x2, y2 = ox + c_b + s_w, oy + s_b - c_w
    x3, y3 = ox + c_f + s_w, oy + s_f - c_w
    corners = ((x0, y0), (x1, y1), (x2, y2), (x3, y3))
    length = front - back
    # a NaN fails every comparison, so it never makes a rectangle eligible
    lo, hi = (length, hw) if length < hw else (hw, length)
    lim = 1e9 * lo
    if not (1e-100 < lo and 1e-6 * hi < lo and lim < 1e150 and -lim < back
            and front < lim and -lim < ox < lim and -lim < oy < lim
            and -1e-12 < c * c + s * s - 1.0 < 1e-12):
        return ConvexPolygon(corners)
    poly = object.__new__(ConvexPolygon)
    object.__setattr__(poly, "vertices", corners)
    # summed from 0.0 in vertex order, as ConvexPolygon sums it
    object.__setattr__(poly, "_area", 0.5 * (
        0.0 + (x0 * y1 - x1 * y0) + (x1 * y2 - x2 * y1)
        + (x2 * y3 - x3 * y2) + (x3 * y0 - x0 * y3)))
    mid, r = 0.5 * (front + back), math.hypot(0.5 * length, hw)
    x, y = ox + c * mid, oy + s * mid
    object.__setattr__(poly, "_circle",
                       (x, y, r + 1e-10 * (r + abs(x) + abs(y))))
    return poly


def oriented_box(pose: Pose2D, dims: BoxDims) -> ConvexPolygon:
    """Rectangle centred at the pose, long axis along the heading.

    Vertices come out CCW starting at the front-left corner, so an
    axis-aligned 4x2 box at the origin is (2,1), (-2,1), (-2,-1), (2,-1).
    """
    hl = dims.length / 2.0
    return _rectangle(pose.x, pose.y, math.cos(pose.heading),
                      math.sin(pose.heading), hl, -hl, dims.width / 2.0)


def _project(poly: ConvexPolygon, ax: float, ay: float) -> tuple[float, float]:
    lo = hi = poly.vertices[0][0] * ax + poly.vertices[0][1] * ay
    for x, y in poly.vertices[1:]:
        d = x * ax + y * ay
        if d < lo:
            lo = d
        elif d > hi:
            hi = d
    return lo, hi


def _separated(av, bv) -> bool:
    """True iff an edge normal of either CCW vertex loop separates them.  A
    segment is the loop (p, q), with its normal both ways; a zero-length
    one has a zero normal, so the other loop's axes alone decide."""
    (ax0, ay0), a_rest = av[0], av[1:]
    (bx0, by0), b_rest = bv[0], bv[1:]
    for verts in (av, bv):
        x1, y1 = verts[-1]
        for x2, y2 in verts:
            # outward normal of the CCW edge (x1, y1) -> (x2, y2), and each
            # loop's interval along it, as _project computes them
            nx, ny = y2 - y1, x1 - x2
            x1, y1 = x2, y2
            alo = ahi = ax0 * nx + ay0 * ny
            for x, y in a_rest:
                d = x * nx + y * ny
                if d < alo:
                    alo = d
                elif d > ahi:
                    ahi = d
            blo = bhi = bx0 * nx + by0 * ny
            for x, y in b_rest:
                d = x * nx + y * ny
                if d < blo:
                    blo = d
                elif d > bhi:
                    bhi = d
            if alo > bhi or blo > ahi:
                return True
    return False


def overlaps(a: ConvexPolygon, b: ConvexPolygon) -> bool:
    """Closed-set overlap test via separating axes; touching counts."""
    ca, cb = a._circle, b._circle
    if ca and cb and math.hypot(ca[0] - cb[0], ca[1] - cb[1]) > ca[2] + cb[2]:
        return False
    return not _separated(a.vertices, b.vertices)


def _support(poly: ConvexPolygon, dx: float, dy: float) -> tuple[float, float]:
    best = poly.vertices[0]
    best_d = best[0] * dx + best[1] * dy
    for v in poly.vertices[1:]:
        d = v[0] * dx + v[1] * dy
        if d > best_d:
            best, best_d = v, d
    return best


def _closest_on_segment(ax, ay, bx, by):
    """Point of segment AB closest to the origin."""
    abx, aby = bx - ax, by - ay
    denom = abx * abx + aby * aby
    if denom <= 0.0:
        return ax, ay
    t = -(ax * abx + ay * aby) / denom
    if t <= 0.0:
        return ax, ay
    if t >= 1.0:
        return bx, by
    return ax + t * abx, ay + t * aby


def _gjk_distance(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Distance between disjoint convex polygons (GJK on the difference)."""
    def support(dx, dy):
        pa = _support(a, dx, dy)
        pb = _support(b, -dx, -dy)
        return pa[0] - pb[0], pa[1] - pb[1]

    s0 = support(1.0, 0.0)
    s1 = support(-s0[0], -s0[1])
    p, q = s0, s1
    best = math.inf
    for _ in range(200):
        vx, vy = _closest_on_segment(p[0], p[1], q[0], q[1])
        vlen2 = vx * vx + vy * vy
        if vlen2 <= 1e-24:
            # callers pass disjoint polygons: the gap is tiny, not zero
            return math.hypot(vx, vy)
        best = min(best, math.sqrt(vlen2))
        w = support(-vx, -vy)
        # no progress toward the origin means v is the true closest point
        if vlen2 - (vx * w[0] + vy * w[1]) <= 1e-12 * vlen2:
            return math.sqrt(vlen2)
        cp = _closest_on_segment(p[0], p[1], w[0], w[1])
        cq = _closest_on_segment(q[0], q[1], w[0], w[1])
        if cp[0] ** 2 + cp[1] ** 2 < cq[0] ** 2 + cq[1] ** 2:
            q = w
        else:
            p = w
    return best


def min_distance(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Euclidean gap between two polygons; exactly 0.0 when they overlap."""
    if overlaps(a, b):
        return 0.0
    # canonical argument order makes the result exactly symmetric
    if b.vertices < a.vertices:
        a, b = b, a
    return _gjk_distance(a, b)


def _clip_halfplane(points, ax, ay, bx, by):
    """Clip a polygon (point list) to the left side of directed line AB."""
    ex, ey = bx - ax, by - ay
    out = []
    n = len(points)
    for i in range(n):
        px, py = points[i]
        qx, qy = points[(i + 1) % n]
        side_p = ex * (py - ay) - ey * (px - ax)
        side_q = ex * (qy - ay) - ey * (qx - ax)
        if side_p >= 0.0:
            out.append((px, py))
        if (side_p > 0.0 > side_q) or (side_p < 0.0 < side_q):
            t = side_p / (side_p - side_q)
            out.append((px + t * (qx - px), py + t * (qy - py)))
    return out


def overlap_area(a: ConvexPolygon, b: ConvexPolygon) -> float:
    """Area of the intersection (convex clip); 0.0 whenever ``overlaps``
    calls the polygons disjoint, however small the clip's rounding left."""
    pts = list(a.vertices)
    for (p, q) in b.edges():
        pts = _clip_halfplane(pts, p[0], p[1], q[0], q[1])
        if len(pts) < 3:
            return 0.0
    area2 = 0.0
    n = len(pts)
    for i in range(n):
        ax_, ay_ = pts[i]
        bx_, by_ = pts[(i + 1) % n]
        area2 += ax_ * by_ - bx_ * ay_
    if area2 <= 0.0 or _separated(a.vertices, b.vertices):
        return 0.0
    return 0.5 * area2


def danger_space(pose: Pose2D, dims: BoxDims, ds_length: float):
    """Rectangle projected forward from the vehicle's front face.

    Length is ``ds_length`` (> 0) along the heading, width is the vehicle
    width.
    """
    if not ds_length > 0.0:
        raise GeometryError(f"danger space length must be > 0, got {ds_length}")
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    return _rectangle(pose.x + c * dims.length / 2.0,
                      pose.y + s * dims.length / 2.0, c, s, ds_length, 0.0,
                      dims.width / 2.0)


def segment_intersects_polygon(p: tuple[float, float], q: tuple[float, float],
                               poly: ConvexPolygon) -> bool:
    """Closed test: true if segment PQ touches or enters the polygon."""
    return not _separated((p, q), poly.vertices)


def _point_in_polygon(pt, poly: ConvexPolygon) -> bool:
    x, y = pt
    verts = poly.vertices
    ax, ay = verts[-1]
    for bx, by in verts:
        if (bx - ax) * (y - ay) - (by - ay) * (x - ax) < 0.0:
            return False
        ax, ay = bx, by
    return True


def projection_interval(poly: ConvexPolygon, angle: float) -> tuple[float, float]:
    """Project a polygon onto the axis at ``angle``; returns (lo, hi)."""
    return _project(poly, math.cos(angle), math.sin(angle))
