import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from roadcheck import geometry
from roadcheck.geometry import (BoxDims, ConvexPolygon, GeometryError, Pose2D,
                                danger_space, min_distance, normalize_angle,
                                oriented_box, overlap_area, overlaps,
                                segment_intersects_polygon)

from oracles import (_convex_hull, brute_min_distance, brute_overlap,
                     brute_segment_intersects, monte_carlo_overlap_area,
                     random_convex_polygon)


def square(x0, y0, side=1.0):
    return ConvexPolygon(((x0, y0), (x0 + side, y0),
                          (x0 + side, y0 + side), (x0, y0 + side)))


class TestOrientedBox:
    def test_axis_aligned_identity(self):
        box = oriented_box(Pose2D(0, 0, 0), BoxDims(4, 2))
        assert box.vertices == ((2, 1), (-2, 1), (-2, -1), (2, -1))

    def test_rotated_quarter_turn(self):
        box = oriented_box(Pose2D(0, 0, math.pi / 2), BoxDims(4, 2))
        got = {(round(x, 12), round(y, 12)) for x, y in box.vertices}
        assert got == {(-1, 2), (-1, -2), (1, -2), (1, 2)}

    def test_translation_equivariance(self):
        base = oriented_box(Pose2D(0, 0, 0), BoxDims(4, 2))
        moved = oriented_box(Pose2D(5, 3, 0), BoxDims(4, 2))
        assert moved.vertices == tuple((x + 5, y + 3) for x, y in base.vertices)

    @pytest.mark.parametrize("heading", [0.0, 0.3, -2.0])
    def test_projected_coordinates(self, heading):
        # the convexity tolerance follows the box's size, not its distance
        # from the origin: a car at a UTM northing keeps its shape
        box = oriented_box(Pose2D(500_000.0, 5_700_000.0, heading),
                           BoxDims(4.5, 2.0))
        assert box.area == pytest.approx(9.0, abs=1e-6)
        with pytest.raises(GeometryError):
            oriented_box(Pose2D(1e17, 0.0, heading), BoxDims(4.5, 2.0))

    def test_rejects_bad_dims(self):
        with pytest.raises(GeometryError):
            BoxDims(0.0, 2.0)
        with pytest.raises(GeometryError):
            BoxDims(4.0, -1.0)
        with pytest.raises(GeometryError):
            BoxDims(math.inf, 2.0)


class TestMinDistance:
    def test_facing_edges(self):
        assert min_distance(square(0, 0), square(3, 0)) == pytest.approx(2.0)

    def test_overlapping_is_zero(self):
        assert min_distance(square(0, 0), square(0.5, 0.5)) == 0.0

    def test_corner_to_corner(self):
        assert min_distance(square(0, 0), square(2, 2)) == pytest.approx(
            math.sqrt(2), abs=1e-12)

    def test_symmetry(self):
        rng = random.Random(7)
        for _ in range(50):
            a = random_convex_polygon(rng)
            b = random_convex_polygon(rng, centre=(rng.uniform(-4, 4),
                                                   rng.uniform(-4, 4)))
            assert min_distance(a, b) == min_distance(b, a)

    def test_rejects_degenerate(self):
        with pytest.raises(GeometryError):
            ConvexPolygon(((0, 0), (1, 0)))
        with pytest.raises(GeometryError):
            ConvexPolygon(((0, 0), (1, 0), (2, 0)))   # collinear
        # a NaN corner makes every convexity cross product NaN, which no
        # comparison with the tolerance catches
        for bad in (math.nan, math.inf):
            with pytest.raises(GeometryError):
                ConvexPolygon(((0, 0), (1, 0), (1, bad), (0, 1)))


class TestOverlaps:
    def test_identical(self):
        assert overlaps(square(0, 0), square(0, 0))

    def test_separated(self):
        assert not overlaps(square(0, 0), square(2, 0))

    def test_shared_edge_counts(self):
        # oracle: dense membership sampling along the shared boundary finds
        # common points, so closed-set semantics must report an overlap
        a, b = square(0, 0), square(1, 0)
        from oracles import point_in_convex
        shared = [(1.0, y / 50.0) for y in range(51)]
        assert all(point_in_convex(p, a) and point_in_convex(p, b)
                   for p in shared)
        assert overlaps(a, b)
        assert min_distance(a, b) == 0.0

    def test_consistency_with_distance(self):
        rng = random.Random(21)
        for _ in range(200):
            a = random_convex_polygon(rng)
            b = random_convex_polygon(rng, centre=(rng.uniform(-3, 3),
                                                   rng.uniform(-3, 3)))
            d = min_distance(a, b)
            assert overlaps(a, b) == (d == 0.0)
            if overlap_area(a, b) > 0.0:
                assert overlaps(a, b)


class TestOverlapArea:
    def test_identical_unit_squares(self):
        assert overlap_area(square(0, 0), square(0, 0)) == pytest.approx(1.0)

    def test_half_shift(self):
        assert overlap_area(square(0, 0), square(0.5, 0)) == pytest.approx(0.5)

    def test_disjoint_zero(self):
        assert overlap_area(square(0, 0), square(5, 5)) == 0.0

    def test_monte_carlo_agreement(self):
        rng = random.Random(3)
        pairs = 0
        while pairs < 4:
            a = random_convex_polygon(rng, radius=2.0)
            b = random_convex_polygon(rng, centre=(rng.uniform(-1, 1),
                                                   rng.uniform(-1, 1)),
                                      radius=2.0)
            area = overlap_area(a, b)
            if area < 0.5:
                continue
            pairs += 1
            estimate = monte_carlo_overlap_area(a, b, samples=1_000_000,
                                                seed=pairs)
            assert estimate == pytest.approx(area, rel=0.01)


class TestDangerSpace:
    def test_axis_aligned(self):
        ds = danger_space(Pose2D(0, 0, 0), BoxDims(4, 2), 10.0)
        xs = [v[0] for v in ds.vertices]
        ys = [v[1] for v in ds.vertices]
        assert (min(xs), max(xs)) == (2.0, 12.0)
        assert (min(ys), max(ys)) == (-1.0, 1.0)

    def test_reflected_heading(self):
        ds = danger_space(Pose2D(0, 0, math.pi), BoxDims(4, 2), 10.0)
        xs = [round(v[0], 9) for v in ds.vertices]
        assert (min(xs), max(xs)) == (-12.0, -2.0)

    def test_negative_length_rejected(self):
        # the stopping distance is at least 0.058 m, so a zero length is
        # as malformed as a negative one
        for length in (-1.0, 0.0, math.nan):
            with pytest.raises(GeometryError):
                danger_space(Pose2D(0, 0, 0), BoxDims(4, 2), length)


def _corners_polygon(ox, oy, c, s, local):
    """``ConvexPolygon`` of the corners the rectangle constructor computes,
    written as oriented_box and danger_space computed them before it."""
    return ConvexPolygon(tuple(
        (ox + c * lx - s * ly, oy + s * lx + c * ly) for lx, ly in local))


def _box_reference(pose, dims):
    hl, hw = dims.length / 2.0, dims.width / 2.0
    return _corners_polygon(pose.x, pose.y, math.cos(pose.heading),
                            math.sin(pose.heading),
                            ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)))


def _danger_space_reference(pose, dims, length):
    c, s = math.cos(pose.heading), math.sin(pose.heading)
    hw = dims.width / 2.0
    return _corners_polygon(pose.x + c * dims.length / 2.0,
                            pose.y + s * dims.length / 2.0, c, s,
                            ((length, hw), (0.0, hw), (0.0, -hw),
                             (length, -hw)))


def _built(make, *args):
    """What ``make`` builds: vertices (with the signs of zeros) and area,
    or the class and message of what it raises."""
    try:
        poly = make(*args)
    except GeometryError as exc:
        return "raise", type(exc), str(exc)
    return "polygon", repr(poly.vertices), repr(poly.area), poly


_centres = st.sampled_from([(0.0, 0.0), (5e5, 5.7e6), (1e17, 1e17),
                            (-1e17, 3e16)])
_offsets = st.floats(min_value=-100.0, max_value=100.0)
_poses = st.builds(lambda c, dx, dy, h: Pose2D(c[0] + dx, c[1] + dy, h),
                   _centres, _offsets, _offsets,
                   st.floats(min_value=-50.0, max_value=50.0))
_dims = st.builds(BoxDims, st.floats(min_value=0.01, max_value=40.0),
                  st.floats(min_value=0.01, max_value=6.0))


def _same(got, want):
    assert got[:3] == want[:3]
    if got[0] == "polygon":
        assert got[3] == want[3]


class TestRectangle:
    """Boxes and danger spaces are built by one unrolled 4-corner
    constructor; it must agree with ``ConvexPolygon(...)`` bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(_poses, _dims)
    def test_box_matches_polygon(self, pose, dims):
        _same(_built(oriented_box, pose, dims),
              _built(_box_reference, pose, dims))

    @settings(max_examples=400, deadline=None)
    @given(_poses, _dims, st.floats(min_value=1e-3, max_value=500.0))
    def test_danger_space_matches_polygon(self, pose, dims, length):
        _same(_built(danger_space, pose, dims, length),
              _built(_danger_space_reference, pose, dims, length))

    def test_collapsed_corners_same_message(self):
        pose, dims = Pose2D(1e17, 0.0, 0.3), BoxDims(4.5, 2.0)
        got = _built(oriented_box, pose, dims)
        assert got[0] == "raise" and "not strictly convex" in got[2]
        assert got == _built(_box_reference, pose, dims)

    @pytest.mark.parametrize("where", range(7))
    def test_nan_corner_rejected(self, where):
        args = [3.0, -2.0, math.cos(0.4), math.sin(0.4), 2.25, -2.25, 0.9]
        args[where] = math.nan
        ox, oy, c, s, front, back, hw = args
        local = ((front, hw), (back, hw), (back, -hw), (front, -hw))
        got = _built(geometry._rectangle, *args)
        assert got == _built(_corners_polygon, ox, oy, c, s, local)
        assert got[0] == "raise"

    @settings(max_examples=300, deadline=None)
    @given(_poses, _dims, _offsets, _offsets, st.floats(-4.0, 4.0), _dims)
    def test_separating_axes_match_projection(self, pose, dims, dx, dy,
                                              heading, other_dims):
        # the inlined edge loops against the edges() and _project walk
        other = Pose2D(pose.x + dx / 10.0, pose.y + dy / 10.0, heading)
        try:
            a = oriented_box(pose, dims)
            b = oriented_box(other, other_dims)
        except GeometryError:
            return

        def separated(a, b):
            for poly in (a, b):
                for (x1, y1), (x2, y2) in poly.edges():
                    alo, ahi = geometry._project(a, y2 - y1, x1 - x2)
                    blo, bhi = geometry._project(b, y2 - y1, x1 - x2)
                    if alo > bhi or blo > ahi:
                        return True
            return False

        assert geometry._separated(a.vertices, b.vertices) == separated(a, b)
        for x, y in b.vertices:
            assert geometry._point_in_polygon((x, y), a) == all(
                (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) >= 0.0
                for (x1, y1), (x2, y2) in a.edges())


_headings = st.floats(min_value=-4.0, max_value=4.0)
_nudges = st.integers(min_value=-3, max_value=3)


def _nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def _shape_pair(kind_a, kind_b, pose_a, pose_b, dims_a, dims_b, length):
    """The two shapes, each as ``_rectangle`` and as the eager reference
    build; None when the reference build raises."""
    make = {"box": (oriented_box, _box_reference),
            "ds": (danger_space, _danger_space_reference)}
    out = []
    for kind, pose, dims in ((kind_a, pose_a, dims_a), (kind_b, pose_b, dims_b)):
        fast, ref = make[kind]
        args = (pose, dims) if kind == "box" else (pose, dims, length)
        try:
            out.append((fast(*args), ref(*args)))
        except GeometryError:
            return None
    return out


class TestBroadPhase:
    """The bounding-circle test in ``overlaps`` never changes its answer:
    it equals the separating-axis test on the eagerly built corners."""

    _kinds = st.sampled_from(["box", "ds"])

    def _agree(self, pair):
        if pair is None:
            return
        (a, ref_a), (b, ref_b) = pair
        assert overlaps(a, b) == (not geometry._separated(ref_a.vertices,
                                                           ref_b.vertices))

    @settings(max_examples=400, deadline=None)
    @given(_kinds, _kinds, _poses, _offsets, _offsets, _headings, _dims,
           _dims, st.floats(min_value=1e-3, max_value=200.0))
    def test_random_pairs(self, kind_a, kind_b, pose, dx, dy, heading,
                          dims_a, dims_b, length):
        other = Pose2D(pose.x + dx / 4.0, pose.y + dy / 4.0, heading)
        self._agree(_shape_pair(kind_a, kind_b, pose, other, dims_a, dims_b,
                                length))

    @settings(max_examples=400, deadline=None)
    @given(_kinds, _centres, _offsets, _offsets,
           st.sampled_from([0.0, math.pi / 2, -math.pi, -math.pi / 2]),
           st.sampled_from([0.0, math.pi / 2]), _dims, _dims,
           st.floats(min_value=1e-3, max_value=200.0), _nudges, _nudges)
    def test_touching_pairs(self, kind_a, centre, dx, dy, heading, turn,
                            dims_a, dims_b, length, nudge_x, nudge_y):
        # the second box's back face (or side, when turned) meets the first
        # shape's front face, along an axis, moved by a few ulps
        pose = Pose2D(centre[0] + dx, centre[1] + dy, heading)
        reach = dims_a.length / 2.0 + (length if kind_a == "ds" else 0.0)
        reach += (dims_b.width if turn else dims_b.length) / 2.0
        c, s = round(math.cos(heading)), round(math.sin(heading))
        other = Pose2D(_nudged(pose.x + c * reach, nudge_x),
                       _nudged(pose.y + s * reach, nudge_y), heading + turn)
        self._agree(_shape_pair(kind_a, "box", pose, other, dims_a, dims_b,
                                length))

    @settings(max_examples=400, deadline=None)
    @given(_kinds, _centres, _offsets, _offsets, _headings, _dims, _dims,
           st.floats(min_value=1e-3, max_value=200.0), _nudges, _nudges)
    def test_corner_to_corner_pairs(self, kind_a, centre, dx, dy, heading,
                                    dims_a, dims_b, length, nudge_x,
                                    nudge_y):
        # the tight case of the circles: the second box's rear-right corner
        # at the first shape's front-left corner, both diagonals on one line
        pose = Pose2D(centre[0] + dx, centre[1] + dy, heading)
        front = dims_a.length / 2.0 + (length if kind_a == "ds" else 0.0)
        back = dims_a.length / 2.0 if kind_a == "ds" else -front
        mid, half = (front + back) / 2.0, (front - back) / 2.0
        c, s = math.cos(heading), math.sin(heading)
        lx, ly = half, dims_a.width / 2.0           # corner from the centre
        ux, uy = c * lx - s * ly, s * lx + c * ly
        norm = math.hypot(ux, uy)
        ux, uy = ux / norm, uy / norm
        r_b = math.hypot(dims_b.length, dims_b.width) / 2.0
        x = pose.x + c * mid + ux * (norm + r_b)
        y = pose.y + s * mid + uy * (norm + r_b)
        other = Pose2D(_nudged(x, nudge_x), _nudged(y, nudge_y),
                       math.atan2(-uy, -ux)
                       - math.atan2(-dims_b.width, -dims_b.length))
        self._agree(_shape_pair(kind_a, "box", pose, other, dims_a, dims_b,
                                length))

    def test_shared_edge(self):
        a = oriented_box(Pose2D(0.0, 0.0, 0.0), BoxDims(4.0, 2.0))
        b = oriented_box(Pose2D(4.0, 0.0, 0.0), BoxDims(4.0, 2.0))
        apart = oriented_box(Pose2D(math.nextafter(4.0, 5.0), 0.0, 0.0),
                             BoxDims(4.0, 2.0))
        assert a._circle is not None and b._circle is not None
        assert overlaps(a, b) and overlaps(b, a)
        assert not overlaps(a, apart)

    def test_far_pair_decided_by_circles(self, monkeypatch):
        separated, calls = geometry._separated, []

        def counted(av, bv):
            calls.append((av, bv))
            return separated(av, bv)

        monkeypatch.setattr(geometry, "_separated", counted)
        a = oriented_box(Pose2D(5e5, 5.7e6, 0.3), BoxDims(4.5, 2.0))
        b = danger_space(Pose2D(5e5 + 60.0, 5.7e6, 2.0), BoxDims(4.5, 2.0),
                         20.0)
        assert not overlaps(a, b)
        assert calls == []
        near = oriented_box(Pose2D(5e5 + 3.0, 5.7e6, 0.3), BoxDims(4.5, 2.0))
        assert overlaps(a, near)
        assert len(calls) == 1


def _rectangle_args(exp, ratio_exp, fx, fy, heading, is_box, long_side):
    """Inputs near the bound of the unchecked build: extents up to 1e6
    apart, and a centre up to 1e9 times the smaller extent away from the
    origin."""
    lo = 10.0 ** exp
    hi = lo * 10.0 ** ratio_exp
    length, hw = (hi, lo) if long_side else (lo, hi)
    lim = 1e9 * lo
    back = -length / 2.0 if is_box else 0.0
    return (fx * lim, fy * lim, math.cos(heading), math.sin(heading),
            back + length, back, hw)


class TestDeferredRectangle:
    """A rectangle skips ``ConvexPolygon``'s checks only when they are sure
    to pass: every other one raises at construction, as they do."""

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    @pytest.mark.parametrize("where", range(7))
    def test_infinite_corner_rejected(self, where, value):
        args = [3.0, -2.0, math.cos(0.4), math.sin(0.4), 2.25, -2.25, 0.9]
        args[where] = value
        ox, oy, c, s, front, back, hw = args
        local = ((front, hw), (back, hw), (back, -hw), (front, -hw))
        got = _built(geometry._rectangle, *args)
        assert got == _built(_corners_polygon, ox, oy, c, s, local)
        assert got[0] == "raise"

    @pytest.mark.parametrize("args", [
        (3.0, -2.0, math.cos(0.4), math.sin(0.4), 2.25, -2.25, 1e308),
        (3.0, -2.0, 1.0, 0.0, 1e308, -1e308, 0.9),
        (1.7e308, 0.0, 1.0, 0.0, 1e308, 0.0, 5e307),
        (1e298, 1e298, 1.0, 0.0, 1e290, -1e290, 1e290),
        (1e17, 0.0, math.cos(0.3), math.sin(0.3), 2.25, -2.25, 1.0),
        (-1e17, 3e16, math.cos(2.0), math.sin(2.0), 20.0, 0.0, 1.0),
        (3.0, -2.0, 0.0, 0.0, 2.25, -2.25, 0.9),
        (1e8, 0.0, 1e-12, 0.0, 2.25, -2.25, 0.9),
        (3.0, -2.0, 1.0, 0.0, -2.25, 2.25, 0.9),
        (3.0, -2.0, 1.0, 0.0, 2.25, -2.25, -0.9),
        (0.0, 0.0, 1.0, 0.0, 1e-9, 0.0, 1e4),
        (0.0, 0.0, math.cos(0.6040744871223511), math.sin(0.6040744871223511),
         1e20, 1e20 - 16384.0, 11121.13313560678),
        (0.0, 0.0, 1.0, 0.0, 5e-171, -5e-171, 5e-171),
        (2e-162, -3e-162, math.cos(0.4), math.sin(0.4), 1e-170, 0.0, 5e-171),
    ], ids=["overflow-width", "overflow-length", "overflow-centre",
            "overflow-area", "collapse-box", "collapse-ds", "no-rotation",
            "short-rotation", "clockwise-length", "clockwise-width",
            "sliver", "far-front", "underflow-box", "underflow-ds"])
    def test_error_at_construction(self, args):
        ox, oy, c, s, front, back, hw = args
        local = ((front, hw), (back, hw), (back, -hw), (front, -hw))
        got = _built(geometry._rectangle, *args)
        assert got[0] == "raise"
        assert got == _built(_corners_polygon, ox, oy, c, s, local)

    def test_extent_floor(self):
        # below 1e-100 the checks run, whether they pass or not; above it
        # they are skipped, and the rectangle carries a bounding circle
        for size, unchecked in ((5e-101, False), (2e-100, True)):
            poly = geometry._rectangle(0.0, 0.0, 1.0, 0.0, size, -size, size)
            assert (poly._circle is not None) == unchecked
            assert poly.area > 0.0

    @settings(max_examples=500, deadline=None)
    @given(st.floats(min_value=-99.9, max_value=140.0),
           st.floats(min_value=0.0, max_value=5.999),
           st.floats(min_value=-0.999, max_value=0.999),
           st.floats(min_value=-0.999, max_value=0.999),
           _headings, st.booleans(), st.booleans())
    def test_forced_corners_match_eager_build(self, exp, ratio_exp, fx, fy,
                                              heading, is_box, long_side):
        args = _rectangle_args(exp, ratio_exp, fx, fy, heading, is_box,
                               long_side)
        ox, oy, c, s, front, back, hw = args
        poly = geometry._rectangle(*args)
        assert poly._circle is not None
        ref = _corners_polygon(ox, oy, c, s, ((front, hw), (back, hw),
                                              (back, -hw), (front, -hw)))
        assert repr(poly.vertices) == repr(ref.vertices)
        assert repr(poly.area) == repr(ref.area)
        assert poly == ref and ref == poly
        assert hash(poly) == hash(ref)

    def test_first_read_does_not_matter(self):
        # corners forced by area, repr, hash and equality all agree
        args = (3.0, -2.0, math.cos(0.4), math.sin(0.4), 2.25, -2.25, 0.9)
        by_area, by_repr, by_hash, by_eq = (geometry._rectangle(*args)
                                            for _ in range(4))
        area, text, key = by_area.area, repr(by_repr), hash(by_hash)
        assert by_eq == by_area
        assert repr(by_area) == text and hash(by_repr) == key
        assert repr(by_hash.area) == repr(area) == repr(by_eq.area)


class TestRigidMotionInvariance:
    def test_distance_and_area_preserved(self):
        rng = random.Random(11)
        for _ in range(100):
            a = random_convex_polygon(rng)
            b = random_convex_polygon(rng, centre=(rng.uniform(-4, 4),
                                                   rng.uniform(-4, 4)))
            angle = rng.uniform(-math.pi, math.pi)
            dx, dy = rng.uniform(-30, 30), rng.uniform(-30, 30)
            a2 = a.transformed(angle, dx, dy)
            b2 = b.transformed(angle, dx, dy)
            assert min_distance(a2, b2) == pytest.approx(
                min_distance(a, b), abs=1e-9)
            assert overlap_area(a2, b2) == pytest.approx(
                overlap_area(a, b), abs=1e-9)


class TestOracleAgreement:
    def test_min_distance_against_enumeration(self):
        rng = random.Random(42)
        for _ in range(300):
            a = random_convex_polygon(rng)
            b = random_convex_polygon(rng, centre=(rng.uniform(-5, 5),
                                                   rng.uniform(-5, 5)))
            assert min_distance(a, b) == pytest.approx(
                brute_min_distance(a, b), abs=1e-9)

    def test_overlap_against_membership(self):
        rng = random.Random(43)
        for _ in range(300):
            a = random_convex_polygon(rng)
            b = random_convex_polygon(rng, centre=(rng.uniform(-4, 4),
                                                   rng.uniform(-4, 4)))
            assert overlaps(a, b) == brute_overlap(a, b)


_grid = st.integers(min_value=-4, max_value=4)


@st.composite
def _grid_polygon(draw):
    """The hull of points on the even integer grid, so that every edge
    midpoint lies on the integer grid too."""
    pts = draw(st.lists(st.tuples(_grid, _grid), min_size=3, max_size=8))
    hull = _convex_hull([(2 * x, 2 * y) for x, y in pts])
    assume(len(hull) >= 3)
    return ConvexPolygon(hull)


class TestSegmentIntersectsPolygon:
    """Against end membership and edge crossings, on small integers, where
    every product either side computes is exact, so the two must agree."""

    @settings(max_examples=600, deadline=None)
    @given(_grid_polygon(), st.sampled_from(
        ["free", "zero", "edge", "along_edge", "through_vertex",
         "ends_on_edge"]), st.data())
    def test_against_membership_and_crossings(self, poly, kind, data):
        verts = poly.vertices
        i = data.draw(st.integers(0, len(verts) - 1))
        (ax, ay), (bx, by) = verts[i], verts[(i + 1) % len(verts)]
        ex, ey = bx - ax, by - ay
        far = st.tuples(_grid, _grid).map(lambda v: (3.0 * v[0], 3.0 * v[1]))
        steps = st.integers(min_value=-2, max_value=3)
        if kind == "free":
            p, q = data.draw(far), data.draw(far)
        elif kind == "zero":
            p = q = data.draw(st.one_of(far, st.sampled_from(verts)))
        elif kind == "edge":
            p, q = (ax, ay), (bx, by)
        elif kind == "along_edge":
            s, t = data.draw(steps), data.draw(steps)
            p, q = (ax + s * ex, ay + s * ey), (ax + t * ex, ay + t * ey)
        elif kind == "through_vertex":
            dx, dy = data.draw(st.tuples(_grid, _grid))
            s, t = data.draw(steps), data.draw(steps)
            p, q = (ax + s * dx, ay + s * dy), (ax - t * dx, ay - t * dy)
        else:
            p, q = data.draw(far), (ax + ex / 2, ay + ey / 2)
        want = brute_segment_intersects(p, q, poly)
        assert segment_intersects_polygon(p, q, poly) == want
        assert segment_intersects_polygon(q, p, poly) == want


def test_normalize_angle_range():
    for a in (-10.0, -math.pi, 0.0, math.pi, 10.0, 100.0):
        v = normalize_angle(a)
        assert -math.pi <= v < math.pi


def test_from_points_accepts_clockwise():
    cw = ((0, 0), (0, 1), (1, 1), (1, 0))
    poly = ConvexPolygon.from_points(cw)
    assert poly.area == pytest.approx(1.0)
