"""Differential test of the map index against brute-force scans.

Every map here has more lanelets and centre-line segments than one index
node holds, so each query goes through the index; the scans in
``oracles.py`` give the answers it must reproduce exactly.
"""

import math
import random

import pytest

from oracles import (scan_crosses_centreline, scan_lanelet_at,
                     scan_lanelets_containing, scan_nearest_centreline_point)
from roadcheck.geometry import BoxDims, ConvexPolygon, Pose2D, oriented_box
from roadcheck.trace import _nearest_centreline_point
from roadcheck.worldmap import (Lanelet, OffRoadError, RoadMap,
                                crosses_centreline, lane_orientation_at,
                                lanelet_at, lanelets_containing,
                                nearest_centreline_point)

LANE_W = 3.5
# far off the map; boxes are built only below BOX_LIMIT, where a vehicle
# box is still a valid polygon
FAR = ((1e7, -1e7), (-1e12, 3.0), (0.0, 1e9), (-250.0, -250.0), (5e4, -3e4))
BOX_LIMIT = 1e6


def centreline(rng, kind, n):
    if kind == "horizontal":
        pts = [(10.0 * i, 0.0) for i in range(n + 1)]
    elif kind == "vertical":
        pts = [(-4.0, 12.5 * i) for i in range(n + 1)]
    elif kind == "diagonal":
        pts = [(8.0 * i, -8.0 * i) for i in range(n + 1)]
    else:   # curved, uneven segment lengths
        pts, x, y, heading = [(0.0, 0.0)], 0.0, 0.0, rng.uniform(-math.pi, math.pi)
        for _ in range(n):
            heading += rng.uniform(-0.3, 0.3)
            step = rng.uniform(2.0, 15.0)
            x, y = x + step * math.cos(heading), y + step * math.sin(heading)
            pts.append((x, y))
    k = rng.randrange(1, n)
    pts.insert(k, pts[k])           # a zero-length segment
    return pts


def centroid(l):
    verts = l.shape.vertices
    return (sum(x for x, _ in verts) / len(verts),
            sum(y for _, y in verts) / len(verts))


def random_road(rng) -> RoadMap:
    """A road along a random centre line, one lanelet pair per segment, plus
    copies of some lanelets (equal area, so the id decides) and shrunken
    ones inside others (smaller area, so the area decides)."""
    kind = rng.choice(["horizontal", "vertical", "diagonal", "curved"])
    pts = centreline(rng, kind, rng.randint(9, 40))
    ids = set()

    def new_id():
        while True:
            lid = "".join(rng.choice("abcdefgh") for _ in range(5))
            if lid not in ids:
                ids.add(lid)
                return lid

    lanelets = []
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        length = math.hypot(bx - ax, by - ay)
        if length == 0.0:
            continue
        nx, ny = -(by - ay) / length * LANE_W, (bx - ax) / length * LANE_W
        heading = math.atan2(by - ay, bx - ax)
        right = ((ax - nx, ay - ny), (bx - nx, by - ny), (bx, by), (ax, ay))
        left = ((ax, ay), (bx, by), (bx + nx, by + ny), (ax + nx, ay + ny))
        for verts, orientation, direction in (
                (right, heading, "with_map_axis"),
                (left, heading + math.pi, "against_map_axis")):
            lanelets.append(Lanelet(new_id(), ConvexPolygon.from_points(verts),
                                    orientation, LANE_W, direction))
    picked = rng.sample(lanelets, 6)
    for l in picked[:3]:
        lanelets.append(Lanelet(new_id(), l.shape, l.orientation + 0.5,
                                l.width, l.direction))
    for l in picked[3:]:
        cx, cy = centroid(l)
        inner = [(cx + 0.5 * (x - cx), cy + 0.5 * (y - cy))
                 for x, y in l.shape.vertices]
        lanelets.append(Lanelet(new_id(), ConvexPolygon.from_points(inner),
                                l.orientation - 0.5, l.width, l.direction))
    return RoadMap(lanelets=tuple(lanelets), centreline=tuple(pts))


def probe_points(rng, road):
    marks = []
    for l in rng.sample(road.lanelets, min(12, len(road.lanelets))):
        verts = l.shape.vertices
        marks.append(centroid(l))
        marks.extend(verts)                           # shared corners
        marks.extend(((ax + bx) / 2, (ay + by) / 2)   # shared edges
                     for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]))
    xs = [x for x, _ in road.centreline]
    ys = [y for _, y in road.centreline]
    inside = [(rng.uniform(min(xs) - 20, max(xs) + 20),
               rng.uniform(min(ys) - 20, max(ys) + 20)) for _ in range(40)]
    return marks + list(road.centreline) + inside + list(FAR)


def assert_matches_scan(rng, road, points):
    """Each map query at each of ``points``, and on a random vehicle box
    there, gives what the scan gives."""
    for p in points:
        want = scan_lanelet_at(road, p)
        if want is None:
            with pytest.raises(OffRoadError):
                lane_orientation_at(road, p)
        else:
            assert lanelet_at(road, p) is want
            assert lane_orientation_at(road, p) == want.orientation
        assert nearest_centreline_point(road, p) == scan_nearest_centreline_point(road, p)
        if max(abs(p[0]), abs(p[1])) > BOX_LIMIT:
            continue
        box = oriented_box(Pose2D(p[0], p[1], rng.uniform(-math.pi, math.pi)),
                           BoxDims(rng.uniform(0.5, 12.0), rng.uniform(0.5, 4.0)))
        assert lanelets_containing(road, box) == scan_lanelets_containing(road, box)
        assert crosses_centreline(road, box) == scan_crosses_centreline(road, box)


@pytest.mark.parametrize("seed", range(25))
def test_index_matches_scan(seed):
    rng = random.Random(seed * 104729 + 7)
    road = random_road(rng)
    assert road._lanelet_tree is not None and road._segment_tree is not None
    assert_matches_scan(rng, road, probe_points(rng, road))


def strip(pts, side=1.0):
    """One lanelet beside each segment of the polyline ``pts``, on
    alternate sides, ids in segment order."""
    lanelets = []
    for j, ((ax, ay), (bx, by)) in enumerate(zip(pts, pts[1:])):
        length = math.hypot(bx - ax, by - ay)
        nx, ny = -(by - ay) / length * LANE_W, (bx - ax) / length * LANE_W
        if j % 2:
            verts = ((ax, ay), (bx, by), (bx + nx, by + ny), (ax + nx, ay + ny))
        else:
            verts = ((ax - nx, ay - ny), (bx - nx, by - ny), (bx, by), (ax, ay))
        lanelets.append(Lanelet(f"s{j:04d}", ConvexPolygon.from_points(verts),
                                math.atan2(by - ay, bx - ax), LANE_W,
                                "with_map_axis"))
    return lanelets


def curve(rng, n):
    """A curved polyline of ``n`` segments of 2-15 m."""
    pts, x, y, heading = [(0.0, 0.0)], 0.0, 0.0, rng.uniform(-math.pi, math.pi)
    for _ in range(n):
        heading += rng.uniform(-0.3, 0.3)
        step = rng.uniform(2.0, 15.0)
        x, y = x + step * math.cos(heading), y + step * math.sin(heading)
        pts.append((x, y))
    return pts


def square(lid, x0, y0, x1, y1):
    return Lanelet(lid, ConvexPolygon(((x0, y0), (x1, y0), (x1, y1), (x0, y1))),
                   0.0, LANE_W, "with_map_axis")


def levels(tree) -> int:
    depth, node = 1, tree.root
    while type(node[5]) is not int:
        depth, node = depth + 1, node[5]
    return depth


@pytest.mark.parametrize("n, depth", [(9, 2), (64, 2), (65, 3), (512, 3),
                                      (513, 4)])
def test_level_boundaries(n, depth):
    """One more item than a full level adds a level; both sides of each
    boundary answer as the scan does, for lanelets and segments alike."""
    rng = random.Random(n)
    pts = curve(rng, n)
    road = RoadMap(lanelets=tuple(strip(pts)), centreline=tuple(pts))
    assert levels(road._lanelet_tree) == levels(road._segment_tree) == depth
    points = probe_points(rng, road)
    assert_matches_scan(rng, road, rng.sample(points, min(len(points), 200)))


def test_identical_boxes():
    """Every lanelet and every segment has the same box: every query meets
    all of them, and the smallest id wins a tie."""
    rng = random.Random(11)
    lanelets = [square(f"q{j:03d}", 0.0, -LANE_W, 10.0, 0.0) for j in range(70)]
    pts = [(10.0 * (j % 2), 0.0) for j in range(71)]
    road = RoadMap(lanelets=tuple(lanelets), centreline=tuple(pts))
    assert lanelet_at(road, (5.0, -1.0)).id == "q000"
    assert len(lanelets_containing(road, ConvexPolygon(
        ((4.0, -2.0), (6.0, -2.0), (6.0, -1.0), (4.0, -1.0))))) == 70
    assert_matches_scan(rng, road, probe_points(rng, road))


def test_one_lanelet_covers_the_rest():
    """A lanelet under all the others: its box meets every query on the
    road, and a smaller lanelet wins where one contains the point."""
    rng = random.Random(12)
    pts = curve(rng, 80)
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    cover = square("cover", min(xs) - 20.0, min(ys) - 20.0, max(xs) + 20.0,
                   max(ys) + 20.0)
    road = RoadMap(lanelets=tuple(strip(pts) + [cover]), centreline=tuple(pts))
    points = probe_points(rng, road)
    assert {lanelet_at(road, p).id for p in points if scan_lanelet_at(road, p)
            } > {"cover"}
    assert_matches_scan(rng, road, points)


def test_far_lanelet():
    """A lanelet and a centre-line segment 1e7 m away make their subtrees'
    pads about 1e4 times the others'; near them and near the road, the
    queries still answer as the scan does."""
    rng = random.Random(13)
    pts = curve(rng, 100) + [(1e7, 1e7), (1e7 + 10.0, 1e7)]
    far = square("far", 1e7, 1e7 - LANE_W, 1e7 + 10.0, 1e7)
    road = RoadMap(lanelets=tuple(strip(pts[:-2]) + [far]),
                   centreline=tuple(pts))
    pads = sorted(node[0] for node in road._lanelet_tree.root[5::5])
    assert pads[-1] > 1e3 * pads[0]
    near_far = [(1e7 + 5.0, 1e7 - 1.0), (1e7, 1e7), (1e7 + 10.0, 1e7 - LANE_W),
                (math.nextafter(1e7 + 10.0, math.inf), 1e7 - 1.0),
                (1e7 + 5.0, 1e7 + 1.0), (1e7 - 3.0, 1e7 - 3.0)]
    assert lanelet_at(road, near_far[0]) is far
    assert nearest_centreline_point(road, near_far[4]) == (1e7 + 5.0, 1e7)
    assert_matches_scan(rng, road, probe_points(rng, road) + near_far)


def test_ties_resolve_as_the_scan_does():
    """Of two equal lanelets the smaller id wins, and a point shared by two
    centre-line segments goes to the first of them."""
    road = random_road(random.Random(3))
    for l in road.lanelets:
        twins = sorted((m for m in road.lanelets if m.shape == l.shape),
                       key=lambda m: m.id)
        if len(twins) == 2 and scan_lanelet_at(road, centroid(l)) in twins:
            assert lanelet_at(road, centroid(l)) is twins[0]
    for p in road.centreline:
        assert nearest_centreline_point(road, p) == p


def test_nearest_point_is_the_trace_query():
    assert _nearest_centreline_point is nearest_centreline_point


@pytest.mark.parametrize("pairs, segments, indexed",
                         [(4, 8, False), (5, 9, True)])
def test_index_only_beyond_one_node(pairs, segments, indexed):
    """Eight lanelets or eight segments fit one node and are scanned; one
    more builds the index."""
    lanelets = []
    for i in range(pairs):
        for side, y0 in (("r", -LANE_W), ("l", 0.0)):
            lanelets.append(Lanelet(
                f"{side}{i}", ConvexPolygon(((10.0 * i, y0), (10.0 * i + 10, y0),
                                             (10.0 * i + 10, y0 + LANE_W),
                                             (10.0 * i, y0 + LANE_W))),
                0.0 if side == "r" else math.pi, LANE_W,
                "with_map_axis" if side == "r" else "against_map_axis"))
    pts = tuple((5.0 * i, 0.0) for i in range(segments + 1))
    road = RoadMap(lanelets=tuple(lanelets), centreline=pts)
    assert (road._lanelet_tree is not None) == indexed
    assert (road._segment_tree is not None) == indexed


def test_rounding_past_a_corner_reaches_the_exact_test():
    """One ulp right of the corner (0.3, 0), outside the lanelet's box, the
    point-in-polygon test still says inside (10 + x rounds back to 10.3);
    the index pads its boxes so that it agrees with the scan."""
    corner = ConvexPolygon(((-10.0, -1.0), (0.3, 0.0), (-10.0, 0.0)))
    lanelets = [Lanelet("corner", corner, 0.0, 1.0, "with_map_axis")]
    lanelets += [Lanelet(f"far{i}", ConvexPolygon.from_points(
        [(100.0 + 10 * i, 0.0), (110.0 + 10 * i, 0.0),
         (110.0 + 10 * i, 1.0), (100.0 + 10 * i, 1.0)]), 0.0, 1.0,
        "with_map_axis") for i in range(8)]
    road = RoadMap(lanelets=tuple(lanelets), centreline=((0.0, 0.0), (1.0, 0.0)))
    p = (math.nextafter(0.3, math.inf), 0.0)
    assert road._lanelet_tree is not None
    assert scan_lanelet_at(road, p) is road.lanelets[0]
    assert lanelet_at(road, p) is road.lanelets[0]
