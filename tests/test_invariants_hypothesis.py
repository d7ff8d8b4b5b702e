"""Hypothesis property tests for the core invariants."""

import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadcheck.dsl import format_expr, parse
from roadcheck.engine import FAIL, NOT_APPLICABLE, PASS, Verdict, debounce
from roadcheck.geometry import (BoxDims, ConvexPolygon, Pose2D, min_distance,
                                normalize_angle, overlap_area, overlaps)
from roadcheck.models import MPH_TO_MPS
from roadcheck.trace import ROLES, ActorState, iter_steps


def parse_expression(text):
    return parse(f"const e = {text}").consts[0].expr


def hull(points):
    pts = sorted(set(points))
    if len(pts) < 3:
        return []

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 1e-9:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 1e-9:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


coords = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False,
                   allow_infinity=False)


@st.composite
def convex_polygons(draw, shift=0.0):
    pts = draw(st.lists(st.tuples(coords, coords), min_size=4, max_size=10))
    h = hull([(x + shift, y) for x, y in pts])
    if len(h) < 3:
        return None
    try:
        return ConvexPolygon(tuple(h))
    except Exception:
        return None


polygon_pairs = st.tuples(convex_polygons(), convex_polygons(shift=5.0)).filter(
    lambda ab: ab[0] is not None and ab[1] is not None)


@given(polygon_pairs)
@example((ConvexPolygon(((0.0, -1.0), (1.0, -1.0), (0.0, -3.19e-157))),
          ConvexPolygon(((0.0, 0.0), (5.0, 0.0), (5.0, 1.0)))))
@example((ConvexPolygon(((-8.0, 0.0), (2.68238, 0.0), (0.0, 1.0))),
          ConvexPolygon(((-2.5, -1.35345787959442e-282), (5.0, -7.5),
                         (5.0, -1.0)))))
@settings(max_examples=150, deadline=None)
def test_distance_symmetric_and_consistent(pair):
    a, b = pair
    d = min_distance(a, b)
    assert d == min_distance(b, a)
    assert d >= 0.0
    assert overlaps(a, b) == (d == 0.0)
    if overlap_area(a, b) > 0.0:
        assert d == 0.0


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_normalize_angle_in_range(a):
    v = normalize_angle(a)
    assert -math.pi <= v < math.pi
    # same direction up to 2*pi
    assert math.isclose(math.cos(v), math.cos(a), abs_tol=1e-6)


@given(st.lists(st.sampled_from([PASS, FAIL, NOT_APPLICABLE]),
                min_size=1, max_size=40),
       st.integers(min_value=1, max_value=5))
def test_debounce_idempotent_and_identity(seq, n):
    verdicts = [Verdict("x", float(i), r, {}) for i, r in enumerate(seq)]
    once = debounce(verdicts, n)
    assert debounce(once, n) == once
    assert debounce(verdicts, 1) == verdicts


@st.composite
def expr_texts(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(
            ["1", "2.5", "0.25s", '"av"', "true", "false",
             'speed_of("av")', "time()"]))
    op = draw(st.sampled_from(["and", "or", "+", "-", "*", "<", ">=", "=="]))
    left = draw(expr_texts(depth=depth - 1))
    right = draw(expr_texts(depth=depth - 1))
    if draw(st.booleans()):
        return f"({left}) {op} ({right})"
    return f"{left} {op} {right}"


@given(expr_texts())
@settings(max_examples=300, deadline=None)
def test_expression_format_parse_fixed_point(text):
    try:
        ast = parse_expression(text)
    except Exception:
        return   # generated text may be ungrammatical (e.g. chained cmp)
    assert parse_expression(format_expr(ast)) == ast


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=0.1, max_value=30.0)


def as_json_number(draw, value):
    """``value``, or the same number as a JSON integer when it is one."""
    if value == int(value) and draw(st.booleans()):
        return int(value)
    return value


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_read_state_equals_constructed(data):
    draw = data.draw
    t = draw(st.floats(min_value=0.0, max_value=1e5))
    x, y = draw(finite), draw(finite)
    heading = draw(st.floats(min_value=-50.0, max_value=50.0))
    length, width = draw(positive), draw(positive)
    record = {"t": t, "actor_id": draw(st.text(max_size=5)),
              "role": draw(st.sampled_from(ROLES)), "x": x, "y": y,
              "heading_rad": heading, "length_m": length, "width_m": width}
    for key in ("t", "x", "y", "heading_rad", "length_m", "width_m"):
        record[key] = as_json_number(draw, record[key])
    speed = None
    unit = draw(st.sampled_from([None, "speed_mps", "speed_mph"]))
    if unit is not None:
        record[unit] = draw(st.floats(min_value=0.0, max_value=80.0))
        speed = record[unit] * (MPH_TO_MPS if unit == "speed_mph" else 1.0)
    low_confidence = draw(st.sampled_from([None, False, True]))
    if low_confidence is not None:
        record["low_confidence"] = low_confidence
    ((_, step),) = iter_steps([json.dumps(record)])
    (read,) = step.values()
    built = ActorState(record["actor_id"], record["role"], t,
                       Pose2D(x, y, heading), BoxDims(length, width), speed,
                       bool(low_confidence))
    assert read == built
    assert read.pose == built.pose
    assert -math.pi <= read.pose.heading < math.pi
    assert (read.dims, read.speed, read.low_confidence) == (
        built.dims, built.speed, built.low_confidence)
