import gc
import json
import math
import random
import re
import tracemalloc
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import walk_nesting_depth
from roadcheck.geometry import BoxDims, ConvexPolygon, Pose2D, oriented_box
from roadcheck.inputs import MAX_NESTING, json_loads, json_string
from roadcheck.worldmap import (MapError, OffRoadError, crosses_centreline,
                                lane_orientation_at, lanelets_containing,
                                load_map, serialise_map)

TWO_LANE_DOC = {
    "lanelets": [
        {"id": "east", "vertices": [[0, -3.65], [100, -3.65], [100, 0], [0, 0]],
         "orientation_rad": 0.0, "width_m": 3.65, "direction": "with_map_axis"},
        {"id": "west", "vertices": [[0, 0], [100, 0], [100, 3.65], [0, 3.65]],
         "orientation_rad": math.pi, "width_m": 3.65,
         "direction": "against_map_axis"},
    ],
    "centreline": [[0, 0], [100, 0]],
}


@pytest.fixture()
def road():
    return load_map(json.dumps(TWO_LANE_DOC))


def box_at(x, y, heading=0.0, length=4.0, width=2.0):
    return oriented_box(Pose2D(x, y, heading), BoxDims(length, width))


class TestLoadMap:
    def test_minimal_two_lane_road(self, road):
        assert len(road.lanelets) == 2
        assert road.centreline == ((0.0, 0.0), (100.0, 0.0))

    def test_zero_width_names_the_lanelet(self):
        doc = json.loads(json.dumps(TWO_LANE_DOC))
        doc["lanelets"][0]["width_m"] = 0.0
        with pytest.raises(MapError, match="east"):
            load_map(json.dumps(doc))

    def test_non_convex_lanelet_rejected(self):
        doc = json.loads(json.dumps(TWO_LANE_DOC))
        doc["lanelets"][0]["vertices"] = [[0, 0], [4, 0], [1, 1], [4, 4], [0, 4]]
        with pytest.raises(MapError, match="east"):
            load_map(json.dumps(doc))

    def test_missing_centreline(self):
        doc = {"lanelets": TWO_LANE_DOC["lanelets"]}
        with pytest.raises(MapError, match="centreline"):
            load_map(json.dumps(doc))

    def test_invalid_json_reports_location(self):
        with pytest.raises(MapError, match="line 1"):
            load_map("{not json")

    def test_unknown_keys_warn(self):
        doc = json.loads(json.dumps(TWO_LANE_DOC))
        doc["extra"] = 1
        with pytest.warns(UserWarning, match="extra"):
            road = load_map(json.dumps(doc))
        assert [l.id for l in road.lanelets] == ["east", "west"]

    @pytest.mark.parametrize("where, value", [
        ("vertex", "NaN"), ("centreline", "-Infinity")])
    def test_non_finite_coordinates_rejected(self, where, value):
        doc = json.loads(json.dumps(TWO_LANE_DOC))
        if where == "vertex":
            doc["lanelets"][0]["vertices"][1][0] = 1e308
            message = "polygon vertices must be finite"
        else:
            doc["centreline"][1][1] = 1e308
            message = "centreline coordinates must be finite"
        text = json.dumps(doc).replace("1e+308", value)
        with pytest.raises(MapError, match=message):
            load_map(text)

    @pytest.mark.parametrize("path, value, message", [
        (("lanelets",), "5", "lanelets must be a list"),
        (("centreline", 1), '["a", 0]', "centreline"),
        (("centreline", 1), "[1%s, 0]" % ("0" * 400), "centreline"),
        (("lanelets", 0, "orientation_rad"), "1e400",
         "orientation must be finite"),
        (("lanelets", 0, "width_m"), "NaN", "width"),
        (("lanelets", 0, "width_m"), "Infinity", "width"),
        (("lanelets", 0, "width_m"), "1" + "0" * 400,
         r"^lanelets\[0\]: width_m must be a number within the range of a "
         r"float$"),
        (("lanelets", 0, "vertices", 1), "[1%s, 0]" % ("0" * 400),
         r"^lanelets\[0\]: vertices must be a number within the range"),
        (("lanelets",), "1" + "0" * 5000, "invalid JSON"),
        (("lanelets", 0, "direction"), "5",
         r"^lanelets\[0\]: direction must be a string, got 5$"),
    ], ids=["lanelets-number", "text-point", "huge-int-point",
            "infinite-orientation", "nan-width", "infinite-width",
            "huge-int-width", "huge-int-vertex", "int-past-digit-limit",
            "number-direction"])
    def test_malformed_values_rejected(self, path, value, message):
        doc = json.loads(json.dumps(TWO_LANE_DOC))
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = "@value@"
        with pytest.raises(MapError, match=message):
            load_map(json.dumps(doc).replace('"@value@"', value))

    def test_duplicate_ids_rejected(self):
        doc = json.loads(json.dumps(TWO_LANE_DOC))
        doc["lanelets"][1]["id"] = "east"
        with pytest.raises(MapError, match="duplicate"):
            load_map(json.dumps(doc))

    def test_desk_scale_150m_fixture(self):
        from roadcheck.scenarios import build_map, preset
        road = build_map(preset("safe"))
        xs = [x for l in road.lanelets for x, _ in l.shape.vertices]
        assert max(xs) == 150.0
        assert len(road.lanelets) == 2
        dirs = {l.direction for l in road.lanelets}
        assert dirs == {"with_map_axis", "against_map_axis"}

    def test_round_trip(self, road):
        again = load_map(serialise_map(road))
        assert again == road


def _array(depth, inner="1"):
    return "[" * depth + inner + "]" * depth


class TestJsonNesting:
    """One nesting limit for every JSON document and record, counted on
    the text before it is decoded, whatever the caller's stack depth."""

    @pytest.mark.parametrize("text", [
        _array(MAX_NESTING),
        '{"a": %s}' % _array(MAX_NESTING - 1),
        # brackets in strings, escaped quotes and backslashes among them,
        # do not count
        json.dumps(["[" * 600 + '\\"' + "{" * 600]),
        json.dumps({"k" + "[" * 600: "]" * 900 + "[" * 900}),
        # siblings do not add up
        json.dumps([[[1]] * 400, {"a": [[2]] * 400}]),
    ], ids=["array", "object", "strings", "key", "siblings"])
    def test_within_limit_decoded(self, text):
        assert json_loads(text) == json.loads(text)

    @pytest.mark.parametrize("text", [
        _array(MAX_NESTING + 1),
        '{"a": %s}' % _array(MAX_NESTING),
        '["]"' + ", [" * (MAX_NESTING + 1),
        "[" * 100_000,
    ], ids=["array", "object", "after-string", "unclosed"])
    def test_past_limit_refused(self, text):
        with pytest.raises(RecursionError, match=f"more than {MAX_NESTING}"):
            json_loads(text)

    def test_unpaired_brackets_are_not_depth(self):
        """Closing brackets before opening ones never nest: the decoder
        words the fault."""
        with pytest.raises(json.JSONDecodeError):
            json_loads("]" * 600 + "[" * 600)

    @pytest.mark.parametrize("seed", range(20))
    def test_refused_exactly_past_the_limit(self, seed):
        """Bracket runs that climb to around the limit, some more than
        once, some after unpaired closing brackets: a text is refused
        exactly when its deepest point is past the limit."""
        rng = random.Random(seed)
        parts, depth = ["]" * rng.choice([0, 0, 1, 40])], 0
        for _ in range(rng.randint(1, 3)):
            top = rng.randint(MAX_NESTING - 12, MAX_NESTING + 3)
            while depth < top:
                parts.append("[[]" if rng.random() < 0.2 else "[")
                depth += 1
            down = rng.randint(0, depth)
            parts.append("]" * down)
            depth -= down
        text = "".join(parts)
        deepest = max(accumulate(1 if c == "[" else -1 for c in text))
        try:
            json_loads(text)
            refused = False
        except RecursionError:
            refused = True
        except ValueError:
            refused = False
        assert refused == (deepest > MAX_NESTING), deepest

    def test_message_for_unwritable_value(self):
        value = []
        for _ in range(5000):
            value = [value]
        with pytest.raises(ValueError, match="^id must be a string, got a "
                                             "list$"):
            json_string(value, "id")


class TestNestingCheck:
    """``json_loads`` refuses a text exactly where the walk over every one
    of its brackets outside strings goes past MAX_NESTING.  A string that
    does not close holds the rest of the text, as it does for the decoder,
    where the walk counts what follows its quote: the walk is given such a
    text with its last string closed at its end."""

    _PIECES = st.one_of(
        st.sampled_from(['"', "\\", '\\"', "\\\\", "[", "]", "{", "}",
                         "a", " ", ",", ":", "\u00e9"]),
        st.builds(lambda bracket, n: bracket * n, st.sampled_from("[]{}"),
                  st.sampled_from([1, 2, 255, 256, 257, MAX_NESTING - 1,
                                   MAX_NESTING, MAX_NESTING + 1])))

    @staticmethod
    def refused(text) -> bool:
        try:
            json_loads(text)
        except RecursionError:
            return True
        except ValueError:
            pass
        return False

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_PIECES, max_size=14))
    def test_refused_where_the_walk_goes_past(self, pieces):
        text = "".join(pieces)
        unclosed = re.sub(r"\\.", "", text, flags=re.S).count('"') % 2
        # the space pairs with a backslash that ends the text, if any
        deepest = walk_nesting_depth(text + ' "' * unclosed)
        assert self.refused(text) == (deepest > MAX_NESTING), deepest

    def test_brackets_only_in_a_string(self):
        """A string value holding more brackets than MAX_NESTING nests
        nowhere."""
        text = json.dumps("[" * (MAX_NESTING + 1))
        assert json_loads(text) == "[" * (MAX_NESTING + 1)


class TestLaneletsContaining:
    def test_fully_inside_one_lane(self, road):
        box = box_at(50, -1.8)
        hits = lanelets_containing(road, box)
        assert [lid for lid, _ in hits] == ["east"]
        assert hits[0][1] == pytest.approx(box.area)

    def test_straddling_partition(self, road):
        box = box_at(50, 0.2)
        hits = dict(lanelets_containing(road, box))
        assert set(hits) == {"east", "west"}
        assert sum(hits.values()) == pytest.approx(box_at(50, 0.2).area, abs=1e-6)

    def test_off_road_empty(self, road):
        assert lanelets_containing(road, box_at(50, 30.0)) == []

    def test_partition_property_random(self, road):
        import random
        rng = random.Random(5)
        for _ in range(50):
            # box must stay fully on the road for the partition to hold
            x = rng.uniform(5, 95)
            y = rng.uniform(-2.0, 2.0)
            h = rng.uniform(-0.3, 0.3)
            box = box_at(x, y, h)
            total = sum(a for _, a in lanelets_containing(road, box))
            assert total == pytest.approx(box.area, abs=1e-6)


class TestCrossesCentreline:
    def test_fully_in_lane(self, road):
        assert not crosses_centreline(road, box_at(50, -1.8))

    def test_centred_on_line(self, road):
        assert crosses_centreline(road, box_at(50, 0))

    def test_exact_touch_counts(self, road):
        # closed-set rule, checked against a segment/rectangle oracle
        box = box_at(50, -1.0)     # top edge exactly on y=0
        from oracles import _segments_cross
        touches = any(
            _segments_cross((0.0, 0.0), (100.0, 0.0), e[0], e[1])
            for e in box.edges())
        assert touches
        assert crosses_centreline(road, box)

    def test_growth_monotone(self, road):
        # enlarging a crossing polygon never un-crosses it
        import random
        rng = random.Random(9)
        for _ in range(30):
            x = rng.uniform(10, 90)
            y = rng.uniform(-0.9, 0.9)
            small = box_at(x, y, 0.0, 2.0, 1.0)
            if not crosses_centreline(road, small):
                continue
            big = box_at(x, y, 0.0, 4.0, 3.0)
            assert crosses_centreline(road, big)


class TestLaneOrientation:
    def test_eastbound(self, road):
        assert lane_orientation_at(road, (50, -1.8)) == 0.0

    def test_westbound_is_pi(self, road):
        assert lane_orientation_at(road, (50, 1.8)) == pytest.approx(-math.pi)

    def test_off_road(self, road):
        with pytest.raises(OffRoadError):
            lane_orientation_at(road, (50, 30))

    def test_boundary_point_resolves_lexicographically(self, road):
        # y=0 lies in both lanelets; "east" sorts before "west"
        assert lane_orientation_at(road, (50, 0.0)) == 0.0


def straight_road(pairs: int, x_lo=-60.0, x_hi=1616.4, lane_w=3.65) -> str:
    """A straight road cut into ``pairs`` lanelet pairs of equal length,
    with a centre line of ``pairs`` segments, as map text."""
    xs = [x_lo + (x_hi - x_lo) * j / pairs for j in range(pairs)] + [x_hi]
    lanelets = []
    for j, (a, b) in enumerate(zip(xs, xs[1:])):
        lanelets.append({"id": f"r{j:05d}", "vertices": [
            [a, -lane_w], [b, -lane_w], [b, 0.0], [a, 0.0]],
            "orientation_rad": 0.0, "width_m": lane_w,
            "direction": "with_map_axis"})
        lanelets.append({"id": f"o{j:05d}", "vertices": [
            [a, 0.0], [b, 0.0], [b, lane_w], [a, lane_w]],
            "orientation_rad": math.pi, "width_m": lane_w,
            "direction": "against_map_axis"})
    return json.dumps({"lanelets": lanelets,
                       "centreline": [[x, 0.0] for x in xs]})


class TestMapMemory:
    """Guards the memory a loaded 400-lanelet road holds per lanelet: its
    lanelets, polygons and vertices, both indexes, and what the load leaves
    on the interpreter's free lists.  Before the indexes held exact boxes
    in flat-tuple nodes, and before each vertex was built once, it was
    0.443 MB for 400 lanelets (1 108 B each); the bound is that + 5%."""

    BYTES_PER_LANELET = 0.443e6 * 1.05 / 400

    def test_load_map_retained_per_lanelet(self):
        text = straight_road(200).encode()
        load_map(text)      # warm-up: the first load fills caches
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            road = load_map(text)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(road.lanelets) == 400
        assert road._lanelet_tree is not None
        assert (retained - base) / 400 < self.BYTES_PER_LANELET
