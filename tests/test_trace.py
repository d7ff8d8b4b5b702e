import dataclasses
import gc
import importlib.util
import json
import math
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadcheck.checker import compile_text
from roadcheck.engine import FAIL, EvaluationContext, Verdict, evaluate_document
from roadcheck.geometry import BoxDims, Pose2D
from roadcheck import trace as trace_module
from roadcheck.inputs import UnknownKeysWarning, json_records
from roadcheck.scenarios import PRESET_NAMES, generate, preset
from roadcheck.trace import (ActorState, DerivedState, Trace, TraceError,
                             derive_row, iter_steps, load_trace, read_lines,
                             serialise_trace)
from roadcheck.worldmap import load_map

MPH = 0.44704

ROAD = load_map(json.dumps({
    "lanelets": [
        {"id": "east", "vertices": [[0, -3.65], [200, -3.65], [200, 0], [0, 0]],
         "orientation_rad": 0.0, "width_m": 3.65, "direction": "with_map_axis"},
        {"id": "west", "vertices": [[0, 0], [200, 0], [200, 3.65], [0, 3.65]],
         "orientation_rad": math.pi, "width_m": 3.65,
         "direction": "against_map_axis"},
    ],
    "centreline": [[0, 0], [200, 0]],
}))


def record(t, actor="ego", role="AV", x=0.0, y=-1.825, heading=0.0,
           length=4.0, width=2.0, **extra):
    obj = {"t": t, "actor_id": actor, "role": role, "x": x, "y": y,
           "heading_rad": heading, "length_m": length, "width_m": width}
    obj.update(extra)
    return json.dumps(obj)


def state(t, actor="ego", role="AV", x=0.0, y=-1.825, heading=0.0,
          length=4.0, width=2.0, speed=None):
    return ActorState(actor_id=actor, role=role, t=t,
                      pose=Pose2D(x, y, heading),
                      dims=BoxDims(length, width), speed=speed)


def make_trace(states_per_step):
    times = tuple(sorted({st.t for step in states_per_step for st in step}))
    steps = tuple({st.actor_id: st for st in step} for step in states_per_step)
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    return Trace(times=times, steps=steps, dt=dt)


class TestLoadTrace:
    def test_three_records_one_actor(self):
        text = "\n".join(record(0.1 * k, x=k) for k in range(3))
        trace = load_trace(text)
        assert len(trace) == 3
        assert trace.dt == pytest.approx(0.1)

    def test_decreasing_time_reports_index(self):
        text = "\n".join([record(0.0), record(0.2, x=1), record(0.1, x=2)])
        with pytest.raises(TraceError, match="record 2"):
            load_trace(text)

    def test_missing_field_reports_index(self):
        bad = json.dumps({"t": 0.0, "actor_id": "a", "role": "AV"})
        with pytest.raises(TraceError, match="record 0"):
            load_trace(bad)

    def test_inconsistent_dims_rejected(self):
        text = "\n".join([record(0.0, length=4.0), record(0.1, length=4.5)])
        with pytest.raises(TraceError, match="dims"):
            load_trace(text)

    def test_speed_mph_converted(self):
        trace = load_trace(record(0.0, speed_mph=25.0))
        assert trace.steps[0]["ego"].speed == pytest.approx(25 * MPH)

    def test_round_trip(self):
        text = "\n".join([
            record(0.0, x=0.0, speed_mps=11.176),
            record(0.0, actor="other1", role="OV", y=1.825, x=50.0,
                   heading=math.pi),
            record(0.05, x=0.5588, speed_mps=11.176),
            record(0.05, actor="other1", role="OV", y=1.825, x=49.4,
                   heading=math.pi),
        ])
        trace = load_trace(text)
        again = load_trace(serialise_trace(trace))
        assert again == trace

    def test_generated_scenario_loads(self, safe_scenario):
        _, trace = safe_scenario
        again = load_trace(serialise_trace(trace))
        assert again.times == trace.times
        roles = {st.role for step in again.steps for st in step.values()}
        assert roles == {"AV", "VBP", "OV"}


class TestJsonRecords:
    """The one JSON-lines reader, of traces and of detections."""

    def test_blank_lines_not_counted(self):
        lines = read_lines(b'\n{"a": 1}\n  \n[2]\r\n\xff\n')
        records = json_records(lines, TraceError)
        assert [next(records), next(records)] == [(0, {"a": 1}), (1, [2])]
        with pytest.raises(TraceError, match="^record 2: invalid JSON: "
                                             "Expecting value$"):
            next(records)

    @pytest.mark.parametrize("line, message", [
        ("{not json", "invalid JSON: Expecting property name"),
        ('{"a": 1} 2', "invalid JSON: Extra data"),
        ("[" * 100_000, "invalid JSON: nested too deeply"),
        ("1" + "0" * 5000, "invalid JSON: Exceeds the limit"),
    ], ids=["not-json", "extra-data", "deep", "int-past-digit-limit"])
    def test_error_names_the_record(self, line, message):
        with pytest.raises(TraceError, match=f"^record 1: {message}"):
            list(json_records(["[]", line], TraceError))


def _refused(line):
    raise orjson.JSONDecodeError("refused", line, 0)


def _stdlib_value(line):
    try:
        return json.loads(line)
    except (ValueError, RecursionError):
        _refused(line)


# stand-ins for the decoder that iter_steps tries first: one that refuses
# every line, so that the stdlib path reads it all, and one that hands the
# stdlib's own value to _parse_record's gate
STDLIB_PATH = SimpleNamespace(loads=_refused,
                              JSONDecodeError=orjson.JSONDecodeError)
STDLIB_VALUE_GATED = SimpleNamespace(loads=_stdlib_value,
                                     JSONDecodeError=orjson.JSONDecodeError)

_FIELD_TEXT = {"t": "0.5", "actor_id": '"a"', "role": '"OV"', "x": "1.5",
               "y": "-2.0", "heading_rad": "0.25", "length_m": "4.5",
               "width_m": "2.0", "speed_mps": "3.0"}


def record_text(**literals):
    """A record line: the fields of _FIELD_TEXT with ``literals`` (JSON
    text) in place of theirs or added; None leaves a field out."""
    fields = {**_FIELD_TEXT, **literals}
    return "{" + ", ".join(f'"{key}": {text}' for key, text in fields.items()
                           if text is not None) + "}"


def _big_int_cases():
    digits_4301 = "1" + "0" * 4300
    values = [str(2 ** 63 - 1), str(2 ** 63), str(2 ** 63 + 1),
              str(-2 ** 63 + 1), str(-2 ** 63), str(-2 ** 63 - 1),
              str(2 ** 64), digits_4301]
    return [(f"{field}={value[:24]}", [record_text(**{field: value})])
            for field in ("t", "x", "actor_id", "low_confidence")
            for value in values]


# a second record of the first record's actor, and the error that it
# raises, or None where it is read as the same record of a new actor
_DIMS = "BoxDims(length=4.5, width=2.0)"
KNOWN_ACTOR = [
    ("same-role-and-dims", {}, {"t": "0.55"}, None),
    ("unknown-role", {}, {"t": "0.55", "role": '"truck"'},
     "unknown role 'truck' for 'a'"),
    ("other-role", {}, {"t": "0.55", "role": '"other"'}, None),
    ("negative-t", {}, {"t": "-0.5"},
     "timestamp must be finite and >= 0, got -0.5"),
    ("infinite-t", {}, {"t": "Infinity"},
     "timestamp must be finite and >= 0, got inf"),
    ("nan-t", {}, {"t": "NaN"}, "timestamp must be finite and >= 0, got nan"),
    ("negative-zero-after-zero", {"t": "0.0"}, {"t": "-0.0"},
     "duplicate actor 'a' at t=-0.0"),
    ("out-of-order-t", {}, {"t": "0.25"},
     "out-of-order timestamp 0.25 after 0.5"),
    ("duplicate-t", {}, {}, "duplicate actor 'a' at t=0.5"),
    ("changed-length", {}, {"t": "0.55", "length_m": "5.0"},
     f"actor 'a' changed dims {_DIMS} -> BoxDims(length=5.0, width=2.0)"),
    ("changed-width", {}, {"t": "0.55", "width_m": "2.5"},
     f"actor 'a' changed dims {_DIMS} -> BoxDims(length=4.5, width=2.5)"),
    ("null-speed", {}, {"t": "0.55", "speed_mps": "null"},
     "speed_mps must be a number, got null"),
    ("speed-mph", {}, {"t": "0.55", "speed_mps": None, "speed_mph": "25.0"},
     None),
    ("low-confidence-true", {}, {"t": "0.55", "low_confidence": "true"},
     None),
    ("unknown-key", {}, {"t": "0.55", "note": '"hi"'}, None),
]

_DUPLICATE = record_text()[:-1]
EDGES = _big_int_cases() + [
    (f"{field}={literal}", [record_text(**{field: literal})])
    for field in ("t", "x", "speed_mps")
    for literal in ("NaN", "Infinity", "-Infinity", "1e400", "1e-400")
] + [
    ("lone-surrogate-escape", [record_text(actor_id='"a\\ud800"')]),
    ("raw-surrogateescape-bytes", list(read_lines(
        record_text(actor_id='"a\\u00e9"').encode().replace(b"\\u00e9",
                                                            b"\xff")))),
    ("bom", ["\ufeff" + record_text()]),
    ("duplicate-x", [_DUPLICATE + ', "x": 7.5}']),
    ("duplicate-x-int", [_DUPLICATE + ', "x": 7}']),
    ("duplicate-role", [_DUPLICATE + ', "role": "truck"}']),
    ("unknown-key", [record_text(note='"hi"')]),
    ("unknown-key-nan", [record_text(note="NaN")]),
    ("unknown-key-past-digit-limit", [record_text(note="1" + "0" * 4300)]),
    ("nested-unknown-key", [record_text(note='{"a": [1, {"b": null}]}')]),
    ("int-x", [record_text(x="1")]),
    ("int-t-length", [record_text(t="0", length_m="4")]),
    ("int-speed", [record_text(speed_mps="3")]),
    ("speed-mph", [record_text(speed_mps=None, speed_mph="25.0")]),
    ("both-speeds", [record_text(speed_mph="25.0")]),
    ("null-speed", [record_text(speed_mps="null")]),
    ("low-confidence-true", [record_text(low_confidence="true")]),
    ("low-confidence-text", [record_text(low_confidence='"false"')]),
    ("negative-zero", [record_text(t="-0.0", x="-0")]),
    ("not-an-object", ["[1.5]", "5", '"text"', "null"]),
    ("two-records", [record_text(actor_id='"b"'), record_text(x="7")]),
] + [
    (f"known-actor-{case}", [record_text(**first), record_text(**second)])
    for case, first, second, _ in KNOWN_ACTOR
]


def decoded_three_ways(lines):
    """iter_steps over ``lines`` as shipped, with the stdlib's value gated,
    and with the stdlib path forced: the steps, or the TraceError, each.
    The three must warn of the same unknown keys, in the same words."""
    def outcome():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = repr(list(iter_steps(lines)))
            except TraceError as exc:
                result = f"TraceError: {exc}"
        warned.append([str(w.message) for w in caught
                       if issubclass(w.category, UnknownKeysWarning)])
        return result
    warned = []
    results = [outcome()]
    for decoder in (STDLIB_VALUE_GATED, STDLIB_PATH):
        with mock.patch.object(trace_module, "orjson", decoder):
            results.append(outcome())
    assert warned[0] == warned[1] == warned[2]
    return results


def _json_number_text():
    return st.one_of(
        st.floats().map(json.dumps),
        st.integers().map(str),
        st.integers(min_value=2 ** 62).map(lambda n: str(n * 10 ** 15)),
        st.from_regex(r"-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,24})?"
                      r"([eE][+-]?[0-9]{1,3})?", fullmatch=True),
        st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "1e-400",
                         "-0", "-0.0"]))


_OTHER_TEXT = st.one_of(
    st.sampled_from(["true", "false", "null", "[]", "{}", '[1.5, "a"]']),
    st.text(max_size=3).map(json.dumps),
    st.text(max_size=3).map(lambda s: json.dumps(s, ensure_ascii=False)))
_GOOD_TEXT = {
    "t": st.sampled_from(["0.0", "0.05", "0.1"]),
    "actor_id": st.sampled_from(['"a"', '"b"', '"\\u00e9"']),
    "role": st.sampled_from([json.dumps(r) for r in ("AV", "VBP", "OV",
                                                     "other")]),
    "low_confidence": st.sampled_from(["true", "false"]),
}
_GOOD_NUMBER = st.floats(-1e3, 1e3).map(repr)
_GOOD_SIZE = st.floats(0.5, 10.0).map(repr)


@st.composite
def record_lines(draw):
    """A record line of known, missing, repeated and unknown keys, each
    value most often a plausible one."""
    keys = [k for k in ("t", "actor_id", "role", "x", "y", "heading_rad",
                        "length_m", "width_m") if draw(st.integers(0, 20))]
    keys += [k for k in ("speed_mps", "speed_mph", "low_confidence", "note")
             if not draw(st.integers(0, 3))]
    if not draw(st.integers(0, 10)):
        keys.append(draw(st.sampled_from(keys or ["x"])))
    parts = []
    for key in keys:
        good = _GOOD_TEXT.get(key, _GOOD_SIZE if key.endswith("_m")
                              else _GOOD_NUMBER)
        text = draw(st.one_of(good, good, good, _json_number_text(),
                              _OTHER_TEXT))
        parts.append(f"{json.dumps(key)}: {text}")
    return "{" + ", ".join(parts) + "}"


class TestDecoderGate:
    """iter_steps takes a record from orjson's value only when the gate in
    _parse_record shows it to be the stdlib decoder's value; any other
    line is decoded and read as the stdlib path reads it.  Each input is
    read as shipped, with the stdlib's own value handed to the gate (which
    must then accept only what the slow path accepts, with the same
    values), and with every line read by the stdlib path: the three give
    the same steps or the same error."""

    @pytest.mark.parametrize("lines", [lines for _, lines in EDGES],
                             ids=[case for case, _ in EDGES])
    def test_edges(self, lines):
        shipped, gated, stdlib = decoded_three_ways(lines)
        assert shipped == gated == stdlib

    @pytest.mark.parametrize("first,second,error",
                             [case[1:] for case in KNOWN_ACTOR],
                             ids=[case[0] for case in KNOWN_ACTOR])
    def test_known_actor(self, first, second, error):
        lines = [record_text(**first), record_text(**second)]
        if error is not None:
            with pytest.raises(TraceError) as info:
                list(iter_steps(lines))
            assert str(info.value) == f"record 1: {error}"
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnknownKeysWarning)
                (_, one), (_, two) = iter_steps(lines)
                ((_, alone),) = iter_steps(lines[1:])
            assert two == alone
            assert two["a"].dims is one["a"].dims

    def test_edges_reach_both_sides(self):
        outcomes = [decoded_three_ways(lines)[0] for _, lines in EDGES]
        accepted = [o for o in outcomes if not o.startswith("TraceError")]
        assert 10 < len(accepted) < len(outcomes) - 10

    @settings(max_examples=200, deadline=None)
    @given(st.lists(record_lines(), min_size=1, max_size=4))
    def test_generated_records(self, lines):
        shipped, gated, stdlib = decoded_three_ways(lines)
        assert shipped == gated == stdlib


def _bench_gen():
    """bench/gen.py, loaded by its path."""
    path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
    spec = importlib.util.spec_from_file_location("trace_bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class TestGatedTraces:
    """The traces that ``roadcheck gen`` and the benchmark's generator
    write take the gate's path at every record: none is decoded again by
    the stdlib, and only each actor's first record is built through
    ``ActorState.__init__``."""

    def _read(self, monkeypatch, text):
        decoded, built = [], []
        json_value = trace_module.json_value
        monkeypatch.setattr(trace_module, "json_value",
                            lambda *args: decoded.append(args) or
                            json_value(*args))
        init = ActorState.__init__
        monkeypatch.setattr(ActorState, "__init__", lambda self, *args:
                            built.append(args[0]) or init(self, *args))
        trace = load_trace(text)
        actors = {aid for step in trace.steps for aid in step}
        return len(decoded), sorted(built), sorted(actors)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets(self, monkeypatch, name):
        text = serialise_trace(generate(preset(name))[1])
        decoded, built, actors = self._read(monkeypatch, text)
        assert decoded == 0
        assert built == actors

    def test_speed_and_low_confidence(self, monkeypatch):
        text = "\n".join(record(0.1 * k, actor=actor, x=float(k),
                                speed_mps=2.0, low_confidence=k % 2 == 0)
                         for k in range(4) for actor in ("a", "b"))
        assert self._read(monkeypatch, text) == (0, ["a", "b"], ["a", "b"])

    def test_benchmark_drive_with_others(self, monkeypatch, tmp_path):
        text = _bench_gen().generate("crowded", 7, tmp_path).trace_text
        decoded, built, actors = self._read(monkeypatch, text)
        assert decoded == 0
        assert built == actors and len(actors) > 27


class TestSharedValues:
    """A loaded trace keeps one copy of each actor's id and role, and of
    each step's time, without changing what the trace holds."""

    def test_one_id_and_role_object_per_actor(self):
        text = "\n".join(record(0.1 * k, actor=actor, role=role, x=k)
                          for k in range(4)
                          for actor, role in (("ego", "AV"), ("ov1", "OV"),
                                              ("p", "other")))
        states = [st for step in load_trace(text).steps for st in step.values()]
        for actor in ("ego", "ov1", "p"):
            mine = [st for st in states if st.actor_id == actor]
            assert len(mine) == 4
            assert all(st.actor_id is mine[0].actor_id for st in mine)
            assert all(st.role is mine[0].role for st in mine)

    def test_role_change_kept_per_record(self):
        roles = ["OV", "other", "other", "VBP"]
        text = "\n".join(record(0.1 * k, actor="x", role=role, x=k)
                          for k, role in enumerate(roles))
        trace = load_trace(text)
        assert [step["x"].role for step in trace.steps] == roles

    def test_dims_change_same_error(self):
        text = "\n".join([record(0.0), record(0.0, actor="b", role="OV"),
                          record(0.1, actor="b", role="OV"),
                          record(0.1, length=4.5)])
        with pytest.raises(TraceError) as info:
            load_trace(text)
        assert str(info.value) == (
            "record 3: actor 'ego' changed dims BoxDims(length=4.0, width=2.0)"
            " -> BoxDims(length=4.5, width=2.0)")

    def test_equal_times_share_one_float(self):
        text = "\n".join(record(0.1 * k, actor=actor, x=k)
                          for k in range(3) for actor in ("a", "b", "c"))
        for step in load_trace(text).steps:
            a, b, c = step.values()
            assert a.t is b.t is c.t

    @pytest.mark.parametrize("first,second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_times_serialise_as_before(self, first, second):
        text = "\n".join([record(first, actor="a"), record(second, actor="b"),
                          record(0.1, actor="a"), record(0.1, actor="b")])
        lines = serialise_trace(load_trace(text)).splitlines()
        signs = [math.copysign(1.0, json.loads(line)["t"]) for line in lines[:2]]
        assert signs == [math.copysign(1.0, first), math.copysign(1.0, second)]
        assert lines == [record(t, actor=a) for t, a in
                         ((first, "a"), (second, "b"), (0.1, "a"), (0.1, "b"))]


class TestLazyReading:
    def test_binary_file_read_a_line_at_a_time_and_left_open(self, tmp_path):
        path = tmp_path / "big.jsonl"
        count = 8000
        path.write_text("".join(record(0.05 * k, x=k) + "\n"
                                for k in range(count)), "utf-8")
        size = path.stat().st_size
        assert size > 900_000
        with open(path, "rb") as fh:
            lines = read_lines(fh)
            assert json.loads(next(lines))["t"] == 0.0
            assert fh.tell() < size // 20
            rest = list(lines)
            assert len(rest) == count - 1 and not fh.closed
            fh.seek(0)
            assert fh.read(1) == b"{"

    def test_partly_read_file_left_open(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(record(0.1 * k) for k in range(3)), "utf-8")
        with open(path, "rb") as fh:
            lines = read_lines(fh)
            next(lines)
            del lines
            gc.collect()
            assert not fh.closed
            assert fh.read(0) == b""


def crowded_text(steps, actors):
    """JSON lines of ``steps`` steps of ``actors`` vehicles on the road."""
    roles = ["AV", "VBP", "OV"] + ["other"] * (actors - 3)
    return "".join(
        record(0.05 * k, actor=f"car{a:02d}", role=roles[a], x=1.1 * k + 7.3 * a,
               y=-1.825 + 0.01 * a, heading=0.001 * k, length=4.5,
               speed_mps=11.176 + 0.001 * a) + "\n"
        for k in range(steps) for a in range(actors))


class TestIngestMemory:
    """Guards the memory a loaded trace holds per record: about 240 B with
    shared ids, roles and step times and a file read a line at a time,
    where a whole-file read with a copy of each per record took 530 B."""

    BYTES_PER_RECORD = 300

    def test_load_trace_peak_per_record(self, tmp_path):
        path = tmp_path / "crowded.jsonl"
        path.write_text(crowded_text(100, 30), "utf-8")
        gc.collect()
        tracemalloc.start()
        try:
            with open(path, "rb") as fh:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                trace = load_trace(fh)
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == 100
        assert (peak - base) / 3000 < self.BYTES_PER_RECORD

    @pytest.mark.parametrize("value, field", [
        (Verdict("a", 0.0, "pass"), "result"),
        (DerivedState(speed=1.0, heading_rel_lane=0.0), "speed"),
        (Pose2D(1.0, 2.0, 0.5), "x"),
        (ROAD.lanelets[0], "width"),
    ], ids=["Verdict", "DerivedState", "Pose2D", "Lanelet"])
    def test_value_records_slotted_and_frozen(self, value, field):
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, getattr(value, field))


class TestReadSet:
    """Given a read set, a step holds the actors whose id or role key is
    in it, and their neighbours across a role change; every record is
    checked either way."""

    def test_keeps_ids_and_role_keys(self):
        trace = load_trace(crowded_text(3, 8), frozenset({"av", "car05"}))
        assert [sorted(step) for step in trace.steps] == [
            ["car00", "car05"]] * 3
        assert trace.steps[1]["car05"].role == "other"

    def test_role_change_keeps_neighbours(self):
        # x is read as the OV at t=0.1 only; its states at the steps
        # either side are kept for its derived dynamics
        roles = ["other", "OV", "other", "other", "other"]
        text = "\n".join(
            [record(0.1 * k, x=k) for k in range(5)]
            + [record(0.1 * k, actor="x", role=role, x=50.0 - k)
               for k, role in enumerate(roles)])
        text = "\n".join(sorted(text.split("\n"),
                                key=lambda line: json.loads(line)["t"]))
        kept = load_trace(text, frozenset({"ov"}))
        assert [sorted(step) for step in kept.steps] == [["x"]] * 5
        assert load_trace(text, frozenset({"ego"})).steps == tuple(
            {"ego": step["ego"]} for step in load_trace(text).steps)

    @pytest.mark.parametrize("second_role", ["other", "OV"])
    def test_duplicate_of_dropped_actor_refused(self, second_role):
        text = "\n".join([record(0.0), record(0.0, actor="car", role="other"),
                          record(0.0, actor="car", role=second_role)])
        with pytest.raises(TraceError, match=r"^record 2: duplicate actor "
                                             r"'car' at t=0.0$"):
            load_trace(text, frozenset({"ov"}))

    def test_step_of_dropped_actors_yielded_empty(self):
        text = "\n".join([record(0.0), record(0.1, actor="car", role="other"),
                          record(0.2, x=1.0)])
        assert list(iter_steps(text.split("\n"), frozenset({"av"}))) == [
            (0.0, {"ego": state(0.0)}), (0.1, {}),
            (0.2, {"ego": state(0.2, x=1.0)})]

    def test_peak_of_a_crowded_trace(self, tmp_path):
        # 27 of 30 vehicles are read by no rule: the trace keeps 3 per step
        path = tmp_path / "crowded.jsonl"
        path.write_text(crowded_text(100, 30), "utf-8")
        peaks = []
        for reads in (None, frozenset({"av", "vbp", "ov"})):
            gc.collect()
            tracemalloc.start()
            try:
                with open(path, "rb") as fh:
                    trace = load_trace(fh, reads)
                    peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(trace) == 100
        assert peaks[1] < peaks[0] / 3


def derive_all(states_per_step):
    """``derive_row`` for every actor at every step of a trace: per step
    {actor_id: DerivedState}, without single-step actors, and all notes."""
    steps = [{st.actor_id: st for st in step} for step in states_per_step]
    rows, notes = [], []
    for k, step in enumerate(steps):
        prev_step = steps[k - 1] if k > 0 else None
        nxt_step = steps[k + 1] if k + 1 < len(steps) else None
        row = {}
        for aid in sorted(step):
            derived, row_notes = derive_row(prev_step, step, nxt_step, ROAD,
                                            aid)
            if derived is not None:
                row[aid] = derived
            notes.extend(row_notes)
        rows.append(row)
    return rows, notes


class TestDeriveDynamics:
    def test_constant_speed_25mph(self):
        # positions advance 1.1176 m per 0.1 s step
        step_m = 1.1176
        rows, _ = derive_all([[state(0.1 * k, x=step_m * k)] for k in range(5)])
        for k in range(5):
            assert rows[k]["ego"].speed == pytest.approx(11.176)

    def test_quadratic_profile_matches_analytic(self):
        # x(t) = 3 + 2t + 0.7 t^2: the central difference is exact, so the
        # speed is 2 + 1.4 t at interior steps
        rows, _ = derive_all([[state(0.05 * k,
                                     x=3 + 2 * (0.05 * k) + 0.7 * (0.05 * k) ** 2)]
                              for k in range(10)])
        for k in range(1, 9):
            assert rows[k]["ego"].speed == pytest.approx(2 + 1.4 * 0.05 * k,
                                                         abs=1e-9)

    def test_pull_out_angle_definition(self):
        # heading 0.1 rad in a lane of orientation 0, moving toward the
        # oncoming lane
        vx, vy = 11.0 * math.cos(0.1), 11.0 * math.sin(0.1)
        rows, _ = derive_all([[state(0.1 * k, x=vx * 0.1 * k,
                                     y=-1.825 + vy * 0.1 * k, heading=0.1)]
                              for k in range(4)])
        assert rows[1]["ego"].pull_out_angle == pytest.approx(0.1)
        assert rows[1]["ego"].cut_in_angle == 0.0

    def test_cut_in_angle_on_return(self):
        # back over the line into the home lane, still converging on the
        # lane centre: lane-relative heading is -0.1, so cut-in angle 0.1
        vx, vy = 11.0 * math.cos(0.1), -11.0 * math.sin(0.1)
        rows, _ = derive_all([[state(0.1 * k, x=vx * 0.1 * k,
                                     y=-0.5 + vy * 0.1 * k, heading=-0.1)]
                              for k in range(4)])
        assert rows[1]["ego"].cut_in_angle == pytest.approx(0.1)
        assert rows[1]["ego"].pull_out_angle == 0.0

    def test_single_step_velocity_undefined(self):
        rows, notes = derive_all([[state(0.0)]])
        assert rows == [{}]
        assert notes == ["t=0.0: actor 'ego' appears at a single step; "
                         "dynamics unavailable"]

    def test_speed_disagreement_warns_positional_wins(self):
        rows, notes = derive_all([[state(0.1 * k, x=11.176 * 0.1 * k, speed=5.0)]
                                  for k in range(3)])
        assert notes
        assert rows[1]["ego"].speed == pytest.approx(11.176)

    def test_order_independence(self):
        a = [state(0.1 * k, x=k) for k in range(3)]
        b = [state(0.1 * k, actor="b", role="OV", x=50 - k, y=1.825,
                   heading=math.pi) for k in range(3)]
        assert (derive_all([[x, y] for x, y in zip(a, b)])
                == derive_all([[y, x] for x, y in zip(a, b)]))


GAP = compile_text('assertion gap { odd: road type: invariant '
                   'condition: distance_ahead("av", "ov") > 0 }')


def gap_verdict(*states):
    """The verdict of a rule that measures the AV-to-OV distance ahead in a
    one-step trace of ``states``."""
    [v] = evaluate_document(GAP, make_trace([states]),
                            EvaluationContext(road=ROAD))
    return v


class TestDistanceAhead:
    def test_published_safe_gap(self):
        # AV front face at x=10, OV front face at x=86.43, facing each other
        av = state(0.0, x=8.0)                      # front at 10
        ov = state(0.0, actor="ov", role="OV", x=88.43, y=1.825,
                   heading=math.pi)                 # front at 86.43
        assert gap_verdict(av, ov).detail["measured"] == pytest.approx(76.43)

    def test_overlapping_boxes_zero(self):
        av = state(0.0, x=10.0)
        ov = state(0.0, actor="ov", role="OV", x=11.0, y=-1.825,
                   heading=math.pi)
        assert gap_verdict(av, ov).detail["measured"] == 0.0

    def test_missing_ov(self):
        v = gap_verdict(state(0.0))
        assert v.result == FAIL
        assert v.detail == {"reason": "actor-not-found", "actor": "ov"}
