import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import roadcheck
from roadcheck.cli import main
from roadcheck.rulepack import RULE162_SDA
from roadcheck.worldmap import load_map

runner = CliRunner()
PACKAGED_PROFILES = Path(roadcheck.__file__).parent / "data" / "profiles.json"


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    """Generated presets plus a rule-162-only assertion file."""
    root = tmp_path_factory.mktemp("cli")
    for name in ("safe", "near_miss", "collision", "occlusion_abort"):
        res = runner.invoke(main, ["gen", name, "--out-dir", str(root)])
        assert res.exit_code == 0, res.output
    (root / "rule162.rules").write_text(RULE162_SDA)
    return root


def check_args(root, preset, profile, extra=()):
    return ["check",
            "--map", str(root / f"{preset}_map.json"),
            "--trace", str(root / f"{preset}_trace.jsonl"),
            "--rules", str(root / "rule162.rules"),
            "--profile", profile, *extra]


class TestCheck:
    def test_safe_nominal_passes(self, fixture_dir):
        res = runner.invoke(main, check_args(fixture_dir, "safe", "nominal"))
        assert res.exit_code == 0, res.output
        assert "rule162_safe_distance_ahead: PASS" in res.output

    def test_safe_relaxed_fails(self, fixture_dir):
        res = runner.invoke(main, check_args(fixture_dir, "safe", "relaxed"))
        assert res.exit_code == 1
        assert "FAIL" in res.output

    @pytest.mark.parametrize("profile", ["relaxed", "nominal", "aggressive"])
    def test_collision_always_fails(self, fixture_dir, profile):
        res = runner.invoke(main, check_args(fixture_dir, "collision", profile))
        assert res.exit_code == 1

    def test_missing_map_usage_error(self, fixture_dir):
        res = runner.invoke(main, [
            "check", "--map", str(fixture_dir / "nope.json"),
            "--trace", str(fixture_dir / "safe_trace.jsonl")])
        assert res.exit_code == 2

    def test_malformed_map_exit_2(self, fixture_dir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        res = runner.invoke(main, [
            "check", "--map", str(bad),
            "--trace", str(fixture_dir / "safe_trace.jsonl")])
        assert res.exit_code == 2
        assert "error" in res.output or res.stderr

    def test_writes_outputs(self, fixture_dir, tmp_path):
        out_jsonl = tmp_path / "v.jsonl"
        out_csv = tmp_path / "s.csv"
        res = runner.invoke(main, check_args(
            fixture_dir, "safe", "nominal",
            extra=["--out-jsonl", str(out_jsonl), "--out-csv", str(out_csv)]))
        assert res.exit_code == 0
        verdicts = [json.loads(l) for l in out_jsonl.read_text().splitlines()]
        assert verdicts[0]["assertion_id"] == "rule162_safe_distance_ahead"
        assert out_csv.read_text().startswith("assertion_id,")

    def test_performance_failures_do_not_gate(self, fixture_dir, tmp_path):
        rules = tmp_path / "perf.rules"
        rules.write_text(
            'assertion perf { odd: x type: invariant severity: performance '
            'condition: speed_of("av") > 99 }')
        res = runner.invoke(main, [
            "check", "--map", str(fixture_dir / "safe_map.json"),
            "--trace", str(fixture_dir / "safe_trace.jsonl"),
            "--rules", str(rules)])
        assert res.exit_code == 0
        assert "perf: FAIL" in res.output

    @pytest.mark.parametrize("command", ["check", "monitor"])
    def test_duplicate_id_across_rule_files_exit_2(self, fixture_dir,
                                                   tmp_path, command):
        # verdicts, summaries and mode: first are keyed by id, so a second
        # rule of the same name would never be reported
        first, second = tmp_path / "a.rules", tmp_path / "b.rules"
        first.write_text('assertion same { odd: x type: execution '
                         'reference: time() >= 1s condition: true }')
        second.write_text('assertion same { odd: x type: execution '
                          'reference: time() >= 2s condition: false }')
        res = invoke(fixture_dir, command, "--rules", str(first),
                     "--rules", str(second))
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2
        assert f"error: {second}: duplicate assertion id 'same'" in res.stderr


def fast_vbp_trace(root, tmp_path):
    """The safe preset with the passed vehicle moving at 15 m/s, faster
    than the ego's 11.2 m/s."""
    records = [json.loads(l)
               for l in (root / "safe_trace.jsonl").read_text().splitlines()]
    x0 = next(r["x"] for r in records if r["actor_id"] == "parked")
    for r in records:
        if r["actor_id"] == "parked":
            r["speed_mps"] = 15.0
            r["x"] = x0 + 15.0 * r["t"]
    path = tmp_path / "fast_vbp_trace.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return path


def evaluation_errors(lines):
    verdicts = [json.loads(l) for l in lines if l.startswith("{")]
    assert verdicts
    return [v for v in verdicts
            if v["detail"].get("reason") == "evaluation-error"]


class TestFasterPassedVehicle:
    """sda() has no answer when the passed vehicle outruns the ego; that is
    a failed verdict, not a crash."""

    def test_check_reports_evaluation_error(self, fixture_dir, tmp_path):
        trace = fast_vbp_trace(fixture_dir, tmp_path)
        out = tmp_path / "v.jsonl"
        res = runner.invoke(main, [
            "check", "--map", str(fixture_dir / "safe_map.json"),
            "--trace", str(trace), "--rules", str(fixture_dir / "rule162.rules"),
            "--out-jsonl", str(out)])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 1
        errors = evaluation_errors(out.read_text().splitlines())
        assert errors and all(v["result"] == "fail" for v in errors)
        assert "must exceed" in errors[0]["detail"]["error"]

    def test_monitor_reports_evaluation_error(self, fixture_dir, tmp_path):
        trace = fast_vbp_trace(fixture_dir, tmp_path)
        res = runner.invoke(main, [
            "monitor", "--map", str(fixture_dir / "safe_map.json"),
            "--rules", str(fixture_dir / "rule162.rules")],
            input=trace.read_text())
        assert res.exception is None, res.exception
        assert res.exit_code == 0
        errors = evaluation_errors(res.output.splitlines())
        assert errors and all(v["result"] == "fail" for v in errors)


def invoke(root, command, *extra, trace=None):
    """Run ``command`` on the safe preset, or on ``trace``, with the rule 162
    file (zones takes no rules); monitor reads the trace on stdin."""
    trace = trace or root / "safe_trace.jsonl"
    args = [command, "--map", str(root / "safe_map.json")]
    if command != "zones":
        args += ["--rules", str(root / "rule162.rules")]
    if command == "monitor":
        return runner.invoke(main, args + list(extra), input=trace.read_bytes())
    return runner.invoke(main, args + ["--trace", str(trace), *extra])


class TestReferenceErrors:
    """A reference that cannot be evaluated stops the run with exit 2 and
    the step's time, not a traceback and the safety-failure code."""

    @pytest.mark.parametrize("command", ["check", "monitor"])
    def test_exit_2_with_time(self, fixture_dir, tmp_path, command):
        rules = tmp_path / "ref_sda.rules"
        rules.write_text('assertion ref_sda { odd: x type: execution '
                         'reference: distance_ahead("av", "ov") < sda() '
                         'condition: true }')
        res = invoke(fixture_dir, command, "--rules", str(rules),
                     trace=fast_vbp_trace(fixture_dir, tmp_path))
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2
        assert "error: reference of 'ref_sda' at t=0.0: " in res.output
        assert "must exceed" in res.output

    @pytest.mark.parametrize("command", ["check", "monitor", "zones"])
    def test_unbuildable_box_exit_2(self, fixture_dir, tmp_path, command):
        # boxes too thin for the unchecked build fail rule 162's reference
        # in every command, zones' own evaluation included
        trace = tmp_path / "thin_trace.jsonl"
        trace.write_text("".join(
            json.dumps({**json.loads(line), "width_m": 1e-120}) + "\n"
            for line in (fixture_dir / "safe_trace.jsonl").read_text()
            .splitlines()))
        res = invoke(fixture_dir, command, trace=trace)
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2, res.output
        assert res.stderr == (
            "error: reference of 'rule162_safe_distance_ahead' at t=0.0: "
            "box of 'ego': polygon is not strictly convex in CCW order "
            "(cross=0 at vertex 0)\n")


class TestTypecheckError:
    @pytest.mark.parametrize("command", ["check", "monitor"])
    def test_unit_mismatch_exit_2(self, fixture_dir, tmp_path, command):
        rules = tmp_path / "units.rules"
        rules.write_text(
            'assertion units {\n  odd: x\n  type: invariant\n'
            '  condition: min_distance(box_of("av"), box_of("vbp")) > 1s\n'
            '}\n')
        res = invoke(fixture_dir, command, "--rules", str(rules))
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2, res.output
        assert res.stderr == (f"error: {rules}: 4:56: comparison '>': unit "
                              f"mismatch between m and s\n")


class TestBadProfiles:
    @pytest.mark.parametrize("command", ["check", "monitor", "zones"])
    def test_unknown_profile_exit_2(self, fixture_dir, command):
        res = invoke(fixture_dir, command, "--profile", "cautious")
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2
        assert "error: unknown driving profile 'cautious'" in res.output

    @pytest.mark.parametrize("text", ['{"bad": 1}', "not json"])
    @pytest.mark.parametrize("command", ["check", "monitor", "zones"])
    def test_malformed_profiles_exit_2(self, fixture_dir, tmp_path, command,
                                       text):
        profiles = tmp_path / "profiles.json"
        profiles.write_text(text)
        res = invoke(fixture_dir, command, "--profiles", str(profiles))
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2
        assert f"error: {profiles}: profile config: " in res.stderr

    @pytest.mark.parametrize("edit", [
        lambda d: d["worst_case_speed_mph"].update(car="fast"),
        lambda d: d["role_vehicle_class"].update(VBP="bus"),
        lambda d: d["manoeuvre"].update(lateral_offset_m=math.nan),
        lambda d: d["profiles"]["nominal"].update(
            pull_out_clearance_m=math.nan),
    ], ids=["text-speed", "class-without-speed", "nan-offset",
            "nan-pull-out"])
    @pytest.mark.parametrize("command", ["check", "monitor"])
    def test_bad_values_exit_2(self, fixture_dir, tmp_path, command, edit):
        # a bad config is an input error, not a failed safety assertion
        doc = json.loads(PACKAGED_PROFILES.read_text("utf-8"))
        edit(doc)
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps(doc))
        res = invoke(fixture_dir, command, "--profiles", str(profiles),
                     "--worst-case-speeds")
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2, res.output
        assert res.stderr.startswith(f"error: {profiles}: "), res.stderr


class TestMalformedMap:
    """A map that load_map cannot use exits 2 naming the file."""

    @pytest.mark.parametrize("edit", [
        lambda d: d.update(lanelets=5),
        lambda d: d["centreline"].__setitem__(0, ["a", 0]),
        lambda d: d["lanelets"][0].update(orientation_rad=math.inf),
        lambda d: d["lanelets"][0].update(width_m=math.nan),
    ], ids=["lanelets-number", "text-point", "infinite-orientation",
            "nan-width"])
    @pytest.mark.parametrize("command", ["check", "monitor", "zones"])
    def test_exit_2(self, fixture_dir, tmp_path, command, edit):
        doc = json.loads((fixture_dir / "safe_map.json").read_text())
        edit(doc)
        bad = tmp_path / "bad_map.json"
        bad.write_text(json.dumps(doc))
        args = [command, "--map", str(bad)]
        if command == "monitor":
            res = runner.invoke(main, args, input="")
        else:
            res = runner.invoke(main, args + [
                "--trace", str(fixture_dir / "safe_trace.jsonl")])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2, res.output
        assert res.stderr.startswith(f"error: {bad}: "), res.stderr


def _nested_condition(kind):
    if kind == "parens":
        return "(" * 5000 + "true" + ")" * 5000
    if kind == "not":
        return "not " * 5000 + "true"
    return " + ".join(["1"] * 2000) + " > 0"


class TestDeepNesting:
    """Input nested past what the readers accept is a usage error (exit 2)
    with a message, never a RecursionError traceback and exit 1."""

    @pytest.mark.parametrize("kind", ["parens", "not", "chain"])
    @pytest.mark.parametrize("command", ["check", "monitor"])
    def test_rules(self, fixture_dir, tmp_path, command, kind):
        rules = tmp_path / "deep.rules"
        rules.write_text("assertion deep { odd: x type: invariant condition: "
                         + _nested_condition(kind) + " }")
        res = invoke(fixture_dir, command, "--rules", str(rules))
        no_traceback(res)
        assert res.exit_code == 2
        assert "nested deeper than 200 levels" in res.output

    @pytest.mark.parametrize("option", ["--map", "--profiles"])
    @pytest.mark.parametrize("command", ["check", "monitor", "zones"])
    def test_json_inputs(self, fixture_dir, tmp_path, command, option):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        map_path = deep if option == "--map" else fixture_dir / "safe_map.json"
        args = [command, "--map", str(map_path)]
        if option == "--profiles":
            args += ["--profiles", str(deep)]
        trace = fixture_dir / "safe_trace.jsonl"
        if command == "monitor":
            res = runner.invoke(main, args, input=trace.read_text())
        else:
            res = runner.invoke(main, args + ["--trace", str(trace)])
        no_traceback(res)
        assert res.exit_code == 2
        assert "nested too deeply" in res.output

    @pytest.mark.parametrize("command", ["check", "monitor"])
    def test_trace_line(self, fixture_dir, tmp_path, command):
        lines = (fixture_dir / "safe_trace.jsonl").read_text().splitlines()
        trace = tmp_path / "deep_trace.jsonl"
        trace.write_text("\n".join(lines[:3] + ["[" * 100_000]) + "\n")
        res = invoke(fixture_dir, command, trace=trace)
        no_traceback(res)
        assert res.exit_code == 2
        assert "error: record 3: invalid JSON: nested too deeply" in res.output

    # depths about the interpreter's recursion limit, where the stdlib
    # decoder and the encoder that words a message run out of stack at a
    # depth that depends on the caller's
    NEAR_LIMIT = range(976, 991)

    @staticmethod
    def nested(text, key, value, depth):
        """``text`` with ``key``'s ``value`` replaced by an array nested
        ``depth`` deep."""
        old = f'"{key}": {json.dumps(value)}'
        assert text.count(old) == 1
        return text.replace(old, f'"{key}": ' + "[" * depth + "]" * depth)

    @staticmethod
    def shallow(*args, **kwargs):
        """``invoke`` in a new thread, whose stack starts as shallow as
        the installed command's, however deep the test runs."""
        results = []
        thread = threading.Thread(
            target=lambda: results.append(invoke(*args, **kwargs)))
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        return results[0]

    def same_rejection(self, fixture_dir, depth, *extra, trace=None):
        """check and monitor exit 2 with one message, which it returns."""
        errors = []
        for command in ("check", "monitor"):
            res = self.shallow(fixture_dir, command, *extra, trace=trace)
            no_traceback(res)
            assert res.exit_code == 2, (depth, command, res.output)
            errors.append(res.stderr)
        assert errors[0] == errors[1], depth
        return errors[0]

    @pytest.mark.parametrize("field", ["actor_id", "x"])
    def test_record_near_recursion_limit(self, fixture_dir, tmp_path, field):
        lines = (fixture_dir / "safe_trace.jsonl").read_text().splitlines()
        value = json.loads(lines[1])[field]
        trace = tmp_path / "deep_trace.jsonl"
        for depth in self.NEAR_LIMIT:
            trace.write_text("\n".join(
                [lines[0], self.nested(lines[1], field, value, depth)]
                + lines[2:]))
            message = self.same_rejection(fixture_dir, depth, trace=trace)
            assert message == "error: record 1: invalid JSON: nested too " \
                              "deeply\n", depth

    @pytest.mark.parametrize("option, text, key, value, message", [
        ("--map", None, "id", "running",
         "map: invalid JSON: nested too deeply"),
        ("--profiles", PACKAGED_PROFILES.read_text(), "pull_out_clearance_m",
         5.339572682512483, "profile config: invalid JSON: nested too "
                            "deeply"),
    ], ids=["map", "profiles"])
    def test_document_near_recursion_limit(self, fixture_dir, tmp_path,
                                           option, text, key, value,
                                           message):
        text = text or (fixture_dir / "safe_map.json").read_text()
        bad = tmp_path / "deep.json"
        for depth in self.NEAR_LIMIT:
            bad.write_text(self.nested(text, key, value, depth))
            # invoke names the safe map first; the last --map given is read
            got = self.same_rejection(fixture_dir, depth, option, str(bad))
            assert got == f"error: {bad}: {message}\n", depth


_DELETE = object()


def _mutate(index, **fields):
    """The record at ``index`` with ``fields`` set (_DELETE deletes one)."""
    def apply(records):
        r = records[index]
        for key, value in fields.items():
            if value is _DELETE:
                del r[key]
            else:
                r[key] = value
        return [json.dumps(r) for r in records]
    return apply


def _insert(index, source):
    """A copy of record ``source`` inserted before record ``index``."""
    def apply(records):
        lines = [json.dumps(r) for r in records]
        return lines[:index] + [lines[source]] + lines[index:]
    return apply


def _joined_lines(records):
    """Three lines that each fail to decode but, joined with commas inside
    brackets, decode to three valid records."""
    first = json.dumps({**records[0], "note": [1, 2]})
    cut = first.index(", 2]")
    return ([first[:cut], first[cut + 2:],
             json.dumps(records[1]) + ", " + json.dumps(records[2])]
            + [json.dumps(r) for r in records[3:]])


def _unread(build):
    """``build`` applied to the records with an ``other`` car, which no
    rule reads, after each step's: records 0-3 are t=0 (ego, oncoming,
    parked, car), 4-7 t=0.05, 8-11 t=0.1."""
    def apply(records):
        with_car = []
        for r in records:
            if with_car and with_car[-1]["t"] != r["t"]:
                with_car.append(_car(with_car[-1]["t"]))
            with_car.append(r)
        return build(with_car + [_car(records[-1]["t"])])
    return apply


def _car(t):
    return {"t": t, "actor_id": "car", "role": "other", "x": 500.0 - t,
            "y": 1.825, "heading_rad": math.pi, "length_m": 4.5,
            "width_m": 1.8}


# (case, corpus builder, message); records 0-2 are t=0 (ego, oncoming,
# parked), 3-5 t=0.05, 6-8 t=0.1
MALFORMED = [
    ("invalid-json", lambda rs: [json.dumps(r) for r in rs[:5]]
     + ["{not json"] + [json.dumps(r) for r in rs[6:]],
     "record 5: invalid JSON: Expecting property name enclosed in double "
     "quotes"),
    ("missing-field", _mutate(5, x=_DELETE),
     "record 5: missing required field 'x'"),
    ("unknown-role", _mutate(5, role="truck"),
     "record 5: unknown role 'truck' for 'parked'"),
    ("negative-t", _mutate(5, t=-1.0),
     "record 5: timestamp must be finite and >= 0, got -1.0"),
    ("non-finite-x", _mutate(5, x=float("nan")),
     "record 5: x must be finite, got nan"),
    ("both-speeds", _mutate(5, speed_mph=25.0),
     "record 5: both speed_mps and speed_mph present"),
    ("duplicate", _insert(4, 3), "record 4: duplicate actor 'ego' at t=0.05"),
    ("out-of-order-t", _insert(4, 6),
     "record 5: out-of-order timestamp 0.05 after 0.1"),
    ("changed-dims", _mutate(5, length_m=9.0),
     "record 5: actor 'parked' changed dims BoxDims(length=8.0, width=2.0) "
     "-> BoxDims(length=9.0, width=2.0)"),
    ("not-an-object", lambda rs: [json.dumps(r) for r in rs[:5]]
     + ["5"] + [json.dumps(r) for r in rs[6:]],
     "record 5: not a JSON object"),
    ("int-past-digit-limit", lambda rs: [json.dumps(r) for r in rs[:5]]
     + ['{"t": 1%s}' % ("0" * 5000)] + [json.dumps(r) for r in rs[6:]],
     "record 5: invalid JSON: Exceeds the limit (4300 digits) for integer "
     "string conversion: value has 5001 digits; use "
     "sys.set_int_max_str_digits() to increase the limit"),
    ("null-t", _mutate(5, t=None), "record 5: t must be a number, got null"),
    ("text-speed", _mutate(5, speed_mps="fast"),
     'record 5: speed_mps must be a number, got "fast"'),
    ("boolean-x", _mutate(5, x=True), "record 5: x must be a number, got true"),
    ("boolean-speed", _mutate(5, speed_mps=False),
     "record 5: speed_mps must be a number, got false"),
    ("null-actor-id", _mutate(5, actor_id=None),
     "record 5: actor_id must be a string, got null"),
    ("number-actor-id", _mutate(5, actor_id=7),
     "record 5: actor_id must be a string, got 7"),
    # orjson reads an integer past 64 bits as a float; the message shows
    # the integer that the line holds
    ("big-integer-actor-id", _mutate(5, actor_id=2 ** 64),
     "record 5: actor_id must be a string, got 18446744073709551616"),
    ("big-integer-low-confidence", _mutate(5, low_confidence=2 ** 64),
     "record 5: low_confidence must be true or false, got "
     "18446744073709551616"),
    ("text-low-confidence", _mutate(5, low_confidence="false"),
     'record 5: low_confidence must be true or false, got "false"'),
    ("huge-integer-x", _mutate(5, x=10 ** 400),
     "record 5: x must be a number within the range of a float"),
    # Python's JSON decoder takes NaN and Infinity; RFC 8259 does not
    ("nan-speed", _mutate(5, speed_mps=float("nan")),
     "record 5: speed_mps must be finite, got nan"),
    ("infinite-speed-mph", _mutate(5, speed_mps=_DELETE,
                                   speed_mph=float("-inf")),
     "record 5: speed_mph must be finite, got -inf"),
    ("infinite-length", _mutate(5, length_m=float("inf")),
     "record 5: box dimensions must be finite and positive, got inf"
     "x2.0"),
    ("nan-width", _mutate(5, width_m=float("nan")),
     "record 5: box dimensions must be finite and positive, got 8.0"
     "xnan"),
    # decoding the joined lines would accept them; each line alone fails
    ("joined-lines", _joined_lines,
     "record 0: invalid JSON: Expecting ',' delimiter"),
    ("bom-first-line", lambda rs: ["\ufeff" + json.dumps(rs[0])]
     + [json.dumps(r) for r in rs[1:]],
     "record 0: invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    # the records of a vehicle that no rule reads are checked all the same
    ("unread-duplicate", _unread(_insert(8, 7)),
     "record 8: duplicate actor 'car' at t=0.05"),
    ("unread-changed-dims", _unread(_mutate(11, length_m=9.0)),
     "record 11: actor 'car' changed dims BoxDims(length=4.5, width=1.8) "
     "-> BoxDims(length=9.0, width=1.8)"),
    ("unread-out-of-order-t", _unread(_mutate(11, t=0.05)),
     "record 11: out-of-order timestamp 0.05 after 0.1"),
    ("unread-unknown-role", _unread(_mutate(11, role="truck")),
     "record 11: unknown role 'truck' for 'car'"),
    ("unread-nan-t", _unread(_mutate(11, t=float("nan"))),
     "record 11: timestamp must be finite and >= 0, got nan"),
]


class TestMalformedTraceParity:
    """check and monitor frame their input with one routine, so they
    reject the same record with the same message and exit 2."""

    @pytest.mark.parametrize("build,message",
                             [(b, m) for _, b, m in MALFORMED],
                             ids=[c for c, _, _ in MALFORMED])
    def test_same_rejection(self, fixture_dir, tmp_path, build, message):
        records = [json.loads(l) for l in
                   (fixture_dir / "safe_trace.jsonl").read_text().splitlines()]
        trace = tmp_path / "bad_trace.jsonl"
        trace.write_text("\n".join(build(records)) + "\n", "utf-8")
        errors = []
        for command in ("check", "monitor"):
            res = invoke(fixture_dir, command, trace=trace)
            assert isinstance(res.exception, SystemExit), res.exception
            assert res.exit_code == 2, (command, res.output)
            lines = [l for l in res.stderr.splitlines()
                     if l.startswith("error: ")]
            assert len(lines) == 1, (command, res.stderr)
            errors.append(lines[0])
        assert errors == [f"error: {message}"] * 2

    def test_line_separator_in_string_accepted(self, fixture_dir, tmp_path):
        # U+2028 and U+0085 may stand unescaped in a JSON string; only
        # "\n" ends a record, in a trace file as on stdin
        records = [json.loads(l) for l in
                   (fixture_dir / "safe_trace.jsonl").read_text().splitlines()]
        for r in records:
            if r["actor_id"] == "parked":
                r["actor_id"] = "par k\x85ed"
        trace = tmp_path / "separator_trace.jsonl"
        trace.write_text("\n".join(json.dumps(r, ensure_ascii=False)
                                   for r in records) + "\n", "utf-8")
        for command in ("check", "monitor"):
            res = invoke(fixture_dir, command, trace=trace)
            assert res.exit_code == 0, (command, res.output)
            assert res.stderr == ""

    def test_near_coincident_times_exit_2(self, fixture_dir, tmp_path):
        # 1e-10 s apart: a new step for the reader, a time regression for
        # the engine, which needs more than 1e-9 s between steps
        records = [json.loads(l) for l in
                   (fixture_dir / "safe_trace.jsonl").read_text().splitlines()]
        for r in records[3:6]:
            r["t"] = 1e-10
        trace = tmp_path / "near_trace.jsonl"
        trace.write_text("\n".join(json.dumps(r) for r in records[:6]) + "\n")
        for command in ("check", "monitor"):
            res = invoke(fixture_dir, command, trace=trace)
            assert isinstance(res.exception, SystemExit), res.exception
            assert res.exit_code == 2, (command, res.output)
            assert "error: time regression: 1e-10 after 0.0" in res.stderr


class TestNonUtf8Input:
    """Bytes that are not UTF-8 are a parse error (exit 2), never a
    traceback; check, monitor and zones decode a trace alike."""

    @pytest.fixture()
    def bad_trace(self, fixture_dir, tmp_path):
        path = tmp_path / "latin_trace.jsonl"
        path.write_bytes(b"\xff" + (fixture_dir / "safe_trace.jsonl").read_bytes())
        return path

    def test_trace_same_rejection(self, fixture_dir, bad_trace):
        monitor = runner.invoke(main, [
            "monitor", "--map", str(fixture_dir / "safe_map.json"),
            "--rules", str(fixture_dir / "rule162.rules")],
            input=bad_trace.read_bytes())
        for res in (invoke(fixture_dir, "check", trace=bad_trace),
                    invoke(fixture_dir, "zones", trace=bad_trace), monitor):
            assert isinstance(res.exception, SystemExit), res.exception
            assert res.exit_code == 2, res.output
            assert res.stderr == "error: record 0: invalid JSON: Expecting value\n"

    def test_monitor_reads_utf8_whatever_the_locale(self, fixture_dir):
        # stdin opened in the locale's encoding, here Latin-1, must read
        # the bytes that check reads as the same text
        records = [json.loads(l) for l in
                   (fixture_dir / "safe_trace.jsonl").read_text().splitlines()]
        for r in records:
            if r["actor_id"] == "parked":
                r["actor_id"], r["low_confidence"] = "parké", True
        data = "".join(json.dumps(r, ensure_ascii=False) + "\n"
                       for r in records).encode("utf-8")
        res = CliRunner(charset="latin-1").invoke(main, [
            "monitor", "--map", str(fixture_dir / "safe_map.json"),
            "--rules", str(fixture_dir / "rule162.rules")], input=data)
        assert res.exit_code == 0, res.output
        assert '"low_confidence_actors": ["park\\u00e9"]' in res.stdout

    def test_detections_read_as_a_trace(self, fixture_dir, tmp_path):
        # detections share the trace reader: a byte that is not UTF-8 is
        # a bad record, not a decoding traceback
        lines = (fixture_dir / "occlusion_abort_detections.jsonl").read_bytes()
        detections = tmp_path / "latin_detections.jsonl"
        detections.write_bytes(lines.split(b"\n", 1)[0] + b"\n\xff\n")
        res = runner.invoke(main, [
            "estimate", "--detections", str(detections),
            "--calibration", str(fixture_dir / "occlusion_abort_calibration.json"),
            "--out", str(tmp_path / "out.jsonl")])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2, res.output
        assert res.stderr == "error: record 1: invalid JSON: Expecting value\n"

    @pytest.mark.parametrize("command,option", [
        (c, o) for c in ("check", "monitor", "zones")
        for o in ("--map", "--profiles", "--rules")
        if (c, o) != ("zones", "--rules")])
    def test_input_file_exit_2(self, fixture_dir, tmp_path, command, option):
        bad = tmp_path / "latin.json"
        bad.write_bytes(b'{"name": "caf\xe9"}')
        if option == "--map":
            args = [command, "--map", str(bad)]
        else:
            args = [command, "--map", str(fixture_dir / "safe_map.json"),
                    option, str(bad)]
        if command == "monitor":
            res = runner.invoke(main, args, input="")
        else:
            res = runner.invoke(main, args + [
                "--trace", str(fixture_dir / "safe_trace.jsonl")])
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2, res.output
        assert res.stderr.startswith(f"error: {bad}: "), res.stderr


class _LinePipe(io.RawIOBase):
    """A pipe whose writer sends one line at a time: a read returns at most
    the next line, and counts the lines handed over."""

    def __init__(self, data: bytes):
        self.lines = data.splitlines(keepends=True)
        self.handed = 0

    def readable(self):
        return True

    def readinto(self, buf):
        if self.handed == len(self.lines):
            return 0
        line = self.lines[self.handed]
        buf[:len(line)] = line
        self.handed += 1
        return len(line)


class _StampedOut(io.StringIO):
    """stdout that keeps each write with the number of lines read so far."""

    def __init__(self, pipe):
        super().__init__()
        self.pipe = pipe
        self.stamps = []

    def write(self, s):
        self.stamps.append((s, self.pipe.handed))
        return super().write(s)


class TestMonitorReadsLazily:
    def test_step_published_by_first_record_two_steps_on(
            self, fixture_dir, tmp_path, monkeypatch):
        # stdin's bytes are framed by the trace reader, still one line at a
        # time: step k's verdicts are out before the line after the first
        # record of step k+2 is read
        rules = tmp_path / "speed.rules"
        rules.write_text('assertion moving { odd: x type: invariant '
                         'condition: speed_of("av") > 0 }')
        data = (fixture_dir / "safe_trace.jsonl").read_bytes()
        times = [json.loads(line)["t"] for line in data.splitlines()]
        steps = sorted(set(times))
        first_record = {t: times.index(t) for t in steps}
        pipe = _LinePipe(data)
        out = _StampedOut(pipe)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BufferedReader(pipe, buffer_size=1 << 16), encoding="latin-1"))
        monkeypatch.setattr(sys, "stdout", out)
        with pytest.raises(SystemExit) as info:
            main(["monitor", "--map", str(fixture_dir / "safe_map.json"),
                  "--rules", str(rules)], standalone_mode=False)
        assert info.value.code == 0
        written = [(json.loads(s)["t"], handed) for s, handed in out.stamps
                   if s.strip()]
        assert len(written) == len(steps)
        for t, handed in written:
            k = steps.index(t)
            if k + 2 < len(steps):
                assert handed <= first_record[steps[k + 2]] + 1, t


class TestNotApplicableSummary:
    def test_odd_excluded(self, fixture_dir):
        res = runner.invoke(main, [
            "check", "--map", str(fixture_dir / "safe_map.json"),
            "--trace", str(fixture_dir / "safe_trace.jsonl"),
            "--odd", "motorway"])
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert len(lines) == 6
        assert all(l.endswith(": N/A (odd-excluded)") for l in lines), lines

    def test_reference_never_fired(self, fixture_dir, tmp_path):
        rules = tmp_path / "late.rules"
        rules.write_text('assertion late { odd: x type: execution '
                         'reference: time() > 999s condition: true }')
        out_csv = tmp_path / "s.csv"
        res = runner.invoke(main, [
            "check", "--map", str(fixture_dir / "safe_map.json"),
            "--trace", str(fixture_dir / "safe_trace.jsonl"),
            "--rules", str(rules), "--out-csv", str(out_csv)])
        assert res.exit_code == 0, res.output
        assert res.output == "late: N/A (reference-never-fired)\n"
        # the CSV keeps its columns
        assert out_csv.read_text() == ("assertion_id,pass_count,fail_count,"
                                       "first_fail_t\nlate,0,0,\n")


    @pytest.mark.parametrize("rule, extra, reason", [
        ('type: invariant on_missing: not_applicable '
         'condition: speed_of("nobody") > 0', [], "actor-not-found"),
        ('type: post_temporal window: 1000s reference: true '
         'condition: true', ["--lenient-windows"], "insufficient-data"),
        # the one passing step, t=1.05, is debounced into an N/A verdict
        # that has no reason
        ('type: invariant on_missing: not_applicable condition: '
         'time() > 1s and time() < 1.1s or speed_of("nobody") > 0',
         ["--debounce", "3"], "actor-not-found"),
    ])
    def test_only_not_applicable_verdicts(self, fixture_dir, tmp_path, rule,
                                          extra, reason):
        """A rule with no pass and no fail verdict is N/A, with the reasons
        of its not_applicable verdicts, not PASS (0 pass, 0 fail)."""
        rules = tmp_path / "na.rules"
        rules.write_text(f"assertion na {{ odd: x {rule} }}")
        res = runner.invoke(main, [
            "check", "--map", str(fixture_dir / "safe_map.json"),
            "--trace", str(fixture_dir / "safe_trace.jsonl"),
            "--rules", str(rules), *extra])
        assert res.exit_code == 0, res.output
        assert res.output == f"na: N/A ({reason})\n"

    def test_reasons_sorted_and_distinct(self, fixture_dir, tmp_path):
        """Verdicts of two not_applicable reasons list both, once each."""
        rules = tmp_path / "na.rules"
        rules.write_text('assertion na { odd: x type: post_temporal '
                         'window: 2s mode: all on_missing: not_applicable '
                         'reference: time() > 5s '
                         'condition: speed_of("nobody") > 0 }')
        res = runner.invoke(main, [
            "check", "--map", str(fixture_dir / "safe_map.json"),
            "--trace", str(fixture_dir / "safe_trace.jsonl"),
            "--rules", str(rules), "--lenient-windows"])
        assert res.exit_code == 0, res.output
        assert res.output == "na: N/A (actor-not-found, insufficient-data)\n"


class TestSharedShapeErrors:
    """Assertions that read one shape share its evaluation error too: with
    the ego at x = 1e17 and the oncoming vehicle 1 000 km ahead, no box
    resolves, and both assertions fail with the same message at every step,
    in check and in monitor."""

    RULES = """
    assertion a_ds { odd: x type: invariant
      condition: not overlaps(box_of("ov"), danger_space_of("av")) }
    assertion b_box { odd: x type: invariant
      condition: not overlaps(box_of("ov"), box_of("av")) }
    """

    @pytest.mark.parametrize("command", ["check", "monitor"])
    def test_same_error_every_step(self, fixture_dir, tmp_path, command):
        records = []
        for k in range(10):
            t = k * 0.05
            records += [
                {"t": t, "actor_id": "ego", "role": "AV", "x": 1e17 + 11 * t,
                 "y": -1.825, "heading_rad": 0.0, "length_m": 4.5,
                 "width_m": 2.0, "speed_mps": 11.0},
                {"t": t, "actor_id": "onc", "role": "OV",
                 "x": 1e17 + 1e6 - 11 * t, "y": 1.825,
                 "heading_rad": math.pi, "length_m": 4.5, "width_m": 2.0,
                 "speed_mps": 11.0}]
        trace = tmp_path / "far_trace.jsonl"
        trace.write_text("".join(json.dumps(r) + "\n" for r in records))
        rules = tmp_path / "shared.rules"
        rules.write_text(self.RULES)
        res = run_on(command, fixture_dir / "safe_map.json", trace,
                     "--rules", str(rules), "--worst-case-speeds",
                     *(["--print-verdicts"] if command == "check" else []))
        no_traceback(res)
        verdicts = [json.loads(l) for l in res.output.splitlines()
                    if l.startswith("{")]
        assert len(verdicts) == 20
        by_step: dict = {}
        for v in verdicts:
            by_step.setdefault(v["t"], {})[v["assertion_id"]] = \
                (v["result"], v["detail"])
        assert len(by_step) == 10
        for got in by_step.values():
            assert got["a_ds"] == got["b_box"]
            result, detail = got["a_ds"]
            assert result == "fail"
            assert detail["reason"] == "evaluation-error"
            assert detail["error"].startswith(
                "box of 'onc': polygon is not strictly convex")


class TestUnresolvableActor:
    """An actor 1e-170 m across, at the origin, has corners whose cross
    products underflow to 0, so its box does not resolve: every assertion
    that reads it fails with an evaluation error, also where it is far from
    the other shape."""

    RULES = """
    assertion apart { odd: x type: invariant
      condition: not overlaps(box_of("ov"), danger_space_of("av")) }
    assertion gap { odd: x type: invariant
      condition: min_distance(box_of("ov"), box_of("av")) > 1.0 }
    """

    @pytest.mark.parametrize("command", ["check", "monitor"])
    def test_evaluation_error(self, fixture_dir, tmp_path, command):
        records = []
        for k in range(5):
            t = k * 0.05
            records += [
                {"t": t, "actor_id": "ego", "role": "AV", "x": 100 + 11 * t,
                 "y": -1.825, "heading_rad": 0.0, "length_m": 4.5,
                 "width_m": 2.0, "speed_mps": 11.0},
                {"t": t, "actor_id": "dot", "role": "OV", "x": 0.0,
                 "y": 0.0, "heading_rad": 0.0, "length_m": 1e-170,
                 "width_m": 1e-170, "speed_mps": 0.0}]
        trace = tmp_path / "dot_trace.jsonl"
        trace.write_text("".join(json.dumps(r) + "\n" for r in records))
        rules = tmp_path / "dot.rules"
        rules.write_text(self.RULES)
        res = run_on(command, fixture_dir / "safe_map.json", trace,
                     "--rules", str(rules),
                     *(["--print-verdicts"] if command == "check" else []))
        no_traceback(res)
        verdicts = [json.loads(l) for l in res.output.splitlines()
                    if l.startswith("{")]
        assert len(verdicts) == 10
        for v in verdicts:
            assert v["result"] == "fail"
            assert v["detail"]["reason"] == "evaluation-error"
            assert v["detail"]["error"].startswith(
                "box of 'dot': polygon is not strictly convex")


def run_fresh(code: str) -> str:
    """The standard output of ``code`` run by a fresh interpreter that
    imports this checkout's package."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True).stdout


def test_cli_import_leaves_out_command_only_modules():
    out = run_fresh(
        "import sys, roadcheck.cli; print(sorted(m for m in sys.modules "
        "if m in ('roadcheck.scenarios', 'roadcheck.perception', "
        "'roadcheck.zones')))")
    assert out.strip() == "[]"


def test_cli_import_generates_no_dataclass_code():
    # start-up of a short run was mostly dataclass code generation
    out = run_fresh(
        "import dataclasses\n"
        "calls = []\n"
        "generate = dataclasses._process_class\n"
        "dataclasses._process_class = lambda cls, *a: (\n"
        "    calls.append(cls.__qualname__), generate(cls, *a))[1]\n"
        "import roadcheck.cli\n"
        "print(calls)")
    assert out.strip() == "[]"


def test_zones_no_ov_at_decision_step_exit_2(fixture_dir):
    # the oncoming vehicle of occlusion_abort is hidden when the ego first
    # crosses the centre line
    res = runner.invoke(main, [
        "zones", "--map", str(fixture_dir / "occlusion_abort_map.json"),
        "--trace", str(fixture_dir / "occlusion_abort_trace.jsonl")])
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ")
    assert "OV" in res.stderr and " at t=" in res.stderr


def test_zones_faster_passed_vehicle_exit_2(fixture_dir, tmp_path):
    res = invoke(fixture_dir, "zones",
                 trace=fast_vbp_trace(fixture_dir, tmp_path))
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2
    assert "must exceed" in res.output


class TestZonesSingleStepOncoming:
    """An oncoming vehicle seen at the decision step only has no derived
    speed; zones falls back to its recorded speed, as sda() does."""

    def trace(self, root, tmp_path, speed=True):
        records = [json.loads(l)
                   for l in (root / "safe_trace.jsonl").read_text().splitlines()]
        kept = []
        for r in records:
            if r["actor_id"] == "oncoming":
                if r["t"] != 1.05:
                    continue
                if not speed:
                    del r["speed_mps"]
            kept.append(r)
        path = tmp_path / "single_ov_trace.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in kept) + "\n")
        return path

    def test_recorded_speed(self, fixture_dir, tmp_path):
        res = invoke(fixture_dir, "zones",
                     trace=self.trace(fixture_dir, tmp_path))
        assert res.exception is None, res.exception
        assert res.exit_code == 0, res.output
        full = invoke(fixture_dir, "zones")
        rows = res.output.splitlines()
        assert rows[0] == "t,da,sda,ttc,zone"
        assert [r.split(",")[0] for r in rows[1:]] == ["1.05"]
        # the recorded speed is the speed the full trace derives
        assert [float(x) for x in rows[1].split(",")[:4]] == pytest.approx(
            [float(x) for x in full.output.splitlines()[1].split(",")[:4]])
        assert rows[1].split(",")[4] == full.output.splitlines()[1].split(",")[4]

    def test_no_speed_exit_2(self, fixture_dir, tmp_path):
        res = invoke(fixture_dir, "zones",
                     trace=self.trace(fixture_dir, tmp_path, speed=False))
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2, res.output
        assert res.stderr == ("error: decision step at t=1.05: speed of "
                              "'oncoming' is unavailable\n")


def shifted_preset(root, tmp_path, dx, dy, actor=None):
    """The safe preset moved by (dx, dy) metres; with ``actor``, only that
    actor's records move and the map stays."""
    records = [json.loads(l)
               for l in (root / "safe_trace.jsonl").read_text().splitlines()]
    for r in records:
        if actor is None or r["actor_id"] == actor:
            r["x"] += dx
            r["y"] += dy
    trace = tmp_path / "shifted_trace.jsonl"
    trace.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    road = json.loads((root / "safe_map.json").read_text())
    if actor is None:
        road["centreline"] = [[x + dx, y + dy] for x, y in road["centreline"]]
        for lanelet in road["lanelets"]:
            lanelet["vertices"] = [[x + dx, y + dy]
                                   for x, y in lanelet["vertices"]]
    map_path = tmp_path / "shifted_map.json"
    map_path.write_text(json.dumps(road))
    return map_path, trace


def run_on(command, map_path, trace, *extra):
    """``command`` with the shipped rulepack (zones takes no rules)."""
    args = [command, "--map", str(map_path), *extra]
    if command == "monitor":
        return runner.invoke(main, args, input=trace.read_text())
    return runner.invoke(main, args + ["--trace", str(trace)])


def no_traceback(res):
    """The command ended through its exit code, not an exception."""
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        res.exception
    assert "Traceback" not in res.output


def close_verdicts(a_lines, b_lines):
    """Verdict streams equal up to 1e-5 in their numbers."""
    a = [json.loads(l) for l in a_lines if l.startswith("{")]
    b = [json.loads(l) for l in b_lines if l.startswith("{")]
    assert a and len(a) == len(b)
    for va, vb in zip(a, b):
        assert (va["assertion_id"], va["t"], va["result"]) == \
            (vb["assertion_id"], vb["t"], vb["result"])
        assert va["detail"].keys() == vb["detail"].keys()
        for key, value in va["detail"].items():
            if isinstance(value, float):
                assert vb["detail"][key] == pytest.approx(value, abs=1e-5)
            else:
                assert vb["detail"][key] == value


class TestProjectedCoordinates:
    """Map-projected (UTM-sized) coordinates give the verdicts of the same
    scene near the origin; coordinates too large to resolve a vehicle give
    verdicts or exit 2, never a traceback."""

    UTM = (500_000.0, 5_700_000.0)

    def test_check_summary_unchanged(self, fixture_dir, tmp_path):
        map_path, trace = shifted_preset(fixture_dir, tmp_path, *self.UTM)
        outputs = []
        for m, tr, name in ((fixture_dir / "safe_map.json",
                             fixture_dir / "safe_trace.jsonl", "plain"),
                            (map_path, trace, "utm")):
            csv_path = tmp_path / f"{name}.csv"
            jsonl = tmp_path / f"{name}.jsonl"
            res = run_on("check", m, tr, "--out-csv", str(csv_path),
                         "--out-jsonl", str(jsonl))
            assert isinstance(res.exception, SystemExit), res.exception
            outputs.append((res.exit_code, res.output, csv_path.read_text(),
                            jsonl.read_text().splitlines()))
        (code, text, summary, plain), (code2, text2, summary2, utm) = outputs
        assert (code2, text2, summary2) == (code, text, summary)
        close_verdicts(plain, utm)

    def test_monitor_unchanged(self, fixture_dir, tmp_path):
        map_path, trace = shifted_preset(fixture_dir, tmp_path, *self.UTM)
        plain = run_on("monitor", fixture_dir / "safe_map.json",
                       fixture_dir / "safe_trace.jsonl")
        utm = run_on("monitor", map_path, trace)
        no_traceback(utm)
        assert utm.exit_code == plain.exit_code == 0
        close_verdicts(plain.output.splitlines(), utm.output.splitlines())

    def test_zones_unchanged(self, fixture_dir, tmp_path):
        map_path, trace = shifted_preset(fixture_dir, tmp_path, *self.UTM)
        plain = run_on("zones", fixture_dir / "safe_map.json",
                       fixture_dir / "safe_trace.jsonl")
        utm = run_on("zones", map_path, trace)
        assert utm.exit_code == plain.exit_code == 0, utm.output
        rows = [l.split(",") for l in plain.output.splitlines()]
        rows2 = [l.split(",") for l in utm.output.splitlines()]
        assert rows2[0] == rows[0] and len(rows2) == len(rows) > 1
        for row, row2 in zip(rows[1:], rows2[1:]):
            assert row2[-1] == row[-1]
            assert [float(x) for x in row2[:-1]] == pytest.approx(
                [float(x) for x in row[:-1]], abs=1e-5)

    @pytest.mark.parametrize("command", ["check", "monitor", "zones"])
    def test_unresolvable_vehicle_no_traceback(self, fixture_dir, tmp_path,
                                               command):
        map_path, trace = shifted_preset(fixture_dir, tmp_path, 1e17, 0.0,
                                         actor="oncoming")
        res = run_on(command, map_path, trace)
        no_traceback(res)
        if command == "zones":
            assert res.exit_code == 2
            assert res.stderr.startswith("error: ")
            return
        assert res.exit_code == (1 if command == "check" else 0)
        if command == "check":
            return
        errors = evaluation_errors(res.output.splitlines())
        assert any("'oncoming'" in v["detail"]["error"] for v in errors)


def centreline_map(root, tmp_path, end, segments=1):
    """The safe preset's map with its centre line, the x axis from 0 to
    150 m, running from x = -end to x = end in ``segments`` equal segments
    instead."""
    road = json.loads((root / "safe_map.json").read_text())
    road["centreline"] = [[end * (2 * j / segments - 1), 0.0]
                          for j in range(segments + 1)]
    map_path = tmp_path / "long_centreline_map.json"
    map_path.write_text(json.dumps(road))
    return map_path


class TestLongCentreline:
    """A centre line too long for the nearest-point query to measure only
    leaves the pull-out and cut-in angles at 0, which no builtin reads: the
    verdicts are those of the short centre line on the same line."""

    def test_check_unchanged(self, fixture_dir, tmp_path):
        outputs = []
        for m in (fixture_dir / "safe_map.json",
                  centreline_map(fixture_dir, tmp_path, 1e300)):
            jsonl = tmp_path / "verdicts.jsonl"
            res = run_on("check", m, fixture_dir / "safe_trace.jsonl",
                         "--out-jsonl", str(jsonl))
            no_traceback(res)
            outputs.append((res.exit_code, res.output, jsonl.read_text()))
        assert outputs[1] == outputs[0]

    def test_monitor_unchanged(self, fixture_dir, tmp_path):
        trace = fixture_dir / "safe_trace.jsonl"
        plain = run_on("monitor", fixture_dir / "safe_map.json", trace)
        long = run_on("monitor", centreline_map(fixture_dir, tmp_path, 1e300),
                      trace)
        no_traceback(long)
        assert (long.exit_code, long.output) == (plain.exit_code, plain.output)

    @pytest.mark.parametrize("end", [1e300, 1.7e308])
    def test_segment_tree_unchanged(self, fixture_dir, tmp_path, end):
        """Twenty segments build the segment tree, whose nearest-point
        search must end although its squared lengths overflow."""
        long = centreline_map(fixture_dir, tmp_path, end, segments=20)
        assert load_map(long.read_bytes())._segment_tree is not None
        trace = fixture_dir / "safe_trace.jsonl"
        outputs = []
        for m in (fixture_dir / "safe_map.json", long):
            jsonl = tmp_path / "verdicts.jsonl"
            res = run_on("check", m, trace, "--out-jsonl", str(jsonl))
            mon = run_on("monitor", m, trace)
            no_traceback(res)
            no_traceback(mon)
            outputs.append((res.exit_code, res.output, jsonl.read_text(),
                            mon.exit_code, mon.output))
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("command", ["check", "monitor"])
    def test_widest_no_traceback(self, fixture_dir, tmp_path, command):
        res = run_on(command, centreline_map(fixture_dir, tmp_path, 1.7e308),
                     fixture_dir / "safe_trace.jsonl")
        no_traceback(res)
        assert res.exit_code in (0, 1)


def _fuzz_value(rng, kind, value):
    if kind == "null":
        return None
    if kind == "text":
        return rng.choice(["", "fast", "1e999", "nan", "-0"])
    if kind == "list":
        return [value]
    if kind == "negative":
        return -abs(value) if isinstance(value, (int, float)) else -1
    return rng.choice([True, False])


def fuzzed_traces(text, seed=20261018, cases=48):
    """``cases`` copies of a JSONL trace, each with one field of one record
    set to null, text, a list, a negative number or a boolean, or deleted."""
    records = [json.loads(l) for l in text.splitlines()]
    rng = random.Random(seed)
    kinds = ("null", "text", "list", "missing", "negative", "boolean")
    for case in range(cases):
        kind = kinds[case % len(kinds)]
        mutated = [dict(r) for r in records]
        index = rng.randrange(len(mutated))
        key = rng.choice(sorted(mutated[index]))
        if kind == "missing":
            del mutated[index][key]
        else:
            mutated[index][key] = _fuzz_value(rng, kind, mutated[index][key])
        yield (f"{kind}-{key}-{index}",
               "\n".join(json.dumps(r) for r in mutated) + "\n")


class TestMutatedRecordFuzz:
    """No mutated record makes check or monitor print a traceback or exit
    with anything but 0, 1 or 2, and both reject the same traces."""

    def test_no_traceback_and_same_rejection(self, fixture_dir, tmp_path):
        text = (fixture_dir / "safe_trace.jsonl").read_text()
        trace = tmp_path / "fuzzed_trace.jsonl"
        rejected = 0
        for case, fuzzed in fuzzed_traces(text):
            trace.write_text(fuzzed)
            codes = []
            for command in ("check", "monitor"):
                res = run_on(command, fixture_dir / "safe_map.json", trace)
                no_traceback(res)
                assert res.exit_code in (0, 1, 2), (case, command)
                codes.append(res.exit_code)
            assert (codes[0] == 2) == (codes[1] == 2), (case, codes)
            rejected += codes[0] == 2
        assert 0 < rejected < 48

    @pytest.mark.parametrize("command", ["check", "monitor"])
    def test_negative_speed_of_single_step_actor(self, fixture_dir, tmp_path,
                                                 command):
        # only the recorded speed sizes the danger space of an actor seen
        # at one step; a negative one has no stopping distance
        records = [json.loads(l) for l in
                   (fixture_dir / "safe_trace.jsonl").read_text().splitlines()]
        kept = [r for r in records
                if r["actor_id"] != "oncoming" or r["t"] == 0.0]
        for r in kept:
            if r["actor_id"] == "oncoming":
                r["speed_mps"] = -5.0
        trace = tmp_path / "negative_speed_trace.jsonl"
        trace.write_text("\n".join(json.dumps(r) for r in kept) + "\n")
        res = run_on(command, fixture_dir / "safe_map.json", trace,
                     *(["--print-verdicts"] if command == "check" else []))
        no_traceback(res)
        assert res.exit_code == (1 if command == "check" else 0)
        errors = evaluation_errors(res.output.splitlines())
        assert any("speed must be >= 0 mph" in v["detail"]["error"]
                   and v["t"] == 0.0 for v in errors)

    @pytest.mark.parametrize("command", ["check", "monitor"])
    def test_huge_speed_of_single_step_actor(self, fixture_dir, tmp_path,
                                             command):
        # 1e200 m/s is finite, its stopping distance is not: the verdicts
        # are evaluation errors and no verdict line holds Infinity or NaN
        records = [json.loads(l) for l in
                   (fixture_dir / "safe_trace.jsonl").read_text().splitlines()]
        kept = [r for r in records
                if r["actor_id"] != "oncoming" or r["t"] == 1.05]
        for r in kept:
            if r["actor_id"] == "oncoming":
                r["speed_mps"] = 1e200
        trace = tmp_path / "huge_speed_trace.jsonl"
        trace.write_text("\n".join(json.dumps(r) for r in kept) + "\n")
        res = run_on(command, fixture_dir / "safe_map.json", trace,
                     *(["--print-verdicts"] if command == "check" else []))
        no_traceback(res)
        assert res.exit_code == (1 if command == "check" else 0)

        def reject(token):
            raise AssertionError(f"{token} in a verdict line")

        verdicts = [json.loads(l, parse_constant=reject)
                    for l in res.output.splitlines() if l.startswith("{")]
        sda = [v for v in verdicts
               if v["assertion_id"] == "rule162_safe_distance_ahead"]
        assert [(v["t"], v["detail"]["reason"]) for v in sda] == [
            (1.05, "evaluation-error")]


class TestNonFiniteComparison:
    """A comparison of an infinite or NaN value is an evaluation error, as a
    division by zero is: no verdict line holds Infinity or NaN."""

    RULES = """
assertion huge_speed {
  odd: single_carriageway
  type: invariant
  condition: speed_of("av") * 1e308 * 10 > 1
}
assertion time_ratio {
  odd: single_carriageway
  type: invariant
  condition: time() / 1e-320 < 5
}
"""

    @pytest.mark.parametrize("command", ["check", "monitor"])
    def test_evaluation_error_and_strict_json(self, fixture_dir, tmp_path,
                                              command):
        rules = tmp_path / "non_finite.rules"
        rules.write_text(self.RULES)
        res = run_on(command, fixture_dir / "safe_map.json",
                     fixture_dir / "safe_trace.jsonl", "--rules", str(rules),
                     *(["--print-verdicts"] if command == "check" else []))
        no_traceback(res)
        assert res.exit_code == (1 if command == "check" else 0)

        def reject(token):
            raise AssertionError(f"{token} in a verdict line")

        verdicts = [json.loads(l, parse_constant=reject)
                    for l in res.output.splitlines() if l.startswith("{")]
        assert len(verdicts) == 240
        for v in verdicts:
            if v["assertion_id"] == "time_ratio" and v["t"] == 0.0:
                # 0 / 1e-320 is finite
                assert (v["result"], v["detail"]["measured"]) == ("pass", 0.0)
                continue
            assert v["result"] == "fail"
            assert v["detail"] == {
                "reason": "evaluation-error",
                "error": "non-finite operand in comparison: inf "
                         + ("> 1.0" if v["assertion_id"] == "huge_speed"
                            else "< 5.0")}


class TestMonitor:
    def monitor_args(self, root, preset):
        return ["monitor",
                "--map", str(root / f"{preset}_map.json"),
                "--rules", str(root / "rule162.rules"),
                "--profile", "nominal"]

    def test_equivalent_to_check(self, fixture_dir):
        trace_text = (fixture_dir / "safe_trace.jsonl").read_text()
        mon = runner.invoke(main, self.monitor_args(fixture_dir, "safe"),
                            input=trace_text)
        assert mon.exit_code == 0, mon.output
        chk = runner.invoke(main, check_args(
            fixture_dir, "safe", "nominal", extra=["--print-verdicts"]))
        mon_verdicts = sorted(l for l in mon.output.splitlines()
                              if l.startswith("{"))
        chk_verdicts = sorted(l for l in chk.output.splitlines()
                              if l.startswith("{"))
        assert mon_verdicts == chk_verdicts

    def test_empty_input_exit_zero(self, fixture_dir):
        res = runner.invoke(main, self.monitor_args(fixture_dir, "safe"),
                            input="")
        assert res.exit_code == 0
        assert not [l for l in res.output.splitlines() if l.startswith("{")]

    @pytest.mark.parametrize("text", ["", "\n  \n\n"],
                             ids=["zero-bytes", "blank-lines"])
    def test_empty_trace_reads_alike(self, fixture_dir, tmp_path, text):
        # check reads a trace with no records as monitor reads an empty
        # stream: no verdicts and exit 0
        trace = tmp_path / "empty_trace.jsonl"
        trace.write_text(text)
        out_jsonl, out_csv = tmp_path / "v.jsonl", tmp_path / "s.csv"
        chk = invoke(fixture_dir, "check", "--print-verdicts",
                     "--out-jsonl", str(out_jsonl), "--out-csv", str(out_csv),
                     trace=trace)
        mon = invoke(fixture_dir, "monitor", trace=trace)
        for res in (chk, mon):
            assert (res.exit_code, res.output) == (0, ""), res.exception
        assert out_jsonl.read_text() == ""
        assert out_csv.read_text().splitlines() == [
            "assertion_id,pass_count,fail_count,first_fail_t"]
        zones = invoke(fixture_dir, "zones", trace=trace)
        assert zones.exit_code == 2
        assert zones.stderr == "error: the ego never crosses the centre line\n"

    def test_debounce_flush_matches_check(self, fixture_dir, tmp_path):
        # the verdicts still held by the debounce filter when the stream
        # ends are written, as check writes them: the shipped rules, and
        # one whose last two verdicts (t=12.85 and 12.9) are a run too
        # short to publish
        late = tmp_path / "late.rules"
        late.write_text("assertion late { odd: x type: invariant severity: "
                        "performance condition: time() < 12.82s }")
        args = ["--map", str(fixture_dir / "occlusion_abort_map.json"),
                "--rules", str(PACKAGED_PROFILES.with_name("overtaking.rules")),
                "--rules", str(late), "--worst-case-speeds", "--debounce", "3"]
        trace = fixture_dir / "occlusion_abort_trace.jsonl"
        mon = runner.invoke(main, ["monitor", *args],
                            input=trace.read_bytes())
        chk = runner.invoke(main, ["check", *args, "--trace", str(trace),
                                   "--print-verdicts"])
        assert (mon.exit_code, chk.exit_code) == (0, 1)
        verdicts = sorted(l for l in chk.output.splitlines()
                          if l.startswith("{"))
        assert sorted(mon.output.splitlines()) == verdicts
        flushed = [(round(v["t"], 6), v["result"], v["detail"].get(
            "debounced_from")) for v in map(json.loads, verdicts)
            if v["assertion_id"] == "late" and v["t"] > 12.8]
        assert flushed == [(12.85, "pass", "fail"), (12.9, "pass", "fail")]

    def test_time_regression_exit_two(self, fixture_dir):
        # an out-of-order record is a malformed stream, not a safety failure
        lines = (fixture_dir / "safe_trace.jsonl").read_text().splitlines()
        scrambled = "\n".join([lines[6], lines[0], lines[3]])
        res = runner.invoke(main, self.monitor_args(fixture_dir, "safe"),
                            input=scrambled)
        assert res.exit_code == 2
        assert "error: record 1: out-of-order timestamp" in res.output

    def test_duplicate_record_exit_two_like_check(self, fixture_dir, tmp_path):
        lines = (fixture_dir / "safe_trace.jsonl").read_text().splitlines()
        doubled = lines[:4] + [lines[3]] + lines[4:]
        trace = tmp_path / "dup_trace.jsonl"
        trace.write_text("\n".join(doubled) + "\n")
        chk = runner.invoke(main, check_args(fixture_dir, "safe", "nominal")[:3]
                            + ["--trace", str(trace)])
        mon = runner.invoke(main, self.monitor_args(fixture_dir, "safe"),
                            input=trace.read_text())
        assert chk.exit_code == 2 and mon.exit_code == 2
        assert "record 4: duplicate actor" in chk.output
        assert "record 4: duplicate actor" in mon.output

    def test_occlusion_first_fail_at_visibility(self, fixture_dir):
        trace_text = (fixture_dir / "occlusion_abort_trace.jsonl").read_text()
        res = runner.invoke(main, [
            "monitor",
            "--map", str(fixture_dir / "occlusion_abort_map.json"),
            "--profile", "nominal", "--worst-case-speeds"],
            input=trace_text)
        assert res.exit_code == 0, res.output
        fails = {}
        for line in res.output.splitlines():
            if not line.startswith("{"):
                continue
            v = json.loads(line)
            if v["result"] == "fail" and v["assertion_id"].startswith("ds_"):
                fails.setdefault(v["assertion_id"], v["t"])
        from roadcheck.scenarios import preset
        t_vis = preset("occlusion_abort").occlusion.visible_from_t
        for aid in ("ds_ov_outside_av", "ds_av_outside_ov",
                    "ds_no_mutual_overlap"):
            assert fails[aid] == pytest.approx(t_vis, abs=0.051)


class TestGen:
    def test_safe_writes_two_files(self, tmp_path):
        res = runner.invoke(main, ["gen", "safe", "--out-dir", str(tmp_path)])
        assert res.exit_code == 0
        assert (tmp_path / "safe_map.json").exists()
        assert (tmp_path / "safe_trace.jsonl").exists()

    def test_occlusion_includes_detections(self, fixture_dir):
        assert (fixture_dir / "occlusion_abort_detections.jsonl").exists()
        assert (fixture_dir / "occlusion_abort_calibration.json").exists()

    def test_unknown_preset_exit_2(self, tmp_path):
        res = runner.invoke(main, ["gen", "bogus", "--out-dir", str(tmp_path)])
        assert res.exit_code == 2


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 with the path and the
    reason: exit 1 would read as a failed safety assertion, and on the safe
    preset every assertion passes."""

    @pytest.mark.parametrize("command, option", [
        ("check", "--out-jsonl"), ("check", "--out-csv"), ("zones", "--out")])
    def test_missing_directory(self, fixture_dir, tmp_path, command, option):
        target = tmp_path / "missing" / "out.txt"
        res = invoke(fixture_dir, command, option, str(target))
        no_traceback(res)
        assert res.exit_code == 2, res.output
        assert res.stderr == f"error: {target}: No such file or directory\n"

    def test_estimate_missing_directory(self, fixture_dir, tmp_path):
        target = tmp_path / "missing" / "estimated.jsonl"
        res = runner.invoke(main, [
            "estimate",
            "--detections", str(fixture_dir / "occlusion_abort_detections.jsonl"),
            "--calibration", str(fixture_dir / "occlusion_abort_calibration.json"),
            "--out", str(target)])
        no_traceback(res)
        assert res.exit_code == 2, res.output
        assert res.stderr == f"error: {target}: No such file or directory\n"

    def test_gen_out_dir_under_a_file(self, tmp_path):
        (tmp_path / "file").write_text("")
        target = tmp_path / "file" / "presets"
        res = runner.invoke(main, ["gen", "safe", "--out-dir", str(target)])
        no_traceback(res)
        assert res.exit_code == 2, res.output
        assert res.stderr == f"error: {target}: Not a directory\n"

    def test_gen_file_name_taken_by_a_directory(self, tmp_path):
        (tmp_path / "safe_trace.jsonl").mkdir()
        res = runner.invoke(main, ["gen", "safe", "--out-dir", str(tmp_path)])
        no_traceback(res)
        assert res.exit_code == 2, res.output
        assert res.stderr == (f"error: {tmp_path / 'safe_trace.jsonl'}: "
                              "Is a directory\n")


class TestEstimate:
    def test_occlusion_chain(self, fixture_dir, tmp_path):
        out = tmp_path / "estimated.jsonl"
        res = runner.invoke(main, [
            "estimate",
            "--detections", str(fixture_dir / "occlusion_abort_detections.jsonl"),
            "--calibration", str(fixture_dir / "occlusion_abort_calibration.json"),
            "--out", str(out), "--av-speed-mph", "40"])
        assert res.exit_code == 0, res.output
        from roadcheck.trace import load_trace
        est = load_trace(out.read_text())
        assert len(est) > 100
        roles = {st.role for step in est.steps for st in step.values()}
        assert {"AV", "VBP", "OV"} <= roles


def estimate_on(root, tmp_path, calibration=None, extra_lines=()):
    """``estimate`` on the occlusion fixture, with a replaced calibration
    file or detection lines appended after those of its first frames."""
    cal = root / "occlusion_abort_calibration.json"
    if calibration is not None:
        cal = tmp_path / "calibration.json"
        cal.write_bytes(calibration)
    lines = (root / "occlusion_abort_detections.jsonl").read_text().splitlines()
    detections = tmp_path / "detections.jsonl"
    detections.write_text("\n".join(lines[:5] + list(extra_lines)) + "\n")
    res = runner.invoke(main, ["estimate", "--detections", str(detections),
                               "--calibration", str(cal),
                               "--out", str(tmp_path / "out.jsonl")])
    no_traceback(res)
    return res


class TestEstimateBadInput:
    """Input that ``estimate`` cannot use exits 2 with a message, never a
    traceback and exit 1, the safety-failure code."""

    @pytest.mark.parametrize("calibration", [
        b'{"c": "x"}', b"5", b"[" * 100_000, b'{"c": 1200.0, "x": "\xff"}',
        b'{"c": NaN}', b'{"c": 1e400}', b'{"c": 1200.0, "lane_width_px": NaN}',
    ], ids=["text-c", "number", "deep", "not-utf8", "nan-c", "huge-c",
            "nan-lane"])
    def test_calibration(self, fixture_dir, tmp_path, calibration):
        res = estimate_on(fixture_dir, tmp_path, calibration=calibration)
        assert res.exit_code == 2
        assert "error: " in res.output

    @pytest.mark.parametrize("record, shown", [
        ('{"t": 9.0, "frame": 180, "class": "car", "box_width_px": NaN}',
         "record 5: "),
        ('{"t": 9.0, "frame": 180, "class": "car", "box_width_px": 1e-320}',
         "t=9.0"),
        ('{"t": NaN, "frame": 180, "class": "car", "box_width_px": 100.0}',
         "record 5: "),
        ('{"t": 1e308, "frame": 180, "class": "car", "box_width_px": 100.0}',
         "t=1e+308"),
        ('{"t": 9.0, "frame": 180, "line_px": Infinity}', "record 5: "),
    ], ids=["nan-width", "tiny-width", "nan-t", "huge-t", "infinite-line"])
    def test_detection(self, fixture_dir, tmp_path, record, shown):
        res = estimate_on(fixture_dir, tmp_path, extra_lines=[record])
        assert res.exit_code == 2
        assert shown in res.output

    def test_two_detections_of_one_actor_in_a_frame(self, fixture_dir,
                                                    tmp_path):
        record = '{"t": 9.0, "frame": 180, "class": "car", ' \
                 '"box_width_px": %s, "role_hint": "OV"}'
        res = estimate_on(fixture_dir, tmp_path,
                          extra_lines=[record % 100.0, record % 90.0])
        assert res.exit_code == 2
        assert "frame 180" in res.output


def constant_chain(lines: int) -> str:
    """Constants that each use the one before twice: the inlined condition
    has 2 ** lines leaves."""
    consts = ["const c0 = 1"] + [f"const c{i} = c{i - 1} + c{i - 1}"
                                 for i in range(1, lines)]
    return "\n".join(consts + [
        f"assertion chain {{ odd: x type: invariant "
        f"condition: c{lines - 1} > 0 }}"])


class TestNumbersOnly:
    """A number in a map, profile, calibration or detection file must be a
    JSON number: a boolean or a numeric string exits 2 naming the field,
    instead of being read as its value."""

    @pytest.mark.parametrize("field, value", [
        ("pull_out_clearance_m", True), ("cut_in_angle_rad", "0.4")])
    def test_profiles(self, fixture_dir, tmp_path, field, value):
        doc = json.loads(PACKAGED_PROFILES.read_text("utf-8"))
        doc["profiles"]["nominal"][field] = value
        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps(doc))
        res = invoke(fixture_dir, "check", "--profiles", str(profiles))
        no_traceback(res)
        assert res.exit_code == 2, res.output
        assert f"'nominal': {field} must be a number, got " \
            f"{json.dumps(value)}" in res.stderr

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d["lanelets"][0].update(width_m=True), "width_m"),
        (lambda d: d["lanelets"][0].update(orientation_rad="0"),
         "orientation_rad"),
        (lambda d: d["lanelets"][0]["vertices"][0].__setitem__(0, "0.0"),
         "vertices"),
        (lambda d: d["centreline"][0].__setitem__(1, False), "centreline"),
    ], ids=["boolean-width", "text-orientation", "text-vertex",
            "boolean-centreline"])
    def test_map(self, fixture_dir, tmp_path, edit, field):
        doc = json.loads((fixture_dir / "safe_map.json").read_text())
        edit(doc)
        bad = tmp_path / "map.json"
        bad.write_text(json.dumps(doc))
        res = runner.invoke(main, [
            "check", "--map", str(bad),
            "--trace", str(fixture_dir / "safe_trace.jsonl")])
        no_traceback(res)
        assert res.exit_code == 2, res.output
        assert f"{field} must be a number" in res.stderr

    @pytest.mark.parametrize("calibration, field", [
        (b'{"c": 1200.0, "lane_width_px": true}', "lane_width_px"),
        (b'{"c": "1200"}', "c"),
    ], ids=["boolean-lane-width", "text-c"])
    def test_calibration(self, fixture_dir, tmp_path, calibration, field):
        res = estimate_on(fixture_dir, tmp_path, calibration=calibration)
        assert res.exit_code == 2, res.output
        assert f"calibration: {field} must be a number" in res.stderr

    @pytest.mark.parametrize("record, field", [
        ('{"t": 9.0, "frame": 180, "line_px": "502.5"}', "line_px"),
        ('{"t": 9.0, "frame": true, "line_px": 502.5}', "frame"),
        ('{"t": 9.0, "class": "car", "box_width_px": "90"}', "box_width_px"),
    ], ids=["text-line", "boolean-frame", "text-width"])
    def test_detection(self, fixture_dir, tmp_path, record, field):
        res = estimate_on(fixture_dir, tmp_path, extra_lines=[record])
        assert res.exit_code == 2, res.output
        assert f"record 5: {field} must be a number" in res.stderr

    @pytest.mark.parametrize("field, value", [
        ("x", "12.5"), ("heading_rad", "0")])
    def test_trace(self, fixture_dir, tmp_path, field, value):
        records = [json.loads(l) for l in
                   (fixture_dir / "safe_trace.jsonl").read_text().splitlines()]
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(_mutate(5, **{field: value})(records))
                         + "\n")
        for command in ("check", "monitor"):
            res = invoke(fixture_dir, command, trace=trace)
            no_traceback(res)
            assert res.exit_code == 2, (command, res.output)
            assert (f'error: record 5: {field} must be a number, got '
                    f'"{value}"\n') in res.stderr, (command, res.stderr)


class TestStringIds:
    """An identifier must be a JSON string: a lanelet id, a detection's
    role_hint or a trace role that is a number, a boolean or null exits 2
    naming the field, instead of being read as its text."""

    @pytest.mark.parametrize("value", [True, 5])
    def test_lanelet_id(self, fixture_dir, tmp_path, value):
        doc = json.loads((fixture_dir / "safe_map.json").read_text())
        doc["lanelets"][0]["id"] = value
        bad = tmp_path / "map.json"
        bad.write_text(json.dumps(doc))
        res = runner.invoke(main, [
            "check", "--map", str(bad),
            "--trace", str(fixture_dir / "safe_trace.jsonl")])
        no_traceback(res)
        assert res.exit_code == 2, res.output
        assert (f"error: {bad}: lanelets[0]: id must be a string, got "
                f"{json.dumps(value)}\n") in res.stderr

    @pytest.mark.parametrize("value", [5, None])
    def test_role_hint(self, fixture_dir, tmp_path, value):
        record = json.dumps({"t": 9.0, "class": "car", "box_width_px": 90.0,
                             "role_hint": value})
        res = estimate_on(fixture_dir, tmp_path, extra_lines=[record])
        assert res.exit_code == 2, res.output
        assert (f"record 5: role_hint must be a string, got "
                f"{json.dumps(value)}") in res.stderr

    @pytest.mark.parametrize("value", [None, 5])
    @pytest.mark.parametrize("command", ["check", "monitor"])
    def test_trace_role(self, fixture_dir, tmp_path, command, value):
        records = [json.loads(l) for l in
                   (fixture_dir / "safe_trace.jsonl").read_text().splitlines()]
        trace = tmp_path / "bad_trace.jsonl"
        trace.write_text("\n".join(_mutate(5, role=value)(records)) + "\n")
        res = invoke(fixture_dir, command, trace=trace)
        no_traceback(res)
        assert res.exit_code == 2, res.output
        assert (f"error: record 5: role must be a string, got "
                f"{json.dumps(value)}") in res.stderr


class TestRuleSize:
    @pytest.mark.parametrize("command", ["check", "monitor"])
    def test_constant_chain_exit_2_at_once(self, fixture_dir, tmp_path,
                                           command):
        rules = tmp_path / "chain.rules"
        rules.write_text(constant_chain(30))
        start = time.perf_counter()
        res = invoke(fixture_dir, command, "--rules", str(rules))
        elapsed = time.perf_counter() - start
        no_traceback(res)
        assert res.exit_code == 2
        assert "more than 10000 nodes once constants are inlined" in res.output
        assert "31:" in res.output
        assert elapsed < 1.0

    def test_short_chain_compiles(self, fixture_dir, tmp_path):
        rules = tmp_path / "chain.rules"
        rules.write_text(constant_chain(8))
        res = invoke(fixture_dir, "check", "--rules", str(rules))
        assert res.exit_code == 0, res.output
        assert "chain: PASS" in res.output


class TestDebounceOption:
    @pytest.mark.parametrize("depth", ["0", "-3"])
    @pytest.mark.parametrize("command", ["check", "monitor"])
    def test_below_one_exit_2(self, fixture_dir, command, depth):
        res = invoke(fixture_dir, command, "--debounce", depth)
        no_traceback(res)
        assert res.exit_code == 2
        assert "--debounce" in res.output


class TestZonesCommand:
    def test_safe_decision_point(self, fixture_dir):
        res = runner.invoke(main, [
            "zones",
            "--map", str(fixture_dir / "safe_map.json"),
            "--trace", str(fixture_dir / "safe_trace.jsonl"),
            "--profile", "nominal"])
        assert res.exit_code == 0, res.output
        lines = res.output.strip().splitlines()
        assert lines[0] == "t,da,sda,ttc,zone"
        fields = lines[1].split(",")
        assert float(fields[1]) == pytest.approx(76.43, abs=0.01)
        assert fields[4] == "C"

    @pytest.mark.parametrize("option, value", [
        ("--margin", "nan"), ("--ttc-limit", "nan")])
    def test_nan_threshold_exits_2(self, fixture_dir, option, value):
        res = invoke(fixture_dir, "zones", option, value)
        assert isinstance(res.exception, SystemExit), res.exception
        assert res.exit_code == 2, res.output
        assert res.stderr.startswith("error: "), res.stderr

    def test_no_decision_point_exits_2(self, fixture_dir, tmp_path):
        # exit 1 means a failed safety assertion; an ego that never pulls
        # out gives zones nothing to classify, which is an input error
        records = [json.loads(l) for l in
                   (fixture_dir / "safe_trace.jsonl").read_text().splitlines()]
        for r in records:
            if r["actor_id"] == "ego":
                r["y"], r["heading_rad"] = -1.825, 0.0
        trace = tmp_path / "no_pull_out_trace.jsonl"
        trace.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        res = invoke(fixture_dir, "zones", trace=trace)
        assert res.exit_code == 2, res.output
        assert "error: the ego never crosses the centre line" in res.stderr


def _set(path, value):
    """An edit of a JSON document: the value at ``path`` replaced."""
    def edit(doc):
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        return doc
    return edit


class TestFieldMessages:
    """A value of the wrong JSON kind in a profile config or a map exits 2
    with one message that names the field, never the interpreter's own
    words for the fault."""

    @pytest.mark.parametrize("option, edit, message", [
        ("--profiles", _set(["profiles"], [1]),
         "profile config: profiles must be an object, got [1]"),
        ("--profiles", _set(["worst_case_speed_mph"], [1]),
         "profile config: worst_case_speed_mph must be an object, got [1]"),
        ("--profiles", _set(["profiles", "nominal"], "nominal"),
         "profile 'nominal': not a JSON object"),
        ("--profiles", _set(["role_vehicle_class"], {"AV": 5}),
         "profile config: role_vehicle_class AV must be a string, got 5"),
        ("--profiles", lambda doc: [doc], "profile config: not a JSON object"),
        ("--map", _set(["lanelets", 0, "vertices"], 5),
         "lanelets[0]: vertices must be a list of [x, y] points, got 5"),
        ("--map", _set(["lanelets", 0, "vertices", 1], [150.0, -3.65, 0.0]),
         "lanelets[0]: vertices must be a list of [x, y] points, got "
         "[150.0, -3.65, 0.0] among them"),
    ], ids=["profiles-list", "speeds-list", "profile-string",
            "class-number", "top-level-list", "int-vertices",
            "three-element-point"])
    def test_names_the_field(self, fixture_dir, tmp_path, option, edit,
                             message):
        source = (PACKAGED_PROFILES if option == "--profiles"
                  else fixture_dir / "safe_map.json")
        bad = tmp_path / "input.json"
        bad.write_text(json.dumps(edit(json.loads(source.read_text("utf-8")))))
        res = invoke(fixture_dir, "check", option, str(bad))
        no_traceback(res)
        assert res.exit_code == 2, res.output
        assert res.stderr == f"error: {bad}: {message}\n"
        for phrase in ("object has no attribute", "not iterable", "unpack",
                       "not supported between"):
            assert phrase not in res.stderr


def _noted(*path):
    """An edit of a JSON document: the key "note" added to the object at
    ``path``."""
    def edit(doc):
        target = doc
        for key in path:
            target = target[key]
        target["note"] = "unread"
        return doc
    return edit


def _noted_lines(select):
    """An edit of a JSON-lines file: the key "note" added to each record
    that ``select`` picks."""
    def edit(text):
        records = [json.loads(line) for line in text.splitlines()]
        return "".join(json.dumps(_noted()(r) if select(r) else r) + "\n"
                       for r in records)
    return edit


def _document(edit):
    return lambda text: json.dumps(edit(json.loads(text)))


class TestUnknownKeys:
    """A key that no field table names is accepted and reported once per
    input: each command gives the stdout, files and exit code that it gives
    without the key, and one ``warning: <where>: unknown keys ['note']``
    line on stderr, not a Python warning."""

    # (input, the file it is made from, the edit, where the key is reported)
    CASES = [
        ("map", "safe_map.json", _document(_noted()), "map"),
        ("map", "safe_map.json", _document(_noted("lanelets", 0)),
         "lanelets[0]"),
        ("trace", "safe_trace.jsonl", _noted_lines(lambda r: True),
         "record 0"),
        ("profiles", None, _document(_noted()), "profile config"),
        ("calibration", "occlusion_abort_calibration.json",
         _document(_noted()), "calibration"),
        ("detections", "occlusion_abort_detections.jsonl",
         _noted_lines(lambda r: r["t"] == 1.0 and "class" in r), "record 41"),
    ]

    @staticmethod
    def outcome(root, kind, path, out):
        """(exit code, stdout, the files written) and stderr of every
        command that reads ``kind``, with ``path`` as that input."""
        inputs = {"map": root / "safe_map.json",
                  "trace": root / "safe_trace.jsonl",
                  "detections": root / "occlusion_abort_detections.jsonl",
                  "calibration": root / "occlusion_abort_calibration.json",
                  kind: path}
        if kind in ("detections", "calibration"):
            runs = [(["estimate", "--detections", inputs["detections"],
                      "--calibration", inputs["calibration"],
                      "--out", out / "trace.jsonl"], None)]
        else:
            common = ["--map", inputs["map"], "--out-jsonl",
                      out / "v.jsonl", "--out-csv", out / "v.csv"]
            if kind == "profiles":
                common += ["--profiles", path]
            runs = [(["check", "--trace", inputs["trace"], *common], None)]
            if kind == "trace":
                runs.append((["monitor", *common[:2]],
                             inputs["trace"].read_bytes()))
        results = []
        for args, stdin in runs:
            res = runner.invoke(main, [str(a) for a in args], input=stdin)
            no_traceback(res)
            files = {p.name: p.read_text() for p in sorted(out.iterdir())}
            results.append(((res.exit_code, res.stdout, files), res.stderr))
        return results

    @pytest.mark.parametrize("kind, source, edit, where", CASES,
                             ids=["map", "lanelet", "trace", "profiles",
                                  "calibration", "detection"])
    def test_reported_once(self, fixture_dir, tmp_path, kind, source, edit,
                           where):
        source = fixture_dir / source if source else PACKAGED_PROFILES
        suffix = source.suffix
        plain, noted = tmp_path / f"plain{suffix}", tmp_path / f"noted{suffix}"
        text = source.read_text("utf-8")
        plain.write_text(text)
        noted.write_text(edit(text))
        assert noted.read_text() != text
        (tmp_path / "out").mkdir()
        without = self.outcome(fixture_dir, kind, plain, tmp_path / "out")
        with_key = self.outcome(fixture_dir, kind, noted, tmp_path / "out")
        for (result, stderr), (noted_result, noted_stderr) in zip(
                without, with_key):
            assert noted_result == result
            assert stderr == ""
            assert noted_stderr == f"warning: {where}: unknown keys " \
                                   f"['note']\n"
