"""Randomised property tests: batch/stream equivalence, window semantics
against an independent model, and DSL fuzzing."""

import json
import math
import random

import pytest

from roadcheck import dsl
from roadcheck.checker import compile_text, read_set
from roadcheck.dsl import ParseError, format_document, parse
from roadcheck.engine import (FAIL, NOT_APPLICABLE, PASS,
                              EvaluationContext, StreamingEngine,
                              evaluate_document)
from roadcheck.geometry import BoxDims, Pose2D
from roadcheck.models import default_profiles
from roadcheck.trace import ActorState, Trace, load_trace, serialise_trace
from roadcheck.worldmap import load_map

ROAD = load_map(json.dumps({
    "lanelets": [
        {"id": "east", "vertices": [[-50, -3.65], [500, -3.65], [500, 0], [-50, 0]],
         "orientation_rad": 0.0, "width_m": 3.65, "direction": "with_map_axis"},
        {"id": "west", "vertices": [[-50, 0], [500, 0], [500, 3.65], [-50, 3.65]],
         "orientation_rad": math.pi, "width_m": 3.65,
         "direction": "against_map_axis"},
    ],
    "centreline": [[-50, 0], [500, 0]],
}))


# --- random traces and assertion sets --------------------------------------

def random_trace(rng: random.Random) -> Trace:
    n = rng.randint(5, 25)
    dt = rng.choice([0.05, 0.1, 0.2])
    times = tuple(round(k * dt, 10) for k in range(n))
    x_av = rng.uniform(0, 30)
    y_av = rng.uniform(-2.0, -0.5)
    v_av = rng.uniform(3, 15)
    x_ov = rng.uniform(60, 200)
    v_ov = rng.uniform(0, 15)
    ov_from = rng.randint(0, n - 1)
    ov_to = rng.randint(ov_from, n)
    drop = {rng.randrange(n) for _ in range(rng.randint(0, 2))}
    steps = []
    for k, t in enumerate(times):
        step = {}
        wiggle = math.sin(k * 0.7) * rng.uniform(0, 1.2)
        step["ego"] = ActorState(
            actor_id="ego", role="AV", t=t,
            pose=Pose2D(x_av + v_av * t, y_av + wiggle,
                        rng.uniform(-0.2, 0.4)),
            dims=BoxDims(4.0, 2.0),
            speed=v_av if rng.random() < 0.5 else None)
        if ov_from <= k < ov_to and k not in drop:
            step["ov1"] = ActorState(
                actor_id="ov1", role="OV", t=t,
                pose=Pose2D(x_ov - v_ov * t, 1.825, math.pi),
                dims=BoxDims(4.0, 2.0), speed=v_ov)
        steps.append(step)
    return Trace(times=times, steps=tuple(steps), dt=dt)


_CONDITIONS = [
    'speed_of("av") > {x:.2f}',
    'min_distance(box_of("av"), box_of("ov")) > {y:.1f}',
    'not overlaps(box_of("av"), box_of("ov"))',
    'within_lane("av")',
    'heading_rel_lane("av") < 0.3',
    'distance_ahead("av", "ov") > {y:.1f}',
    'true',
    'speed_of("av") >= 0 and not crosses_centreline("av")',
]

_REFERENCES = [
    'time() >= {t:.2f}s',
    'speed_of("av") > {x:.2f}',
    'crosses_centreline("av")',
    'true',
]

_KINDS = ["invariant", "execution", "pre_temporal", "pre_physical",
          "post_temporal", "post_physical"]


def random_assertions(rng: random.Random):
    rules = []
    for i, kind in enumerate(_KINDS):
        cond = rng.choice(_CONDITIONS).format(x=rng.uniform(0, 20),
                                              y=rng.uniform(0, 120))
        parts = [f"assertion r{i} {{", "odd: anywhere", f"type: {kind}"]
        if kind not in ("invariant", "execution"):
            parts.append(f"window: {rng.uniform(0.1, 1.0):.2f}s")
        parts.append(f"mode: {rng.choice(['first', 'all'])}")
        parts.append(f"on_missing: {rng.choice(['fail', 'pass', 'not_applicable'])}")
        if kind != "invariant":
            ref = rng.choice(_REFERENCES).format(t=rng.uniform(0, 2.0),
                                                 x=rng.uniform(0, 18))
            parts.append(f"reference: {ref}")
        parts.append(f"condition: {cond}")
        parts.append("}")
        rules.append("\n".join(parts))
    return compile_text("\n\n".join(rules))


def verdict_key(v):
    return (v.assertion_id, round(v.t, 9), v.result,
            tuple(sorted((k, repr(val)) for k, val in v.detail.items())))


@pytest.mark.parametrize("seed", range(100))
def test_batch_stream_equivalence(seed):
    """Streaming over the whole trace yields the batch verdict multiset."""
    rng = random.Random(seed * 7919 + 13)
    trace = random_trace(rng)
    assertions = random_assertions(rng)
    ctx = EvaluationContext(road=ROAD, config=default_profiles(),
                            profile_name="nominal",
                            strict_windows=rng.random() < 0.5)
    batch = evaluate_document(assertions, trace, ctx)
    engine = StreamingEngine(assertions, ctx)
    streamed = []
    for k in range(len(trace)):
        streamed.extend(engine.feed(trace.times[k], trace.steps[k]))
    streamed.extend(engine.finish())
    assert sorted(map(verdict_key, batch)) == sorted(map(verdict_key, streamed))


# --- the reader's read set --------------------------------------------------

def with_others(trace: Trace, rng: random.Random) -> str:
    """``trace`` as JSON lines with more actors: an ``other`` car at every
    step, an ``other`` vehicle with the id "AV" and, at some steps, one
    with the id "ov", and a vehicle whose role changes between ``other``,
    OV and VBP from step to step."""
    steps = []
    for t, step in zip(trace.times, trace.steps):
        step = dict(step)

        def add(aid, role, x, y, heading=0.0):
            step[aid] = ActorState(
                actor_id=aid, role=role, t=t, pose=Pose2D(x, y, heading),
                dims=BoxDims(4.5, 1.8),
                speed=rng.uniform(0, 12) if rng.random() < 0.5 else None)

        add("car1", "other", 40.0 + 8.0 * t, -1.825)
        add("AV", "other", 120.0 - 6.0 * t, 1.825, math.pi)
        if rng.random() < 0.5:
            add("ov", "other", 90.0 - 9.0 * t, 1.825, math.pi)
        if rng.random() < 0.8:
            add("shifty", rng.choice(["other", "OV", "VBP"]), 60.0 + 4.0 * t,
                rng.choice([-1.825, 1.825]))
        steps.append(step)
    return serialise_trace(Trace(trace.times, tuple(steps), trace.dt))


_NAMED = [
    'speed_of("other") > {x:.2f}',
    'speed_of("Other") > {x:.2f}',
    'min_distance(box_of("car1"), box_of("av")) > {y:.1f}',
    'distance_ahead("av", "ov") > sda()',
    'speed_of("vbp") < {x:.2f} or heading_rel_lane("ov") < 0.1',
    'true',
]


def assert_read_set_keeps_verdicts(assertions, text, ctx):
    """The verdicts over the actors that the read set keeps are those
    over every actor; unless the rules read ``other`` vehicles, the read
    set left some record out."""
    reads = read_set(assertions)
    kept, full = load_trace(text, reads), load_trace(text)
    assert kept.times == full.times
    assert (sum(map(len, kept.steps)) < sum(map(len, full.steps))
            or "other" in reads)
    assert (evaluate_document(assertions, kept, ctx)
            == evaluate_document(assertions, full, ctx))


@pytest.mark.parametrize("seed", range(60))
def test_read_set_keeps_verdicts(seed):
    rng = random.Random(seed * 104729 + 7)
    text = with_others(random_trace(rng), rng)
    extra = rng.choice(_NAMED).format(x=rng.uniform(0, 12),
                                      y=rng.uniform(0, 120))
    assertions = random_assertions(rng) + compile_text(rule_text(
        "named", {"type": "invariant", "on_missing": "fail",
                  "condition": extra}))
    ctx = EvaluationContext(road=ROAD, config=default_profiles(),
                            profile_name="nominal",
                            strict_windows=rng.random() < 0.5)
    assert_read_set_keeps_verdicts(assertions, text, ctx)


_CTX = EvaluationContext(road=ROAD, config=default_profiles(),
                         profile_name="nominal")


@pytest.mark.parametrize("condition, reads", [
    ('speed_of("other") >= 0', {"other"}),
    ('speed_of("Other") >= 0', {"Other", "other"}),
    ('speed_of("car1") >= 0', {"car1"}),
    ('sda() > 0', {"av", "ov", "vbp"}),
], ids=["other", "Other", "car1", "sda"])
def test_read_set_fixed_cases(condition, reads):
    rng = random.Random(5)
    text = with_others(random_trace(rng), rng)
    assertions = compile_text(rule_text("named", {
        "type": "invariant", "condition": condition}))
    assert read_set(assertions) == reads
    assert_read_set_keeps_verdicts(assertions, text, _CTX)


def test_step_of_dropped_actors_only():
    """A step whose records were all left out is kept, empty."""
    def record(t, aid, role, x):
        return json.dumps({"t": t, "actor_id": aid, "role": role, "x": x,
                           "y": -1.825, "heading_rad": 0.0, "length_m": 4.0,
                           "width_m": 2.0})
    text = "\n".join([record(0.0, "ego", "AV", 0.0),
                      record(0.0, "car1", "other", 30.0),
                      record(0.1, "car1", "other", 31.0),
                      record(0.2, "ego", "AV", 2.0),
                      record(0.2, "car1", "other", 32.0)])
    assertions = compile_text(rule_text("named", {
        "type": "invariant", "condition": 'speed_of("av") >= 0'}))
    kept = load_trace(text, read_set(assertions))
    assert kept.times == (0.0, 0.1, 0.2)
    assert [sorted(step) for step in kept.steps] == [["ego"], [], ["ego"]]
    assert_read_set_keeps_verdicts(assertions, text, _CTX)


# --- window semantics against an independent model -------------------------

_EPS = 1e-9


def irregular_trace(rng: random.Random) -> Trace:
    """Jittered sampling; the OV enters and leaves, once or twice."""
    n = rng.randint(8, 40)
    times, t = [], 0.0
    for _ in range(n):
        times.append(round(t, 6))
        t += rng.choice([0.05, 0.1, rng.uniform(0.02, 0.3)])
    x_av, v_av = rng.uniform(0, 30), rng.uniform(3, 15)
    x_ov, v_ov = rng.uniform(40, 150), rng.uniform(0, 15)
    visible = set()
    for _ in range(rng.randint(1, 2)):
        a = rng.randrange(n)
        visible |= set(range(a, rng.randint(a, n)))
    steps = []
    for k, t in enumerate(times):
        step = {"ego": ActorState(
            actor_id="ego", role="AV", t=t,
            pose=Pose2D(x_av + v_av * t, -1.825 + math.sin(k * 0.9)
                        * rng.uniform(0, 1.5), rng.uniform(-0.2, 0.4)),
            dims=BoxDims(4.0, 2.0),
            speed=v_av if rng.random() < 0.5 else None)}
        if k in visible:
            step["ov1"] = ActorState(
                actor_id="ov1", role="OV", t=t,
                pose=Pose2D(x_ov - v_ov * t, 1.825, math.pi),
                dims=BoxDims(4.0, 2.0), speed=v_ov)
        steps.append(step)
    return Trace(times=tuple(times), steps=tuple(steps), dt=times[1])


def windowed_rules(rng: random.Random):
    """Rule texts of every kind but invariant, as (id, fields) pairs."""
    rules = []
    for i in range(rng.randint(3, 7)):
        kind = rng.choice(_KINDS[1:])
        fields = {"type": kind}
        if kind != "execution":
            fields["window"] = f"{rng.uniform(0.05, 1.5):.2f}s"
        fields.update({
            "mode": rng.choice(["first", "all"]),
            "on_missing": rng.choice(["fail", "pass", "not_applicable"]),
            "reference": rng.choice(_REFERENCES).format(
                t=rng.uniform(0, 2.5), x=rng.uniform(0, 18)),
            "condition": rng.choice(_CONDITIONS).format(
                x=rng.uniform(0, 20), y=rng.uniform(0, 120)),
        })
        rules.append((f"w{i}", fields))
    return rules


def rule_text(name, fields):
    body = "\n".join(f"{k}: {v}" for k, v in fields.items())
    return f"assertion {name} {{\nodd: anywhere\n{body}\n}}"


def per_step(name, on_missing, expr, trace, ctx):
    """The verdict of ``expr`` at every step, evaluated as an invariant."""
    text = rule_text(name, {"type": "invariant", "on_missing": on_missing,
                            "condition": expr})
    verdicts = evaluate_document(compile_text(text), trace, ctx)
    assert [v.t for v in verdicts] == list(trace.times)
    return verdicts


def nearest(times, target):
    """Index of the step nearest ``target``; ties go to the earlier one."""
    return min(range(len(times)), key=lambda k: (abs(times[k] - target), k))


def model_verdicts(name, fields, cond, ref, times, strict):
    """The documented window rules applied to per-step condition verdicts
    ``cond`` and reference verdicts ``ref``, as sortable verdict keys."""
    kind, n, t0 = fields["type"], len(times), times[0]
    window = float(fields["window"][:-1]) if "window" in fields else 0.0
    out = []

    def emit(t_ref, result, detail):
        out.append((name, round(t_ref, 9), result,
                    tuple(sorted((k, repr(v)) for k, v in detail.items()))))

    def insufficient(t_ref):
        emit(t_ref, FAIL if strict else NOT_APPLICABLE,
             {"reason": "insufficient-data"})

    def stamp(t_ref, v, **extra):
        emit(t_ref, v.result, {**v.detail, **extra})

    def window_broken(t_ref, j):
        """Step j ends the window: a failure names it, N/A is passed on."""
        if cond[j].result == FAIL:
            stamp(t_ref, cond[j], violated_t=times[j])
        else:
            stamp(t_ref, cond[j])

    fired = False
    for k, t_ref in enumerate(times):
        if ref[k].result != PASS:
            continue
        fired = True
        if kind == "execution":
            stamp(t_ref, cond[k])
        elif kind == "pre_temporal":
            lo = t_ref - window
            covered = [j for j in range(n)
                       if lo - _EPS <= times[j] < t_ref - _EPS]
            bad = [j for j in covered if cond[j].result != PASS]
            if bad:
                window_broken(t_ref, bad[0])
            elif lo < t0 - _EPS:
                insufficient(t_ref)
            else:
                emit(t_ref, PASS, {"steps_checked": len(covered)})
        elif kind == "post_temporal":
            deadline = t_ref + window
            checked = 0
            for j in range(k + 1, n):
                if times[j] <= deadline + _EPS:
                    checked += 1
                    if cond[j].result != PASS:
                        window_broken(t_ref, j)
                        break
                if times[j] >= deadline - _EPS:
                    emit(t_ref, PASS, {"steps_checked": checked})
                    break
            else:
                insufficient(t_ref)
        else:
            target = t_ref - window if kind == "pre_physical" else t_ref + window
            beyond = (target < t0 - _EPS if kind == "pre_physical"
                      else k == n - 1 or times[-1] < target - _EPS)
            if beyond:
                insufficient(t_ref)
            else:
                j = nearest(times, target)
                stamp(t_ref, cond[j], checked_t=times[j])
        if fields["mode"] == "first":
            break
    if not fired:
        emit(times[-1], NOT_APPLICABLE, {"reason": "reference-never-fired"})
    return out


@pytest.mark.parametrize("seed", range(150))
def test_window_semantics_match_model(seed):
    """Every windowed kind under irregular sampling, with actors entering
    and leaving, matches the documented rules re-applied in plain Python to
    per-step condition and reference values."""
    rng = random.Random(seed * 6007 + 29)
    trace = irregular_trace(rng)
    rules = windowed_rules(rng)
    ctx = EvaluationContext(road=ROAD, config=default_profiles(),
                            profile_name="nominal",
                            strict_windows=rng.random() < 0.5)
    expected = []
    for name, fields in rules:
        cond = per_step(name, fields["on_missing"], fields["condition"],
                        trace, ctx)
        ref = per_step(name, "fail", fields["reference"], trace, ctx)
        expected.extend(model_verdicts(name, fields, cond, ref,
                                       list(trace.times), ctx.strict_windows))
    text = "\n\n".join(rule_text(name, fields) for name, fields in rules)
    got = evaluate_document(compile_text(text), trace, ctx)
    assert sorted(map(verdict_key, got)) == sorted(expected)


# --- DSL fuzzing ------------------------------------------------------------

def _atom(rng, depth):
    roll = rng.random()
    if roll < 0.25:
        return f"{rng.uniform(-100, 100):.4g}"
    if roll < 0.35:
        return f"{rng.uniform(0.01, 30):.3g}s"
    if roll < 0.45:
        return rng.choice(['"av"', '"ov"', '"vbp"'])
    if roll < 0.55:
        return rng.choice(["true", "false"])
    if roll < 0.7 and depth > 0:
        return f"({_expr(rng, depth - 1)})"
    name = rng.choice(["speed_of", "box_of", "crosses_centreline",
                       "within_lane", "heading_rel_lane", "frobnicate"])
    args = ", ".join(_expr(rng, depth - 1)
                     for _ in range(rng.randint(0, 2)))
    return f"{name}({args})"


def _expr(rng, depth):
    if depth <= 0:
        return _atom(rng, 0)
    roll = rng.random()
    if roll < 0.2:
        return f"not {_expr(rng, depth - 1)}"
    if roll < 0.3:
        return f"-{_atom(rng, depth - 1)}"
    if roll < 0.55:
        op = rng.choice(["and", "or"])
        return f"{_expr(rng, depth - 1)} {op} {_expr(rng, depth - 1)}"
    if roll < 0.75:
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        return f"{_atom(rng, depth - 1)} {op} {_atom(rng, depth - 1)}"
    op = rng.choice(["+", "-", "*", "/"])
    return f"{_atom(rng, depth - 1)} {op} {_atom(rng, depth - 1)}"


def random_document_text(rng: random.Random) -> str:
    chunks = []
    for i in range(rng.randint(0, 2)):
        chunks.append(f"const c{i} = {_expr(rng, 2)}")
    for i in range(rng.randint(1, 4)):
        kind = rng.choice(_KINDS)
        lines = [f"assertion fuzz{i} {{"]
        tags = ", ".join(f"tag{j}" for j in range(rng.randint(1, 3)))
        lines.append(f"odd: {tags}")
        lines.append(f"type: {kind}")
        if kind not in ("invariant", "execution"):
            lines.append(f"window: {rng.uniform(0.05, 9):.3g}s")
        if rng.random() < 0.5:
            lines.append(f"severity: {rng.choice(['safety', 'performance'])}")
        if rng.random() < 0.5:
            lines.append(f"mode: {rng.choice(['first', 'all'])}")
        if rng.random() < 0.4:
            lines.append("on_missing: pass")
        if kind != "invariant":
            lines.append(f"reference: {_expr(rng, 2)}")
        lines.append(f"condition: {_expr(rng, 3)}")
        lines.append("}")
        if rng.random() < 0.3:
            lines.insert(1, "// fuzz comment")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


@pytest.mark.parametrize("seed", range(500))
def test_fuzz_round_trip_fixed_point(seed):
    rng = random.Random(seed * 104729 + 7)
    text = random_document_text(rng)
    doc = parse(text)
    once = parse(format_document(doc))
    assert once == doc
    assert parse(format_document(once)) == once


@pytest.mark.parametrize("seed", range(200))
def test_fuzz_malformed_never_crashes(seed):
    rng = random.Random(seed * 31337 + 3)
    text = random_document_text(rng)
    kind = rng.random()
    if kind < 0.3:
        cut = rng.randrange(1, max(2, len(text)))
        bad = text[:cut]
    elif kind < 0.6:
        pos = rng.randrange(len(text))
        junk = rng.choice(["}", "{", ")", "((", "&", "@", '"', "==", "1.2.3"])
        bad = text[:pos] + junk + text[pos:]
    else:
        pos = rng.randrange(len(text))
        width = rng.randint(1, 15)
        bad = text[:pos] + text[pos + width:]
    try:
        parse(bad)
    except ParseError as exc:
        assert exc.line >= 1 and exc.col >= 1
    # a mutation may still be well-formed; parsing successfully is fine


def test_rulepack_corpus_fixed_point():
    from roadcheck import rulepack
    from importlib import resources
    corpus = [rulepack.RULE162_SDA, rulepack.RULE163_PULL_OUT,
              rulepack.DANGER_SPACE_RULES,
              resources.files("roadcheck.data").joinpath(
                  "overtaking.rules").read_text("utf-8")]
    for text in corpus:
        doc = parse(text)
        assert parse(format_document(doc)) == doc
