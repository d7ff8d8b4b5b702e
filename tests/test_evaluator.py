"""The engine's compiled expressions against the tree-walking reference.

``engine._compile`` turns each expression into a tree of closures once per
engine.  At every step of the four presets, the closures must give what
``oracles.reference_eval`` gives, node by node: the same value, or the same
exception class with the same message, reading the same actors.  A fixed
table pins the semantics that a random corpus reaches only by chance.
"""

import random

import pytest

from oracles import reference_eval
from roadcheck import dsl
from roadcheck.checker import TypecheckError, compile_text
from roadcheck.dsl import ParseError
from roadcheck.engine import (FAIL, PASS, EvaluationContext, StreamingEngine,
                              _BufferedStep, _compile, evaluate_document)
from roadcheck.models import default_profiles
from roadcheck.scenarios import PRESET_NAMES, generate, preset
from roadcheck.trace import ActorState
from test_engine import CTX, compiled, straight_trace
from test_properties import _expr


def _accepted(text):
    """The condition ``text`` as the checker compiles it, or None."""
    try:
        doc = compile_text(f"assertion e {{ odd: x type: invariant "
                           f"condition: {text} }}")
    except (ParseError, TypecheckError):
        return None
    return doc[0].condition


def _fuzz_corpus(seed, count):
    """``count`` conditions from the DSL fuzzer that type-check."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        node = _accepted(_expr(rng, 3))
        if node is not None:
            out.append(node)
    return out


_ACTORS = ('"av"', '"ov"', '"vbp"', '"AV"', '"nobody"')


def _typed(rng, kind, depth):
    """A well-typed expression of ``kind``: the fuzzer above rarely makes
    a builtin call with arguments of the right types."""
    leaf = depth <= 0
    if kind == "actor":
        return rng.choice(_ACTORS)
    if kind == "poly":
        return (f'{rng.choice(["box_of", "danger_space_of"])}'
                f'({_typed(rng, "actor", 0)})')
    if kind == "bool":
        choices = ["lit", "call"] if leaf else [
            "lit", "call", "not", "andor", "cmp", "cmp", "cmp"]
        pick = rng.choice(choices)
        if pick == "lit":
            return rng.choice(["true", "false"])
        if pick == "call":
            name = rng.choice(["overlaps", "crosses_centreline", "within_lane"])
            if name == "overlaps":
                return (f"overlaps({_typed(rng, 'poly', 0)}, "
                        f"{_typed(rng, 'poly', 0)})")
            return f"{name}({_typed(rng, 'actor', 0)})"
        if pick == "not":
            return f"not ({_typed(rng, 'bool', depth - 1)})"
        if pick == "andor":
            return (f"({_typed(rng, 'bool', depth - 1)}) "
                    f"{rng.choice(['and', 'or'])} "
                    f"({_typed(rng, 'bool', depth - 1)})")
        unit = rng.choice(["m", "mps", "s", "rad"])
        return (f"{_typed(rng, unit, depth - 1)} "
                f"{rng.choice(['<', '<=', '>', '>=', '==', '!='])} "
                f"{_typed(rng, unit, depth - 1)}")
    # a quantity: metres, m/s, seconds or radians
    calls = {"m": [f"min_distance({_typed(rng, 'poly', 0)}, "
                   f"{_typed(rng, 'poly', 0)})",
                   f"distance_ahead({_typed(rng, 'actor', 0)}, "
                   f"{_typed(rng, 'actor', 0)})", "sda()"],
             "mps": [f"speed_of({_typed(rng, 'actor', 0)})"],
             "s": ["time()", f"{rng.choice([0.5, 1, 2.5])}s", "250ms"],
             "rad": [f"heading_rel_lane({_typed(rng, 'actor', 0)})"]}[kind]
    if kind == "m" and not leaf:
        calls.append(f"danger_space_length({_typed(rng, 'mps', depth - 1)})")
    roll = rng.random()
    if leaf or roll < 0.4:
        return rng.choice(calls)
    if roll < 0.55:
        return rng.choice(["0", "1", "2.5", "-3", "1e308"])
    if roll < 0.65:
        return f"-({_typed(rng, kind, depth - 1)})"
    if roll < 0.8:
        return (f"({_typed(rng, kind, depth - 1)}) {rng.choice(['+', '-'])} "
                f"({_typed(rng, kind, depth - 1)})")
    return (f"({_typed(rng, kind, depth - 1)}) {rng.choice(['*', '/'])} "
            f"{rng.choice(['0', '2', '0.5', '1e308', '1e-320'])}")


def _typed_corpus(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = rng.choice(["bool", "bool", "m", "mps", "s", "rad", "poly"])
        text = _typed(rng, kind, 3)
        if kind != "bool":
            # a condition must be boolean: compare the quantity with itself
            # and keep the left operand, the quantity, for the comparison
            node = _accepted(f"({text}) == ({text})" if kind != "poly"
                             else f"overlaps({text}, {text})")
            node = None if node is None else node.args[0]
        else:
            node = _accepted(text)
        assert node is not None, text
        out.append(node)
    return out


def _outcome(fn, at):
    """The value or exception of ``fn`` at ``at``, and the low-confidence
    actors it read, in order: every actor, where all are flagged so."""
    at.touched = ()
    try:
        value = fn(at)
    except Exception as exc:    # the class and message are compared
        outcome = ("raise", type(exc), str(exc))
    else:
        outcome = ("value", type(value), repr(value))
    return outcome, at.touched


def _steps(trace, ctx):
    for k, (t, step) in enumerate(zip(trace.times, trace.steps)):
        at = _BufferedStep(ctx, t, step, trace.steps[k - 1] if k else None)
        at.nxt = trace.steps[k + 1] if k + 1 < len(trace) else None
        yield at


@pytest.fixture(scope="module")
def corpus():
    return _fuzz_corpus(2024, 40) + _typed_corpus(7, 80)


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("worst_case", [False, True])
def test_compiled_matches_reference_walk(corpus, name, worst_case):
    road, trace = generate(preset(name))
    # the step records each actor read only when it is low-confidence
    for step in trace.steps:
        for st in step.values():
            st.low_confidence = True
    ctx = EvaluationContext(road=road, config=default_profiles(),
                            profile_name="nominal",
                            worst_case_speeds=worst_case)
    memo: dict = {}     # one per engine: equal subtrees share a closure
    compiled_fns = [_compile(node, memo) for node in corpus]
    raised = 0
    for at in _steps(trace, ctx):
        for node, fn in zip(corpus, compiled_fns):
            # each side gets its own per-step memo, so that the reference
            # walk builds its shapes itself
            at.memo = {}
            got = _outcome(fn, at)
            at.memo = {}
            want = _outcome(lambda at: reference_eval(node, at), at)
            assert got == want, (at.t, node)
            raised += got[0][0] == "raise"
    assert raised       # the corpus reaches the error paths


def _verdicts(condition, trace=None):
    rule = compiled(f"assertion a {{ odd: road type: invariant "
                    f"condition: {condition} }}")
    return evaluate_document([rule], trace or straight_trace(), CTX)


@pytest.mark.parametrize("condition, result, detail", [
    # and/or do not evaluate their right operand once the left decides
    ('false and speed_of("ov") > 1', FAIL, {"condition": False}),
    ('true or speed_of("ov") > 1', PASS, {"condition": True}),
    ('speed_of("ov") > 1 or true', FAIL,
     {"reason": "actor-not-found", "actor": "ov"}),
    ('not crosses_centreline("av")', PASS, {"condition": True}),
    ('not not false', FAIL, {"condition": False}),
    ('-speed_of("av") < 0', PASS,
     {"measured": pytest.approx(-10.0), "threshold": 0.0, "op": "<"}),
    ('-(-2) == 2', PASS, {"measured": 2.0, "threshold": 2.0, "op": "=="}),
    ('1s + 500ms == 1.5s', PASS,
     {"measured": 1.5, "threshold": 1.5, "op": "=="}),
    ('speed_of("av") / 0 > 1', FAIL,
     {"reason": "evaluation-error", "error": "division by zero"}),
    ('speed_of("av") * 1e308 * 10 > 1', FAIL,
     {"reason": "evaluation-error",
      "error": "non-finite operand in comparison: inf > 1.0"}),
    ('not (speed_of("av") * 1e308 * 10 - speed_of("av") * 1e308 * 10 < 1)',
     FAIL, {"reason": "evaluation-error",
            "error": "non-finite operand in comparison: nan < 1.0"}),
])
def test_fixed_semantics(condition, result, detail):
    v = _verdicts(condition)[5]
    assert (v.result, v.detail) == (result, detail)


def test_durations_are_seconds():
    verdicts = _verdicts("time() >= 500ms")
    assert [v.result for v in verdicts] == [FAIL] * 5 + [PASS] * 5
    assert verdicts[0].detail == {"measured": 0.0, "threshold": 0.5, "op": ">="}


@pytest.mark.parametrize("condition, listed", [
    ('speed_of("ov") > 0', ["ov1"]),
    ('speed_of("av") > 0 and speed_of("ov") > 0', ["ov1"]),
    ('true or speed_of("ov") > 0', None),
    ('false and speed_of("ov") > 0', None),
    ('speed_of("av") > 0 or speed_of("ov") > 0', None),
])
def test_low_confidence_lists_only_actors_read(condition, listed):
    trace = straight_trace(with_ov=True)
    for step in trace.steps:
        st = step["ov1"]
        step["ov1"] = ActorState(st.actor_id, st.role, st.t, st.pose, st.dims,
                                 st.speed, low_confidence=True)
    for v in _verdicts(condition, trace):
        assert v.detail.get("low_confidence_actors") == listed


def test_equal_subtrees_share_one_closure():
    memo: dict = {}
    a = _accepted('crosses_centreline("av") and speed_of("av") > 1')
    b = _accepted('not crosses_centreline("av")')
    _compile(a, memo)
    _compile(b, memo)
    assert _compile(a.args[0], memo) is _compile(b.args[0], memo)
    # "av", the two calls, 1, the comparison, "and" and "not"
    assert len(memo) == 7


def test_engine_build_hashes_no_subtree(monkeypatch):
    """Hash-consing looks each node up by its children's closures, so an
    engine build hashes no ``dsl`` node, instead of re-hashing every subtree
    at each lookup: that took quadratic time in the condition's length."""
    terms = 190
    doc = compile_text("assertion a { odd: x type: invariant condition: "
                       + " + ".join(['speed_of("av")'] * terms) + " > 0 }")
    calls = []

    def counting(node, _hash=dsl.Expr.__hash__):
        calls.append(node.op)
        return _hash(node)
    monkeypatch.setattr(dsl.Expr, "__hash__", counting)
    StreamingEngine(doc, CTX)
    # each term is a call and its string; then the additions, 0 and ">"
    nodes = 2 * terms + (terms - 1) + 2
    assert len(calls) <= nodes
