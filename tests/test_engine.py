import gc
import inspect
import io
import json
import math
import os
import pickle
import random
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadcheck.checker import REGISTRY, TypecheckError, compile_text
from roadcheck.engine import (_CONDITION_DETAIL, _NO_DETAIL, FAIL,
                              NOT_APPLICABLE, PASS, DebounceFilter,
                              EvaluationContext, StreamingEngine, StreamError,
                              Verdict, _sort, debounce, evaluate_document,
                              nearest_index, summary_rows, verdicts_to_jsonl)
from roadcheck.geometry import BoxDims, Pose2D, overlap_area
from roadcheck.models import default_profiles
from roadcheck.record import Record
from roadcheck.rulepack import danger_space_assertions
from roadcheck.trace import ActorState, Trace, load_trace, serialise_trace
from roadcheck.worldmap import load_map

ROAD = load_map(json.dumps({
    "lanelets": [
        {"id": "east", "vertices": [[0, -3.65], [500, -3.65], [500, 0], [0, 0]],
         "orientation_rad": 0.0, "width_m": 3.65, "direction": "with_map_axis"},
        {"id": "west", "vertices": [[0, 0], [500, 0], [500, 3.65], [0, 3.65]],
         "orientation_rad": math.pi, "width_m": 3.65,
         "direction": "against_map_axis"},
    ],
    "centreline": [[0, 0], [500, 0]],
}))

CTX = EvaluationContext(road=ROAD, config=default_profiles(),
                        profile_name="nominal")


def actor(t, aid="ego", role="AV", x=0.0, y=-1.825, heading=0.0, speed=None):
    return ActorState(actor_id=aid, role=role, t=t,
                      pose=Pose2D(x, y, heading), dims=BoxDims(4.0, 2.0),
                      speed=speed)


def straight_trace(n=10, dt=0.1, v=10.0, with_ov=False, ov_x0=200.0):
    times = tuple(k * dt for k in range(n))
    steps = []
    for k, t in enumerate(times):
        step = {"ego": actor(t, x=v * t)}
        if with_ov:
            step["ov1"] = actor(t, aid="ov1", role="OV", x=ov_x0 - v * t,
                                y=1.825, heading=math.pi)
        steps.append(step)
    return Trace(times=times, steps=tuple(steps), dt=dt)


def compiled(text):
    return compile_text(text)[0]


def results(verdicts):
    return [(v.t, v.result) for v in verdicts]


class TestInvariant:
    def test_speed_nonnegative_all_pass(self):
        rule = compiled('assertion a { odd: road type: invariant '
                        'condition: speed_of("av") >= 0 }')
        verdicts = evaluate_document([rule], straight_trace(), CTX)
        assert len(verdicts) == 10
        assert all(v.result == PASS for v in verdicts)

    def test_detail_records_measured_and_threshold(self):
        rule = compiled('assertion a { odd: road type: invariant '
                        'condition: speed_of("av") >= 0 }')
        v = evaluate_document([rule], straight_trace(v=10.0), CTX)[0]
        assert v.detail["measured"] == pytest.approx(10.0)
        assert v.detail["threshold"] == 0.0
        assert v.detail["op"] == ">="


class TestOverlapAreaBuiltin:
    AREA = 'overlap_area(box_of("av"), box_of("vbp"))'

    def test_measured_is_the_kernel_area(self):
        # the VBP's box overlaps the AV's by 3 m x 2 m at t = 0, not at 0.1
        steps = [{"ego": actor(t), "vbp": actor(t, aid="vbp", role="VBP", x=x)}
                 for t, x in ((0.0, 1.0), (0.1, 50.0))]
        tr = Trace(times=(0.0, 0.1), steps=tuple(steps), dt=0.1)
        rule = compiled('assertion a { odd: road type: invariant '
                        f'condition: {self.AREA} > 0.5 }}')
        verdicts = evaluate_document([rule], tr, CTX)
        assert results(verdicts) == [(0.0, PASS), (0.1, FAIL)]
        for v, step in zip(verdicts, steps):
            assert v.detail["measured"] == overlap_area(step["ego"].box(),
                                                        step["vbp"].box())
        assert verdicts[0].detail["measured"] == pytest.approx(6.0)
        assert verdicts[1].detail["measured"] == 0.0

    def test_area_is_not_a_distance(self):
        with pytest.raises(TypecheckError,
                           match="unit mismatch between m\\^2 and m"):
            compiled('assertion a { odd: road type: invariant '
                     f'condition: {self.AREA} > min_distance(box_of("av"), '
                     'box_of("vbp")) }')


class TestExecution:
    def test_tie_fails(self):
        # measured distance exactly equal to the threshold must fail
        rule = compiled('assertion a { odd: road type: execution '
                        'reference: true '
                        'condition: distance_ahead("av", "ov") > 60 }')
        # gap is exactly 60.0: AV front at 2.0, OV leading face at 62.0
        tr = straight_trace(n=3, v=0.0, with_ov=True, ov_x0=64.0)
        verdicts = evaluate_document([rule], tr, CTX)
        assert len(verdicts) == 1
        assert verdicts[0].result == FAIL
        assert verdicts[0].detail["measured"] == 60.0

    def test_reference_never_fires(self):
        rule = compiled('assertion a { odd: road type: execution '
                        'reference: speed_of("av") > 99 condition: true }')
        verdicts = evaluate_document([rule], straight_trace(), CTX)
        assert results(verdicts) == [(0.9, NOT_APPLICABLE)]
        assert verdicts[0].detail["reason"] == "reference-never-fired"

    def test_mode_all_fires_everywhere(self):
        rule = compiled('assertion a { odd: road type: execution mode: all '
                        'reference: true condition: true }')
        verdicts = evaluate_document([rule], straight_trace(), CTX)
        assert len(verdicts) == 10

    def test_invariant_equals_always_true_execution(self):
        inv = compiled('assertion a { odd: road type: invariant '
                       'condition: speed_of("av") >= 5 }')
        exe = compiled('assertion a { odd: road type: execution mode: all '
                       'reference: true condition: speed_of("av") >= 5 }')
        tr = straight_trace(v=5.0)
        vi = evaluate_document([inv], tr, CTX)
        ve = evaluate_document([exe], tr, CTX)
        assert [(v.t, v.result, v.detail) for v in vi] == \
               [(v.t, v.result, v.detail) for v in ve]


class TestOddFiltering:
    def test_excluded_tag_single_na(self):
        rule = compiled('assertion a { odd: highway type: invariant '
                        'condition: true }')
        ctx = EvaluationContext(road=ROAD, active_odd=frozenset({"urban"}))
        verdicts = evaluate_document([rule], straight_trace(), ctx)
        assert results(verdicts) == [(0.0, NOT_APPLICABLE)]

    def test_matching_tag_evaluates(self):
        rule = compiled('assertion a { odd: highway, urban type: invariant '
                        'condition: true }')
        ctx = EvaluationContext(road=ROAD, active_odd=frozenset({"urban"}))
        assert all(v.result == PASS
                   for v in evaluate_document([rule], straight_trace(), ctx))

    def test_empty_active_set_means_no_filter(self):
        rule = compiled('assertion a { odd: highway type: invariant '
                        'condition: true }')
        assert all(v.result == PASS
                   for v in evaluate_document([rule], straight_trace(), CTX))

    def test_filtering_never_flips_results(self):
        rule_text = ('assertion a {{ odd: highway type: invariant '
                     'condition: speed_of("av") > {} }}')
        for threshold in (5, 15):
            rule = compiled(rule_text.format(threshold))
            tr = straight_trace(v=10.0)
            plain = evaluate_document([rule], tr, CTX)
            excluded = evaluate_document([rule], tr, EvaluationContext(
                road=ROAD, active_odd=frozenset({"urban"})))
            assert {v.result for v in excluded} == {NOT_APPLICABLE}
            assert {v.result for v in plain} <= {PASS, FAIL}


class TestTemporalWindows:
    def make_rule(self, kind, window="1s", cond='speed_of("av") > 5'):
        return compiled(f'assertion w {{ odd: road type: {kind} '
                        f'window: {window} reference: time() >= 2s '
                        f'condition: {cond} }}')

    def test_pre_all_steps_must_hold(self):
        rule = self.make_rule("pre_temporal")
        verdicts = evaluate_document([rule], straight_trace(n=40, v=10.0), CTX)
        assert results(verdicts) == [(2.0, PASS)]
        assert verdicts[0].detail["steps_checked"] == 10   # [1.0, 2.0)

    def test_pre_violation_fails(self):
        # speed ramps: below 5 m/s before t=1.5
        times = tuple(k * 0.1 for k in range(40))
        steps = []
        x = 0.0
        for t in times:
            v = 2.0 if t < 1.5 else 10.0
            steps.append({"ego": actor(t, x=x)})
            x += v * 0.1
        # rebuild positions so the derived speed matches the ramp
        steps = []
        x = 0.0
        for t in times:
            steps.append({"ego": actor(t, x=x)})
            x += (2.0 if t < 1.5 else 10.0) * 0.1
        tr = Trace(times=times, steps=tuple(steps), dt=0.1)
        rule = self.make_rule("pre_temporal")
        verdicts = evaluate_document([rule], tr, CTX)
        assert verdicts[0].result == FAIL
        assert "violated_t" in verdicts[0].detail

    def test_pre_window_before_start_strict(self):
        rule = compiled('assertion w { odd: road type: pre_temporal '
                        'window: 5s reference: time() >= 2s '
                        'condition: true }')
        verdicts = evaluate_document([rule], straight_trace(n=30), CTX)
        assert verdicts[0].result == FAIL
        assert verdicts[0].detail["reason"] == "insufficient-data"

    def test_pre_window_before_start_lenient(self):
        rule = compiled('assertion w { odd: road type: pre_temporal '
                        'window: 5s reference: time() >= 2s '
                        'condition: true }')
        ctx = EvaluationContext(road=ROAD, strict_windows=False)
        verdicts = evaluate_document([rule], straight_trace(n=30), ctx)
        assert verdicts[0].result == NOT_APPLICABLE

    def test_pre_failure_before_missing_start_fails(self):
        # the window starts before the trace, but a step that it does cover
        # fails: that failure is the verdict, not insufficient-data
        rule = self.make_rule("pre_temporal", window="5s",
                              cond="time() > 0.05s")
        verdicts = evaluate_document([rule], straight_trace(n=30), CTX)
        assert results(verdicts) == [(2.0, FAIL)]
        assert verdicts[0].detail["violated_t"] == 0.0

    # the last step is t = 3.9: a 1.9 s window ends on it, a 2 s window
    # one step past it
    @pytest.mark.parametrize("window,result,detail", [
        ("1.9s", PASS, {"steps_checked": 19}),
        ("2s", FAIL, {"reason": "insufficient-data"})])
    def test_post_far_end_at_trace_end(self, window, result, detail):
        rule = self.make_rule("post_temporal", window=window)
        verdicts = evaluate_document([rule], straight_trace(n=40), CTX)
        assert results(verdicts) == [(2.0, result)]
        assert verdicts[0].detail == detail

    def test_post_past_trace_end_strict_fails(self):
        rule = compiled('assertion w { odd: road type: post_temporal '
                        'window: 5s reference: time() >= 2s '
                        'condition: true }')
        verdicts = evaluate_document([rule], straight_trace(n=30), CTX)
        assert verdicts[0].result == FAIL
        assert verdicts[0].detail["reason"] == "insufficient-data"

    def test_post_violation_fails_at_first_bad_step(self):
        rule = self.make_rule("post_temporal", cond="time() < 2.55s")
        verdicts = evaluate_document([rule], straight_trace(n=40), CTX)
        assert results(verdicts) == [(2.0, FAIL)]
        assert verdicts[0].detail["violated_t"] == pytest.approx(2.6)

    def test_post_complete_window_passes(self):
        rule = self.make_rule("post_temporal")
        verdicts = evaluate_document([rule], straight_trace(n=40, v=10.0), CTX)
        assert results(verdicts) == [(2.0, PASS)]


class TestPhysicalOffsets:
    def test_post_checks_nearest_step(self):
        rule = compiled('assertion w { odd: road type: post_physical '
                        'window: 1s reference: time() >= 2s '
                        'condition: time() >= 3s }')
        verdicts = evaluate_document([rule], straight_trace(n=40), CTX)
        assert verdicts[0].result == PASS
        assert verdicts[0].detail["checked_t"] == pytest.approx(3.0)

    def test_pre_checks_nearest_step(self):
        rule = compiled('assertion w { odd: road type: pre_physical '
                        'window: 1s reference: time() >= 2s '
                        'condition: time() < 1.05s }')
        verdicts = evaluate_document([rule], straight_trace(n=40), CTX)
        assert verdicts[0].result == PASS
        assert verdicts[0].detail["checked_t"] == pytest.approx(1.0)

    # the first step is t = 0: a 2 s offset lands on it, a 2.001 s offset
    # 1 ms before it
    @pytest.mark.parametrize("window,result,detail", [
        ("2s", PASS, {"checked_t": 0.0, "measured": 0.0, "op": "<",
                      "threshold": 0.05}),
        ("2.001s", FAIL, {"reason": "insufficient-data"})])
    def test_pre_offset_at_trace_start(self, window, result, detail):
        rule = compiled('assertion w { odd: road type: pre_physical '
                        f'window: {window} reference: time() >= 2s '
                        'condition: time() < 0.05s }')
        verdicts = evaluate_document([rule], straight_trace(n=40), CTX)
        assert results(verdicts) == [(2.0, result)]
        assert verdicts[0].detail == detail

    def test_target_beyond_end_insufficient(self):
        rule = compiled('assertion w { odd: road type: post_physical '
                        'window: 60s reference: time() >= 2s '
                        'condition: true }')
        verdicts = evaluate_document([rule], straight_trace(n=40), CTX)
        assert verdicts[0].result == FAIL
        assert verdicts[0].detail["reason"] == "insufficient-data"

    def test_nearest_tie_goes_earlier(self):
        times = (0.0, 1.0, 2.0)
        assert nearest_index(times, 0.5) == 0
        assert nearest_index(times, 1.5) == 1
        assert nearest_index(times, 0.6) == 1


class TestMissingActorPolicy:
    def make(self, policy):
        return compiled(f'assertion m {{ odd: road type: invariant '
                        f'on_missing: {policy} '
                        f'condition: speed_of("ov") >= 0 }}')

    def test_default_fail(self):
        v = evaluate_document([self.make("fail")], straight_trace(n=3), CTX)[0]
        assert v.result == FAIL
        assert v.detail["reason"] == "actor-not-found"

    def test_vacuous_pass(self):
        v = evaluate_document([self.make("pass")], straight_trace(n=3), CTX)[0]
        assert v.result == PASS

    def test_not_applicable(self):
        v = evaluate_document([self.make("not_applicable")],
                              straight_trace(n=3), CTX)[0]
        assert v.result == NOT_APPLICABLE


def reference_times(rule, trace, ctx):
    """Reference times of an execution assertion: every verdict but
    reference-never-fired is stamped at one."""
    return [v.t for v in evaluate_document([rule], trace, ctx)
            if v.detail.get("reason") != "reference-never-fired"]


class TestFindReferencePoints:
    def test_first_crossing_on_safe_trace(self, safe_scenario, config):
        road, trace = safe_scenario
        from roadcheck.rulepack import rule162_sda_assertion
        ctx = EvaluationContext(road=road, config=config,
                                profile_name="nominal")
        rule = rule162_sda_assertion()
        refs = reference_times(rule, trace, ctx)
        assert len(refs) == 1
        # oracle: linear scan of the geometric predicate
        from roadcheck.worldmap import crosses_centreline
        expected = next(t for k, t in enumerate(trace.times)
                        if crosses_centreline(
                            road, next(s for s in trace.steps[k].values()
                                       if s.role == "AV").box()))
        assert refs[0] == expected

    def test_always_true_mode_all(self):
        rule = compiled('assertion r { odd: road type: execution mode: all '
                        'reference: true condition: true }')
        refs = reference_times(rule, straight_trace(), CTX)
        assert refs == list(straight_trace().times)

    def test_reference_error_carries_timestep(self):
        from roadcheck.engine import EvalError
        rule = compiled('assertion r { odd: road type: execution '
                        'reference: 1 / 0 > 1 condition: true }')
        with pytest.raises(EvalError, match="t=0.0"):
            evaluate_document([rule], straight_trace(), CTX)

    def test_never_true_reference_empty_list(self):
        rule = compiled('assertion r { odd: road type: execution '
                        'reference: false condition: true }')
        assert reference_times(rule, straight_trace(), CTX) == []


class TestEvaluationErrors:
    def test_condition_error_fails_with_reason(self):
        rule = compiled('assertion e { odd: road type: invariant '
                        'condition: 1 / 0 > 1 }')
        v = evaluate_document([rule], straight_trace(n=3), CTX)[0]
        assert v.result == FAIL
        assert v.detail["reason"] == "evaluation-error"

    def test_low_confidence_actor_surfaces_in_detail(self):
        tr = straight_trace(n=3)
        flagged = {}
        for aid, st in tr.steps[0].items():
            flagged[aid] = ActorState(
                actor_id=st.actor_id, role=st.role, t=st.t, pose=st.pose,
                dims=st.dims, speed=st.speed, low_confidence=True)
        steps = (flagged,) + tr.steps[1:]
        tr2 = Trace(times=tr.times, steps=steps, dt=tr.dt)
        rule = compiled('assertion l { odd: road type: invariant '
                        'condition: speed_of("av") >= 0 }')
        v = evaluate_document([rule], tr2, CTX)[0]
        assert v.detail["low_confidence_actors"] == ["ego"]


def test_low_confidence_actor_stays_with_the_condition_that_reads_it():
    # the low-confidence ov1 is read only by a's reference and by b's
    # condition: the verdicts of a and c, whose conditions read the ego
    # only, must not name it, though all three are evaluated at one step
    tr = straight_trace(n=3, with_ov=True)
    for step in tr.steps:
        step["ov1"].low_confidence = True
    rules = compile_text(
        'assertion a { odd: road type: execution '
        'reference: speed_of("ov") >= 0 condition: speed_of("av") >= 0 }'
        'assertion b { odd: road type: invariant '
        'condition: speed_of("ov") >= 0 }'
        'assertion c { odd: road type: invariant '
        'condition: speed_of("av") >= 0 }')
    named = {}
    for v in evaluate_document(rules, tr, CTX):
        named.setdefault(v.assertion_id, []).append(
            v.detail.get("low_confidence_actors"))
    assert named == {"a": [None], "b": [["ov1"]] * 3, "c": [None] * 3}


def test_every_builtin_has_an_evaluator_of_its_arity():
    # the evaluator dispatches each declared builtin to the _BufferedStep
    # method of the same name, with the evaluated arguments after the step
    from roadcheck.engine import _BufferedStep
    for name, (params, _ret) in REGISTRY.items():
        method = getattr(_BufferedStep, name, None)
        assert callable(method), name
        args = list(inspect.signature(method).parameters)[1:]
        assert len(args) == len(params), name


class TestStreaming:
    def stream(self, rules, trace, ctx=CTX):
        engine = StreamingEngine(rules, ctx)
        out = []
        for k in range(len(trace)):
            out.extend(engine.feed(trace.times[k], trace.steps[k]))
        out.extend(engine.finish())
        return out

    def test_matches_batch_on_simple_rules(self):
        rules = [
            compiled('assertion i { odd: road type: invariant '
                     'condition: speed_of("av") > 5 }'),
            compiled('assertion e { odd: road type: execution '
                     'reference: time() >= 0.5s '
                     'condition: speed_of("av") > 5 }'),
            compiled('assertion pt { odd: road type: pre_temporal '
                     'window: 0.3s reference: time() >= 0.5s '
                     'condition: speed_of("av") > 5 }'),
            compiled('assertion ot { odd: road type: post_temporal '
                     'window: 0.3s reference: time() >= 0.5s '
                     'condition: speed_of("av") > 5 }'),
        ]
        tr = straight_trace(n=15, v=10.0)
        batch = evaluate_document(rules, tr, CTX)
        stream = self.stream(rules, tr)
        key = lambda v: (v.assertion_id, v.t, v.result,
                         tuple(sorted(v.detail.items())))
        assert sorted(map(key, batch)) == sorted(map(key, stream))

    def test_invariant_latency_one_step(self):
        rule = compiled('assertion i { odd: road type: invariant '
                        'condition: speed_of("av") > 5 }')
        engine = StreamingEngine([rule], CTX)
        tr = straight_trace(n=5, v=10.0)
        assert engine.feed(tr.times[0], tr.steps[0]) == []
        got = engine.feed(tr.times[1], tr.steps[1])
        assert [v.t for v in got] == [0.0]

    def test_post_window_emits_at_close(self):
        rule = compiled('assertion p { odd: road type: post_temporal '
                        'window: 2s reference: time() >= 1s '
                        'condition: speed_of("av") > 5 }')
        engine = StreamingEngine([rule], CTX)
        tr = straight_trace(n=60, dt=0.1, v=10.0)
        emitted_at = None
        for k in range(len(tr)):
            for v in engine.feed(tr.times[k], tr.steps[k]):
                if v.assertion_id == "p":
                    emitted_at = tr.times[k]
        # the verdict appears exactly when t_ref + window elapses
        # (processing lag is one step for derived dynamics)
        assert emitted_at == pytest.approx(3.1, abs=1e-9)

    def test_time_regression_rejected(self):
        engine = StreamingEngine([], CTX)
        engine.feed(0.0, {"ego": actor(0.0)})
        engine.feed(0.1, {"ego": actor(0.1)})
        with pytest.raises(StreamError):
            engine.feed(0.05, {"ego": actor(0.05)})

    def test_irregular_sampling_keeps_step_before_horizon(self, safe_scenario):
        # a 0.7 s gap, then 20 Hz: the pre-physical target 0.5 s before the
        # reference at 1.0 s is nearest to the step at 0.2 s, which a
        # history sized from the last dt would already have dropped
        road, trace = safe_scenario
        keep = (0, 2, 4, 18, 19, 20, 21, 22, 23)
        irregular = Trace(times=tuple(trace.times[k] for k in keep),
                          steps=tuple(trace.steps[k] for k in keep), dt=0.05)
        rule = compiled('assertion g { odd: road type: pre_physical '
                        'window: 500ms reference: time() >= 1.0s '
                        'condition: time() < 0.5s }')
        ctx = EvaluationContext(road=road, config=default_profiles(),
                                profile_name="nominal")
        for verdicts in (self.stream([rule], irregular, ctx),
                         evaluate_document([rule], irregular, ctx)):
            assert results(verdicts) == [(1.0, PASS)]
            assert verdicts[0].detail["checked_t"] == 0.2

    def test_bounded_memory(self):
        rule = compiled('assertion p { odd: road type: pre_temporal '
                        'window: 1s reference: time() >= 999s '
                        'condition: true }')
        engine = StreamingEngine([rule], CTX)
        for k in range(500):
            t = 0.1 * k
            engine.feed(t, {"ego": actor(t, x=t)})
            # lookback 1 s at dt 0.1 -> roughly 13 retained steps
            assert engine.buffered_steps <= 16


class TestOnDemandDerivation:
    """Dynamics are derived only for the actors a rule resolves, once per
    actor and step."""

    @pytest.fixture()
    def derived(self, monkeypatch):
        import roadcheck.trace as trace_mod
        calls = []
        original = trace_mod.derive_state

        def counting(prev, cur, nxt, road):
            calls.append((cur.t, cur.actor_id))
            return original(prev, cur, nxt, road)
        monkeypatch.setattr(trace_mod, "derive_state", counting)
        return calls

    def test_only_rule_actors(self, derived, safe_scenario):
        from roadcheck.rulepack import load_rulepack
        road, trace = safe_scenario
        steps = []
        for step in trace.steps:
            crowded = dict(step)
            parked = step["parked"]
            for i in range(20):
                aid = f"other{i:02d}"
                crowded[aid] = ActorState(aid, "other", parked.t,
                                          Pose2D(60.0 + 6 * i, -1.825, 0.0),
                                          parked.dims, parked.speed)
            steps.append(crowded)
        crowd = Trace(times=trace.times, steps=steps, dt=trace.dt)
        ctx = EvaluationContext(road=road, config=default_profiles(),
                                profile_name="nominal")
        plain = evaluate_document(load_rulepack(), trace, ctx)
        derived.clear()
        assert evaluate_document(load_rulepack(), crowd, ctx) == plain
        per_step = Counter(t for t, _ in derived)
        assert set(per_step) == set(trace.times)
        assert max(per_step.values()) <= 3
        assert not any(aid.startswith("other") for _, aid in derived)

    def test_poses_built_only_for_rule_actors(self, monkeypatch,
                                              safe_scenario):
        # a record read from JSON builds its Pose2D when a rule first reads
        # it, so the 20 vehicles that no rule names build none
        import roadcheck.trace as trace_mod
        from roadcheck.rulepack import load_rulepack
        road, trace = safe_scenario
        crowd = []
        for line in serialise_trace(trace).splitlines():
            crowd.append(line)
            record = json.loads(line)
            if record["actor_id"] == "parked":
                for i in range(20):
                    crowd.append(json.dumps({
                        **record, "actor_id": f"other{i:02d}", "role": "other",
                        "x": 60.0 + 6 * i, "y": -1.825, "heading_rad": 0.0}))
        built = []
        original = trace_mod.Pose2D

        def counting(x, y, heading):
            built.append((x, y))
            return original(x, y, heading)
        monkeypatch.setattr(trace_mod, "Pose2D", counting)
        ctx = EvaluationContext(road=road, config=default_profiles(),
                                profile_name="nominal")
        plain = load_trace(serialise_trace(trace))
        verdicts = evaluate_document(load_rulepack(), plain, ctx)
        plain_poses = len(built)
        built.clear()
        crowded = load_trace("\n".join(crowd))
        assert evaluate_document(load_rulepack(), crowded, ctx) == verdicts
        assert 0 < len(built) == plain_poses <= 3 * len(trace)

    def test_one_derivation_per_actor_and_step(self, derived):
        rules = [compiled('assertion lo { odd: road type: invariant '
                          'condition: speed_of("av") > 5 }'),
                 compiled('assertion hi { odd: road type: invariant '
                          'condition: speed_of("av") < 50 }')]
        tr = straight_trace(n=6, v=10.0, with_ov=True)
        verdicts = evaluate_document(rules, tr, CTX)
        assert {v.result for v in verdicts} == {PASS}
        assert sorted(derived) == [(t, "ego") for t in tr.times]

    def test_window_step_keeps_both_neighbours_after_prune(self):
        # x = t^2: the central difference gives exactly 2t, a one-sided one
        # 2t + dt; the step 0.5 s back is the oldest one still buffered
        times = tuple(k * 0.1 for k in range(12))
        steps = [{"ego": actor(t, x=t * t)} for t in times]
        tr = Trace(times=times, steps=steps, dt=0.1)
        rule = compiled('assertion p { odd: road type: pre_physical '
                        'window: 500ms reference: time() >= 1.0s '
                        'condition: speed_of("av") > 0 }')
        (v,) = evaluate_document([rule], tr, CTX)
        assert v.detail["checked_t"] == pytest.approx(0.5)
        assert v.detail["measured"] == pytest.approx(1.0, abs=1e-9)


class TestEvaluationCounts:
    """A temporal condition is evaluated at most once per step however many
    windows cover it, a reference once per step however many assertions
    share it, and a comparison's operands once per verdict."""

    # the boxes close at 20 m/s across a 1.65 m lateral gap
    TRACE = straight_trace(n=60, dt=0.1, v=10.0, with_ov=True)
    GAP = 'min_distance(box_of("av"), box_of("ov")) > 100'
    FIRST_BAD = min(t for t in TRACE.times
                    if math.hypot(196 - 20 * t, 1.65) <= 100)

    @pytest.fixture()
    def conditions(self, monkeypatch):
        import roadcheck.engine as engine_mod
        calls = []
        original = engine_mod._condition_verdict

        def counting(aid, condition, view, t):
            calls.append((aid, view.t))
            return original(aid, condition, view, t)
        monkeypatch.setattr(engine_mod, "_condition_verdict", counting)
        return calls

    def test_pre_window_once_per_step(self, conditions):
        rule = compiled('assertion pre { odd: road type: pre_temporal '
                        'window: 2s mode: all reference: true '
                        f'condition: {self.GAP} }}')
        verdicts = evaluate_document([rule], self.TRACE, CTX)
        assert len(verdicts) == len(self.TRACE)
        assert max(Counter(conditions).values()) == 1
        first_bad = self.FIRST_BAD
        for v in verdicts:
            if v.t < 2.0 - 1e-9:
                assert v.detail == {"reason": "insufficient-data"}
            elif v.t <= first_bad + 1e-9:
                assert v.result == PASS
                assert v.detail == {"steps_checked": 20}
            else:
                assert v.result == FAIL
                assert v.detail["violated_t"] == first_bad
                assert v.detail["op"] == ">"

    def test_open_post_windows_share_one_evaluation(self, conditions):
        rule = compiled('assertion post { odd: road type: post_temporal '
                        'window: 1s mode: all reference: true '
                        f'condition: {self.GAP} }}')
        verdicts = evaluate_document([rule], self.TRACE, CTX)
        assert len(verdicts) == len(self.TRACE)
        assert max(Counter(conditions).values()) == 1
        # every step is covered by up to ten open windows
        assert len(conditions) == len(self.TRACE) - 1
        fails = [v for v in verdicts if "violated_t" in v.detail]
        assert fails
        for v in fails:
            assert v.detail["violated_t"] == min(
                t for t in self.TRACE.times
                if t > v.t + 1e-9 and t >= self.FIRST_BAD)

    def test_shared_reference_once_per_step(self, monkeypatch):
        import roadcheck.engine as engine_mod
        calls = []
        original = engine_mod._reference_holds

        def counting(aid, reference, view):
            calls.append((view.t, aid))
            return original(aid, reference, view)
        monkeypatch.setattr(engine_mod, "_reference_holds", counting)
        kinds = ("execution", "pre_temporal", "post_temporal", "pre_physical")
        rules = [compiled(f'assertion r{i} {{ odd: road type: {kind} '
                          + ('' if kind == "execution" else 'window: 1s ')
                          + 'mode: all reference: crosses_centreline("av") '
                          'condition: true }')
                 for i, kind in enumerate(kinds)]
        rules.append(compiled('assertion late { odd: road type: execution '
                              'mode: all reference: time() >= 1s '
                              'condition: true }'))
        evaluate_document(rules, self.TRACE, CTX)
        per_step = Counter(t for t, _ in calls)
        assert set(per_step.values()) == {2}
        assert len(per_step) == len(self.TRACE)

    def test_compare_operands_once_per_verdict(self, monkeypatch):
        import roadcheck.engine as engine_mod
        calls = []
        original = engine_mod.poly_min_distance

        def counting(a, b):
            calls.append(1)
            return original(a, b)
        monkeypatch.setattr(engine_mod, "poly_min_distance", counting)
        rule = compiled(f'assertion gap {{ odd: road type: invariant '
                        f'condition: {self.GAP} }}')
        verdicts = evaluate_document([rule], self.TRACE, CTX)
        assert len(calls) == len(verdicts) == len(self.TRACE)
        v = verdicts[0]
        assert v.detail == {"measured": pytest.approx(math.hypot(196, 1.65)),
                            "threshold": 100, "op": ">"}


class TestDebounce:
    def mk(self, seq, aid="a", dt=1.0):
        return [Verdict(aid, i * dt, r, {}) for i, r in enumerate(seq)]

    def test_third_consecutive_fail_publishes(self):
        out = debounce(self.mk([PASS, FAIL, PASS, FAIL, FAIL, FAIL]), 3)
        assert [v.result for v in out] == [PASS, PASS, PASS, FAIL, FAIL, FAIL]

    def test_n1_identity(self):
        verdicts = self.mk([PASS, FAIL, PASS, FAIL, FAIL])
        assert debounce(verdicts, 1) == verdicts

    def test_flicker_suppressed(self):
        seq = [FAIL] * 4 + [PASS, PASS] + [FAIL] * 4
        out = debounce(self.mk(seq), 3)
        assert [v.result for v in out] == [FAIL] * 10
        assert out[4].detail["debounced_from"] == PASS

    def test_idempotent(self):
        rng = random.Random(6)
        for _ in range(50):
            seq = [rng.choice([PASS, FAIL, NOT_APPLICABLE])
                   for _ in range(rng.randint(1, 30))]
            n = rng.randint(1, 4)
            once = debounce(self.mk(seq), n)
            twice = debounce(once, n)
            assert once == twice

    def test_per_assertion_streams_independent(self):
        verdicts = (self.mk([PASS, FAIL, FAIL, FAIL], aid="a")
                    + self.mk([FAIL, FAIL, FAIL, PASS], aid="b"))
        verdicts.sort(key=lambda v: (v.t, v.assertion_id))
        out = debounce(verdicts, 3)
        a = [v.result for v in out if v.assertion_id == "a"]
        b = [v.result for v in out if v.assertion_id == "b"]
        assert a == [PASS, FAIL, FAIL, FAIL]
        assert b == [FAIL, FAIL, FAIL, FAIL]

    def test_streaming_filter_matches_batch(self):
        rng = random.Random(8)
        for _ in range(30):
            seq = [rng.choice([PASS, FAIL]) for _ in range(rng.randint(1, 25))]
            n = rng.randint(1, 4)
            verdicts = self.mk(seq)
            filt = DebounceFilter(n)
            streamed = []
            for v in verdicts:
                streamed.extend(filt.feed(v))
            streamed.extend(filt.finish())
            streamed.sort(key=lambda v: v.t)
            assert streamed == debounce(verdicts, n)


class TestSummary:
    def test_counts_and_first_fail(self):
        verdicts = [Verdict("a", 0.0, PASS), Verdict("a", 1.0, FAIL),
                    Verdict("a", 2.0, FAIL), Verdict("b", 0.0, PASS)]
        rows = summary_rows(verdicts)
        assert rows[0] == {"assertion_id": "a", "pass_count": 1,
                           "fail_count": 2, "first_fail_t": 1.0,
                           "na_reasons": set()}
        assert rows[1]["fail_count"] == 0


_DETAILS = [
    {},
    {"measured": 1e-07, "threshold": -0.0, "op": ">"},
    {"measured": 5e+16, "threshold": 3, "op": "<=",
     "low_confidence_actors": ['say "hi"', "back\\slash", "über✓"]},
    {"condition": True},
    {"condition": False, "checked_t": 0.30000000000000004},
    {"measured": 2.0, "threshold": 1.5, "op": "<", "violated_t": 12.35},
    {"steps_checked": 40},
    {"reason": "actor-not-found", "actor": "ov "},
    {"reason": "evaluation-error",
     "error": "non-finite operand in comparison: inf > 1.0"},
    {"condition": True, "debounced_from": "fail"},
    {"reason": "odd-excluded", "active_odd": ["motorway", "single_carriageway"]},
    {"reason": "insufficient-data"},
    {"reason": "reference-never-fired"},
    {"measured": math.inf, "threshold": math.nan, "op": "=="},
]


# strings with non-ASCII and control characters and lone surrogates (what
# surrogateescape decoding makes of bytes that are not UTF-8)
_texts = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.binary().map(lambda b: b.decode("utf-8", "surrogateescape")))
_numbers = st.one_of(st.floats(), st.sampled_from([-0.0, math.nan, math.inf,
                                                   -math.inf]),
                     st.integers(min_value=-2 ** 70, max_value=2 ** 70))
_scalars = st.one_of(st.booleans(), _numbers, _texts)
_values = st.recursive(
    st.none() | _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_texts, inner, max_size=3), max_leaves=6)
# details that take the direct path, and details that fall back
_details = (st.dictionaries(_texts, _scalars, max_size=6)
            | st.dictionaries(_texts, _values, max_size=4))


class TestVerdictJson:
    """``Verdict.to_json`` writes the keys once and encodes only the
    values: byte for byte what ``json.dumps(..., sort_keys=True)`` gives."""

    @staticmethod
    def reference(v):
        return json.dumps({"assertion_id": v.assertion_id, "t": v.t,
                           "result": v.result, "detail": v.detail},
                          sort_keys=True)

    @pytest.mark.parametrize("detail", _DETAILS)
    def test_shapes(self, detail):
        for aid in ("rule162", 'q"uote', "back\\slash", "ünïcødé ✓",
                    "tab\tnew\nline", "\x00"):
            for t in (0.0, -0.0, 1e-07, 5e+16, 1.05, 3, math.inf, math.nan):
                v = Verdict(aid, t, PASS, detail)
                assert v.to_json() == self.reference(v)

    @settings(max_examples=300, deadline=None)
    @given(_texts, _numbers, st.sampled_from([PASS, FAIL, NOT_APPLICABLE]),
           _details)
    def test_any_detail(self, aid, t, result, detail):
        v = Verdict(aid, t, result, detail)
        assert v.to_json() == self.reference(v)
        assert v.to_json() == self.reference(v)     # from the caches too

    @settings(max_examples=300, deadline=None)
    @given(st.text(), st.floats(), st.sampled_from([PASS, FAIL, NOT_APPLICABLE,
                                                    'odd "result"']),
           st.sampled_from(_DETAILS), st.floats(), st.text())
    def test_random(self, aid, t, result, detail, value, text):
        v = Verdict(aid, t, result, dict(detail, measured=value, actor=text))
        assert v.to_json() == self.reference(v)


def plain_rule(cond, kind="invariant", extra=""):
    return compiled(f"assertion p {{ odd: road type: {kind} {extra} "
                    f"condition: {cond} }}")


class TestSharedDetails:
    """A plain condition's verdict without low-confidence actors shares one
    of two read-only details; every verdict whose detail differs from
    those has a dict of its own."""

    def test_shared_and_read_only(self):
        verdicts = evaluate_document(
            [plain_rule("true"), compiled(
                'assertion q { odd: road type: invariant '
                'condition: time() < 0.45s or time() > 0.75s }')],
            straight_trace(n=10), CTX)
        passed = {id(v.detail) for v in verdicts if v.result == PASS}
        failed = {id(v.detail) for v in verdicts if v.result == FAIL}
        assert len(passed) == len(failed) == 1 and len(verdicts) == 20
        for v in verdicts:
            assert v.detail == {"condition": v.result == PASS}
            with pytest.raises(TypeError):
                v.detail["debounced_from"] = FAIL

    @pytest.mark.parametrize("kind, extra, added", [
        ("post_physical", "window: 1s reference: time() >= 0.2s",
         {"checked_t": pytest.approx(1.2)}),
        ("pre_temporal", "window: 0.5s reference: time() >= 0.8s",
         {"violated_t": pytest.approx(0.3)}),
    ])
    def test_window_verdict_own_dict(self, kind, extra, added):
        cond = "time() > 0.35s and true" if kind == "pre_temporal" else "true"
        ok = kind != "pre_temporal"
        v, = evaluate_document([plain_rule(cond, kind, extra)],
                               straight_trace(n=20), CTX)
        assert type(v.detail) is dict
        assert v.detail == {"condition": ok, **added}
        # the shared detail is left as it was
        plain, = evaluate_document([plain_rule(cond)], straight_trace(n=1),
                                   CTX)
        assert dict(plain.detail) == {"condition": ok}

    def test_debounced_verdict_own_dict(self):
        rule = plain_rule("time() < 0.15s or time() > 0.25s")
        out = debounce(evaluate_document([rule], straight_trace(n=6), CTX), 3)
        assert [v.result for v in out] == [PASS] * 6
        flipped = out[2]
        assert type(flipped.detail) is dict
        assert flipped.detail == {"condition": False, "debounced_from": FAIL}
        assert out[0].detail == {"condition": True}

    def test_low_confidence_verdict_own_dict(self):
        tr = straight_trace(n=2)
        st0 = tr.steps[0]["ego"]
        flagged = ActorState(actor_id=st0.actor_id, role=st0.role, t=st0.t,
                             pose=st0.pose, dims=st0.dims, low_confidence=True)
        tr = Trace(times=tr.times, steps=({"ego": flagged},) + tr.steps[1:],
                   dt=tr.dt)
        low, plain = evaluate_document(
            [plain_rule('speed_of("av") >= 0 or true')], tr, CTX)
        assert type(low.detail) is dict
        assert low.detail == {"condition": True,
                              "low_confidence_actors": ["ego"]}
        assert plain.detail == {"condition": True}
        assert type(plain.detail) is not dict

    @pytest.mark.parametrize("detail", [*_CONDITION_DETAIL, None],
                             ids=["false", "true", "default"])
    def test_shared_text_is_json_dumps(self, detail):
        # the shared details' text is encoded once, at import
        for aid in ("rule162", 'q"uote', "back\\slash", "ünïcødé ✓",
                    "tab\tnew\nline", "\x00"):
            for t in (0.0, -0.0, 1e-07, 5e+16, 1.05, 3, -7, math.inf,
                      math.nan):
                v = (Verdict(aid, t, FAIL) if detail is None
                     else Verdict(aid, t, FAIL, detail))
                assert v.detail is (_NO_DETAIL if detail is None else detail)
                assert v.to_json() == json.dumps(
                    {"assertion_id": aid, "t": t, "result": FAIL,
                     "detail": dict(v.detail)}, sort_keys=True)

    def test_actor_not_found_shared_per_actor(self):
        # one read-only detail per missing actor, its text encoded once
        escaped = 'q\\"u\u00f6te'    # q"uöte in rule text: JSON escapes it
        rules = compile_text(
            'assertion a { odd: road type: invariant on_missing: pass '
            'condition: speed_of("ov") >= 0 } '
            'assertion b { odd: road type: invariant condition: '
            f'speed_of("ov") >= 0 or speed_of("{escaped}") > 0 }} '
            'assertion c { odd: road type: invariant condition: '
            f'speed_of("ego") >= 0 and speed_of("{escaped}") > 0 }}')
        verdicts = evaluate_document(rules, straight_trace(n=3), CTX)
        by_actor = {}
        for v in verdicts:
            assert v.detail["reason"] == "actor-not-found"
            by_actor.setdefault(v.detail["actor"], set()).add(id(v.detail))
            with pytest.raises(TypeError):
                v.detail["debounced_from"] = FAIL
            assert v.to_json() == json.dumps(
                {"assertion_id": v.assertion_id, "t": v.t,
                 "result": v.result, "detail": dict(v.detail)},
                sort_keys=True)
            copy = pickle.loads(pickle.dumps(v))
            assert copy == v and type(copy.detail) is dict
        assert {actor: len(ids) for actor, ids in by_actor.items()} == {
            "ov": 1, 'q"u\u00f6te': 1}
        assert len(verdicts) == 9

    @staticmethod
    def flagged_trace(n):
        tr = straight_trace(n=n)
        for step in tr.steps:
            step["ego"].low_confidence = True
        return tr

    def test_low_confidence_actor_read_twice_listed_once(self):
        # the ego read by its id and by its role
        for v in evaluate_document(
                [plain_rule('speed_of("ego") >= 0 and speed_of("av") >= 0')],
                self.flagged_trace(2), CTX):
            assert v.detail == {"condition": True,
                                "low_confidence_actors": ["ego"]}

    @pytest.mark.parametrize("failing, reason", [
        ('speed_of("nobody") > 0', "actor-not-found"),
        ("1 / 0 > 0", "evaluation-error")])
    def test_raise_after_low_confidence_read_leaves_next_shared(
            self, failing, reason):
        rules = compile_text(
            'assertion a { odd: road type: invariant condition: '
            f'speed_of("av") >= 0 and {failing} }}'
            'assertion b { odd: road type: invariant condition: true }')
        # the verdicts of one step, a's first: b reads no actor
        raised, plain = evaluate_document(rules, self.flagged_trace(2),
                                          CTX)[:2]
        assert raised.detail["reason"] == reason
        assert "low_confidence_actors" not in raised.detail
        assert plain.detail is _CONDITION_DETAIL[True]


class TestVerdictOutput:
    def test_jsonl_file_equals_joined_lines(self, tmp_path):
        verdicts = [Verdict(aid, t, result, detail) for aid, t, result, detail
                    in zip("abcdefghijklmn", range(14),
                           [PASS, FAIL, NOT_APPLICABLE] * 5, _DETAILS)]
        verdicts += evaluate_document(
            [plain_rule("time() < 0.45s")],
            straight_trace(n=10), CTX)
        path = tmp_path / "v.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            verdicts_to_jsonl(verdicts, fh)
        assert path.read_text("utf-8") == (
            "\n".join(v.to_json() for v in verdicts) + "\n")
        with open(path, "w", encoding="utf-8") as fh:
            verdicts_to_jsonl([], fh)
        assert path.read_bytes() == b""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 0.1, 0.2, 1e-300]),
                              st.sampled_from(["a", "b", "ab", ""]),
                              st.integers())))
    def test_two_pass_sort_is_the_key_tuple_sort(self, items):
        verdicts = [Verdict(aid, t, PASS, {"n": n}) for t, aid, n in items]
        expected = sorted(verdicts, key=lambda v: (v.t, v.assertion_id))
        _sort(verdicts)
        assert [id(v) for v in verdicts] == [id(v) for v in expected]


def test_no_generic_record_per_step(monkeypatch):
    """Verdicts, poses, derived states and danger-space lengths are built
    without ``Record.__init__``, whose keyword binding the hot path pays
    for at every step otherwise."""
    n, dt = 300, 0.05
    steps = tuple({"ego": actor(t, x=12 * t % 400),
                   "vbp": actor(t, aid="vbp", role="VBP", x=20 + 12 * t % 400),
                   "ov": actor(t, aid="ov", role="OV", x=480 - 12 * t % 400,
                               y=1.825, heading=math.pi)}
                  for t in (k * dt for k in range(n)))
    # read from JSON, so that each pose is built while the rules run
    trace = load_trace(serialise_trace(Trace(
        times=tuple(k * dt for k in range(n)), steps=steps, dt=dt)))
    rules = danger_space_assertions()
    built = Counter()
    generic = Record.__init__

    def counting(self, *args, **kwargs):
        built[type(self).__name__] += 1
        generic(self, *args, **kwargs)
    monkeypatch.setattr(Record, "__init__", counting)
    verdicts = evaluate_document(rules, trace, CTX)
    verdicts_to_jsonl(verdicts, io.StringIO())
    assert len(verdicts) == 4 * n
    assert {v.result for v in verdicts} == {PASS, FAIL}
    assert built == Counter()


def test_hot_path_raises_nothing(monkeypatch):
    """On a drive where every actor is present at every step, evaluating
    and writing the verdicts raise no exception in a roadcheck frame, not
    even one caught there, and build each step's role index at most once."""
    import roadcheck.engine as engine_mod
    n, dt = 300, 0.05
    steps = tuple({"ego": actor(t, x=12 * t % 400),
                   "vbp": actor(t, aid="vbp", role="VBP", x=20 + 12 * t % 400),
                   "ov": actor(t, aid="ov", role="OV", x=480 - 12 * t % 400,
                               y=1.825, heading=math.pi)}
                  for t in (k * dt for k in range(n)))
    trace = load_trace(serialise_trace(Trace(
        times=tuple(k * dt for k in range(n)), steps=steps, dt=dt)))
    rules = danger_space_assertions()
    indexed = Counter()
    original = engine_mod.role_index

    def counting(step):
        indexed[id(step)] += 1
        return original(step)
    monkeypatch.setattr(engine_mod, "role_index", counting)
    package = os.path.dirname(engine_mod.__file__)
    raised = []

    def local(frame, event, arg):
        if event == "exception":
            raised.append((frame.f_code.co_name, arg[0].__name__))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None
    sys.settrace(calls)
    try:
        verdicts = evaluate_document(rules, trace, CTX)
        verdicts_to_jsonl(verdicts, io.StringIO())
    finally:
        sys.settrace(None)
    assert len(verdicts) == 4 * n
    assert raised == []
    assert indexed and max(indexed.values()) == 1


class TestOutputMemory:
    """Guards the memory that ``check``'s output path takes per verdict: the
    shared details, JSONL written line by line and a sort without key
    tuples hold about 133 B per verdict on 3 000 steps of the four danger
    space assertions, where a dict per verdict, one joined JSONL string and
    (t, id) tuples took about 565 B."""

    BYTES_PER_VERDICT = 165

    def test_evaluate_and_write_peak_per_verdict(self, tmp_path):
        n, dt = 3000, 0.05
        steps = tuple({"ego": actor(t, x=12 * t % 400),
                       "vbp": actor(t, aid="vbp", role="VBP",
                                    x=20 + 12 * t % 400),
                       "ov": actor(t, aid="ov", role="OV", x=480 - 12 * t % 400,
                                   y=1.825, heading=math.pi)}
                      for t in (k * dt for k in range(n)))
        path = tmp_path / "drive.jsonl"
        path.write_text(serialise_trace(Trace(
            times=tuple(k * dt for k in range(n)), steps=steps, dt=dt)),
            "utf-8")
        rules = danger_space_assertions()
        with open(path, "rb") as fh:
            trace = load_trace(fh)
        out = tmp_path / "verdicts.jsonl"
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            verdicts = evaluate_document(rules, trace, CTX)
            with open(out, "w", encoding="utf-8") as fh:
                verdicts_to_jsonl(verdicts, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(verdicts) == 4 * n
        assert {v.result for v in verdicts} == {PASS, FAIL}
        assert (peak - base) / len(verdicts) < self.BYTES_PER_VERDICT
