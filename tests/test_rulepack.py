import json
import math

import pytest

from roadcheck.checker import compile_text, read_set
from roadcheck.engine import (FAIL, PASS, EvaluationContext, _BufferedStep,
                              evaluate_document)
from roadcheck.geometry import BoxDims, Pose2D
from roadcheck.models import MPH_TO_MPS, default_profiles
from roadcheck.rulepack import (DANGER_SPACE_IDS, NoManoeuvreError,
                                aggregate_by_stage, danger_space_assertions,
                                danger_space_stage_table, detect_stages,
                                first_failures, load_rulepack,
                                RULE163_PULL_OUT, rule162_sda_assertion,
                                scope_to_manoeuvre)
from roadcheck.scenarios import PRESET_NAMES, generate, preset
from roadcheck.trace import ActorState, Trace
from roadcheck.worldmap import load_map

V25 = 25 * MPH_TO_MPS

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


def actor(t, aid, role, x, y, heading=0.0, length=4.0, width=2.0, speed=None):
    return ActorState(actor_id=aid, role=role, t=t,
                      pose=Pose2D(x, y, heading),
                      dims=BoxDims(length, width), speed=speed)


class TestDetectStages:
    def test_safe_trace_three_contiguous_stages(self, safe_scenario):
        road, trace = safe_scenario
        st = detect_stages(trace, road)
        assert not st.aborted
        assert st.cut_in is not None
        # ordered, non-overlapping, contiguous
        assert st.pull_out[0] < st.pull_out[1] == st.passing[0]
        assert st.passing[0] < st.passing[1] == st.cut_in[0]
        assert st.cut_in[0] < st.cut_in[1]
        # oracle: the pull-out starts at the first opposing-lane overlap
        from roadcheck.worldmap import lanelets_containing
        first_overlap = next(
            k for k in range(len(trace))
            if any(lid == "oncoming" for lid, _ in lanelets_containing(
                road, trace.steps[k]["ego"].box())))
        assert st.pull_out[0] == first_overlap

    def test_partition_covers_manoeuvre(self, safe_scenario):
        road, trace = safe_scenario
        st = detect_stages(trace, road)
        lo, hi = st.manoeuvre_range
        covered = set()
        for name in st.stage_names():
            r = getattr(st, name)
            covered |= set(range(r[0], r[1]))
        assert covered == set(range(lo, hi))

    def test_occlusion_trace_has_no_cut_in(self, occlusion_scenario):
        road, trace = occlusion_scenario
        st = detect_stages(trace, road)
        assert st.aborted
        assert st.cut_in is None
        assert st.stage_names() == ["pull_out", "passing"]

    def test_stays_in_lane_is_no_manoeuvre(self):
        times = tuple(0.1 * k for k in range(10))
        steps = tuple({"ego": actor(t, "ego", "AV", 10 + V25 * t, -1.825),
                       "vbp": actor(t, "vbp", "VBP", 60.0, -1.825)}
                      for t in times)
        trace = Trace(times=times, steps=steps, dt=0.1)
        with pytest.raises(NoManoeuvreError):
            detect_stages(trace, ROAD)


def with_far_vbp(trace: Trace, first: bool) -> Trace:
    """``trace`` with a second VBP, ``a_far``, parked far ahead of the
    ego, its record put before or after those of each step."""
    steps = []
    for t, step in zip(trace.times, trace.steps):
        far = {"a_far": actor(t, "a_far", "VBP", 1000.0, -1.825)}
        steps.append({**far, **step} if first else {**step, **far})
    return Trace(times=trace.times, steps=tuple(steps), dt=trace.dt)


def stages_or_error(trace, road):
    try:
        return detect_stages(trace, road)
    except NoManoeuvreError as exc:
        return str(exc)


def test_stage_roles_do_not_depend_on_record_order(safe_scenario):
    # the VBP is the VBP actor with the smallest id, as in the rules
    road, trace = safe_scenario
    first = stages_or_error(with_far_vbp(trace, True), road)
    last = stages_or_error(with_far_vbp(trace, False), road)
    assert first == last == "AV never draws level with the VBP"


def pullout_trace(gap: float):
    """AV crossing the centre line at 25 mph with a VBP ahead.

    The AV straddles the line so the rule-163 reference fires at every
    step; the box-to-box gap to the VBP is exactly ``gap``.
    """
    times = tuple(0.05 * k for k in range(5))
    y_av = -1.0   # box top edge exactly on the line
    steps = []
    for t in times:
        x = 5.0 + V25 * t
        steps.append({
            "ego": actor(t, "ego", "AV", x, y_av),
            # VBP front gap measured from the AV's front face (x+2)
            "vbp": actor(t, "vbp", "VBP", x + 2 + gap + 2, -1.825),
        })
    return Trace(times=times, steps=tuple(steps), dt=0.05)


class TestRule163PullOut:
    def run(self, gap):
        rule = compile_text(RULE163_PULL_OUT)[0]
        ctx = EvaluationContext(road=ROAD, config=default_profiles(),
                                profile_name="nominal")
        verdicts = evaluate_document([rule], pullout_trace(gap), ctx)
        assert len(verdicts) == 1
        return verdicts[0]

    def test_20m_passes(self):
        v = self.run(20.0)
        assert v.result == PASS
        assert v.detail["threshold"] == pytest.approx(16.658, abs=1e-6)

    def test_boundary_at_stopping_distance_fails(self):
        # the comparison is strict, so a gap at (or a hair under) the
        # stopping distance fails; exact-equality semantics are pinned by
        # the engine's comparison tests
        threshold = self.run(20.0).detail["threshold"]
        v = self.run(threshold - 1e-9)
        assert v.result == FAIL
        assert self.run(threshold + 1e-6).result == PASS

    def test_10m_fails(self):
        assert self.run(10.0).result == FAIL


class TestRule162OnPresets:
    GRID = {"safe": ("fail", "pass", "pass"),
            "near_miss": ("fail", "fail", "pass"),
            "collision": ("fail", "fail", "fail")}
    DA = {"safe": 76.43, "near_miss": 58.33, "collision": 35.63}

    @pytest.mark.parametrize("name", sorted(GRID))
    def test_table_row(self, name, request, config):
        road, trace = request.getfixturevalue(f"{name}_scenario")
        rule = rule162_sda_assertion()
        row = []
        for profile in ("relaxed", "nominal", "aggressive"):
            ctx = EvaluationContext(road=road, config=config,
                                    profile_name=profile)
            v = evaluate_document([rule], trace, ctx)[0]
            row.append(v.result)
            assert v.detail["measured"] == pytest.approx(self.DA[name],
                                                         abs=0.01)
        assert tuple(row) == self.GRID[name]


class TestDangerSpaceAssertions:
    def test_occlusion_stage_table(self, occlusion_scenario, config):
        road, trace = occlusion_scenario
        ctx = EvaluationContext(road=road, config=config,
                                profile_name="nominal",
                                worst_case_speeds=True)
        table = danger_space_stage_table(trace, ctx)
        assert table["ds_vbp_outside_av"] == {"pull_out": PASS,
                                              "passing": PASS}
        for aid in DANGER_SPACE_IDS[1:]:
            assert table[aid] == {"pull_out": PASS, "passing": FAIL}

    def test_visible_approach_mutual_overlap_fails_first(self):
        # with the OV visible from the start, the danger spaces intersect
        # strictly before either vehicle enters the other's danger space
        times = tuple(0.05 * k for k in range(220))
        steps = []
        for t in times:
            x_av = 5.0 + V25 * t
            x_ov = 180.0 - V25 * t
            steps.append({
                "ego": actor(t, "ego", "AV", x_av, 1.075),
                "ov": actor(t, "ov", "OV", x_ov, 1.825, heading=math.pi),
            })
        trace = Trace(times=times, steps=tuple(steps), dt=0.05)
        ctx = EvaluationContext(road=ROAD, config=default_profiles(),
                                profile_name="nominal")
        verdicts = evaluate_document(list(danger_space_assertions()),
                                     trace, ctx)
        ff = first_failures(verdicts)
        assert ff["ds_no_mutual_overlap"] < ff["ds_ov_outside_av"]
        assert ff["ds_no_mutual_overlap"] < ff["ds_av_outside_ov"]

    def test_failures_start_at_visibility(self, occlusion_scenario, config):
        road, trace = occlusion_scenario
        from roadcheck.scenarios import preset
        spec = preset("occlusion_abort")
        ctx = EvaluationContext(road=road, config=config,
                                profile_name="nominal",
                                worst_case_speeds=True)
        stages = detect_stages(trace, road)
        verdicts = scope_to_manoeuvre(
            evaluate_document(list(danger_space_assertions()), trace, ctx),
            stages)
        ff = first_failures(verdicts)
        assert set(ff) == set(DANGER_SPACE_IDS[1:])
        for t in ff.values():
            assert t == pytest.approx(spec.occlusion.visible_from_t,
                                      abs=trace.dt + 1e-9)


def test_shipped_rulepack_compiles():
    assertions = load_rulepack()
    ids = [a.id for a in assertions]
    assert "rule162_safe_distance_ahead" in ids
    assert "rule163_pull_out_separation" in ids
    for aid in DANGER_SPACE_IDS:
        assert aid in ids


def test_rule_texts_are_the_shipped_blocks():
    from roadcheck.rulepack import (DANGER_SPACE_RULES, RULE162_SDA,
                                    RULE163_PULL_OUT)
    parts = [RULE162_SDA, RULE163_PULL_OUT, DANGER_SPACE_RULES]
    sliced = compile_text("".join(parts))
    assert sliced == load_rulepack()
    assert [len(compile_text(p)) for p in parts] == [1, 1, 4]


def test_aggregation_any_step_fails_stage(safe_scenario, config):
    road, trace = safe_scenario
    st = detect_stages(trace, road)
    ctx = EvaluationContext(road=road, config=config, profile_name="nominal")
    # an invariant that fails exactly once inside the passing stage
    k_mid = (st.passing[0] + st.passing[1]) // 2
    t_mid = trace.times[k_mid]
    rule = compile_text(
        f'assertion once {{ odd: road type: invariant '
        f'condition: not (time() == {t_mid!r}s) }}')[0]
    verdicts = evaluate_document([rule], trace, ctx)
    table = aggregate_by_stage(verdicts, st)
    assert table["once"]["passing"] == FAIL
    assert table["once"]["pull_out"] == PASS
    assert table["once"]["cut_in"] == PASS


class TestReadSet:
    """The actors that each shipped rule can resolve, and that the
    evaluator resolves no other."""

    @pytest.mark.parametrize("aid, reads", [
        ("rule162_safe_distance_ahead", {"av", "ov", "vbp"}),
        ("rule163_pull_out_separation", {"av", "vbp"}),
        ("ds_vbp_outside_av", {"av", "vbp"}),
        ("ds_ov_outside_av", {"av", "ov"}),
        ("ds_av_outside_ov", {"av", "ov"}),
        ("ds_no_mutual_overlap", {"av", "ov"}),
    ])
    def test_each_shipped_rule(self, aid, reads):
        rule, = [a for a in load_rulepack() if a.id == aid]
        assert read_set([rule]) == reads

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_resolved_reference_in_read_set(self, name, config,
                                                  monkeypatch):
        road, trace = generate(preset(name))
        received = set()
        resolve = _BufferedStep.resolve

        def recording(at, ref):
            received.add(ref)
            return resolve(at, ref)

        monkeypatch.setattr(_BufferedStep, "resolve", recording)
        rules = load_rulepack()
        for profile in ("aggressive", "nominal", "relaxed"):
            evaluate_document(rules, trace, EvaluationContext(
                road=road, config=config, profile_name=profile))
        assert received == read_set(rules) == {"av", "ov", "vbp"}
