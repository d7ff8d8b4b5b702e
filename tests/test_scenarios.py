import math

import pytest

from roadcheck.engine import EvaluationContext, evaluate_document
from roadcheck.geometry import min_distance
from roadcheck.models import MPH_TO_MPS, default_profiles
from roadcheck.rulepack import rule162_sda_assertion
from roadcheck.scenarios import (ABORT_REACT_S, FALLBACK_GAP,
                                 InvalidSpecError, ScenarioSpec, build_map,
                                 generate, preset)
from roadcheck.trace import load_trace, serialise_trace


class TestPresets:
    def test_safe_offset(self):
        assert preset("safe").ov_start_offset == 76.43

    def test_collision_speed(self):
        assert preset("collision").v_av_mph == 25.0

    def test_occlusion_delay_is_six_seconds(self):
        spec = preset("occlusion_abort")
        assert (spec.occlusion.visible_from_t
                - spec.pull_out_start_s) == pytest.approx(6.0)

    def test_occlusion_flicker_two_steps(self):
        spec = preset("occlusion_abort")
        a, b = spec.occlusion.flicker_steps
        assert b == a + 1

    def test_unknown_preset(self):
        with pytest.raises(InvalidSpecError):
            preset("bogus")


class TestGenerate:
    @pytest.mark.parametrize("name,da", [("safe", 76.43),
                                         ("near_miss", 58.33),
                                         ("collision", 35.63)])
    def test_da_at_crossing_matches_offset(self, name, da, request, config):
        road, trace = request.getfixturevalue(f"{name}_scenario")
        ctx = EvaluationContext(road=road, config=config,
                                profile_name="nominal")
        decisions = [v for v in evaluate_document([rule162_sda_assertion()],
                                                  trace, ctx)
                     if v.detail.get("reason") != "reference-never-fired"]
        assert len(decisions) == 1
        assert decisions[0].detail["measured"] == pytest.approx(da, abs=0.01)

    def test_near_miss_under_one_metre(self, near_miss_scenario):
        road, trace = near_miss_scenario
        best = math.inf
        for step in trace.steps:
            if "oncoming" not in step:
                continue
            best = min(best, min_distance(step["ego"].box(),
                                          step["oncoming"].box()))
        assert 0.0 < best < 1.0

    def test_collision_overlaps(self, collision_scenario):
        road, trace = collision_scenario
        assert any("oncoming" in step and min_distance(
            step["ego"].box(), step["oncoming"].box()) == 0.0
            for step in trace.steps)

    def test_safe_stays_clear(self, safe_scenario):
        road, trace = safe_scenario
        best = min(min_distance(step["ego"].box(), step["oncoming"].box())
                   for step in trace.steps if "oncoming" in step)
        assert best > 1.2

    def test_deterministic_bitwise(self):
        a = serialise_trace(generate(preset("safe"))[1])
        b = serialise_trace(generate(preset("safe"))[1])
        assert a == b

    def test_round_trips_through_loader(self, safe_scenario):
        road, trace = safe_scenario
        again = load_trace(serialise_trace(trace))
        assert again.times == trace.times
        assert len({aid for step in again.steps for aid in step}) == 3

    def test_av_speed_constant_25mph(self, safe_scenario):
        _, trace = safe_scenario
        for step in trace.steps:
            assert step["ego"].speed == pytest.approx(25 * MPH_TO_MPS)

    def test_all_actors_within_road(self, safe_scenario):
        road, trace = safe_scenario
        length = 150.0
        for step in trace.steps:
            for st in step.values():
                assert -1.0 <= st.pose.x <= length + 1.0

    def test_occlusion_ov_absent_then_present(self, occlusion_scenario):
        _, trace = occlusion_scenario
        spec = preset("occlusion_abort")
        t_vis = spec.occlusion.visible_from_t
        for k, t in enumerate(trace.times):
            present = "oncoming" in trace.steps[k]
            if t < t_vis - 1e-9:
                assert not present
            elif k in spec.occlusion.flicker_steps:
                assert not present
            else:
                assert present

    def test_occlusion_vbp_moves(self, occlusion_scenario):
        _, trace = occlusion_scenario
        assert (trace.steps[10]["parked"].pose.x
                > trace.steps[0]["parked"].pose.x)

    def test_occlusion_abort_returns_behind_vbp(self, occlusion_scenario):
        _, trace = occlusion_scenario
        last = trace.steps[-1]
        av, vbp = last["ego"], last["parked"]
        assert av.pose.y == pytest.approx(-1.825, abs=1e-6)
        assert av.pose.x + 2.25 < vbp.pose.x - 4.0   # fully behind

    def test_occlusion_abort_motion_is_continuous(self, occlusion_scenario):
        # from the last step before the abort to the fall-back's first
        # step: the ego slows without a jump where braking starts, where it
        # reaches its floor speed and where it steers back in
        _, trace = occlusion_scenario
        spec = preset("occlusion_abort")
        t_ab = spec.occlusion.visible_from_t + ABORT_REACT_S
        first = max(k for k, t in enumerate(trace.times) if t < t_ab)
        fall_back = next(k for k in range(first + 1, len(trace.times))
                         if trace.steps[k]["ego"].pose.heading < 0.0)
        ego, vbp = (trace.steps[fall_back][aid] for aid in ("ego", "parked"))
        assert (ego.pose.x + ego.dims.length / 2.0
                <= vbp.pose.x - vbp.dims.length / 2.0 - FALLBACK_GAP)
        egos = [step["ego"] for step in trace.steps[first:fall_back + 1]]
        for a, b in zip(egos, egos[1:]):
            moved = math.hypot(b.pose.x - a.pose.x, b.pose.y - a.pose.y)
            assert (min(a.speed, b.speed) * trace.dt - 1e-6 <= moved
                    <= max(a.speed, b.speed) * trace.dt + 1e-6), a.t
            assert b.speed <= a.speed, a.t


class TestSpecValidation:
    def base(self, **over):
        config = default_profiles()
        kw = dict(name="t", road_length=150.0, lane_width=3.65,
                  v_av_mph=25.0, v_ov_mph=25.0, vbp_position=40.0,
                  vbp_length=8.0, profile=config.profile("nominal"),
                  dt=0.05, pull_out_start_s=1.0,
                  lateral_offset=config.lateral_offset,
                  ov_start_offset=76.43)
        kw.update(over)
        return kw

    def test_lateral_exceeding_lane_rejected(self):
        with pytest.raises(InvalidSpecError, match="lateral"):
            ScenarioSpec(**self.base(lateral_offset=4.0))

    def test_lateral_too_small_rejected(self):
        with pytest.raises(InvalidSpecError, match="clear"):
            ScenarioSpec(**self.base(lateral_offset=1.5))

    def test_av_not_faster_rejected(self):
        with pytest.raises(InvalidSpecError, match="faster"):
            ScenarioSpec(**self.base(v_vbp_mph=25.0))

    def test_missing_offset_rejected(self):
        with pytest.raises(InvalidSpecError, match="ov_start_offset"):
            ScenarioSpec(**self.base(ov_start_offset=None))

    def test_map_builds_two_lanes(self):
        spec = ScenarioSpec(**self.base())
        road = build_map(spec)
        assert [l.id for l in road.lanelets] == ["oncoming", "running"]
        assert road.centreline == ((0.0, 0.0), (150.0, 0.0))
