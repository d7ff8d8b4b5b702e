import json
import math

import pytest

from roadcheck.perception import (CameraCalibration, DetectionRecord,
                                  LineRecord, PerceptionError,
                                  boxes_to_trace, lateral_offset,
                                  load_detections, longitudinal_distance,
                                  trace_to_detections)
from roadcheck.geometry import BoxDims, Pose2D
from roadcheck.models import MPH_TO_MPS
from roadcheck.trace import ActorState, Trace, load_trace, serialise_trace

CAL = CameraCalibration(c=1200.0, assumed_vehicle_width=1.8,
                        lane_width_real=3.65, lane_width_px=365.0,
                        frame_centre_px=320.0)


def det(t, w_px, cls="car", role="OV", frame=None):
    return DetectionRecord(frame_index=int(t / 0.1) if frame is None else frame,
                           t=t, actor_class=cls, box_width_px=w_px,
                           box_centre_px=320.0, role_hint=role)


class TestLongitudinalDistance:
    def test_direct_substitution(self):
        # c=1200, W=1.8, w=108 px -> 20 m
        assert longitudinal_distance(det(0.0, 108.0), CAL) == pytest.approx(20.0)

    def test_halving_width_doubles_range(self):
        d1 = longitudinal_distance(det(0.0, 108.0), CAL)
        d2 = longitudinal_distance(det(0.0, 54.0), CAL)
        assert d2 == pytest.approx(2 * d1)

    def test_scale_invariance(self):
        cal2 = CameraCalibration(c=2400.0, assumed_vehicle_width=1.8,
                                 lane_width_real=3.65, lane_width_px=365.0,
                                 frame_centre_px=320.0)
        assert longitudinal_distance(det(0.0, 216.0), cal2) == pytest.approx(
            longitudinal_distance(det(0.0, 108.0), CAL))

    def test_tiny_box_flagged_low_confidence(self):
        trace = boxes_to_trace([det(0.0, 1.0), det(0.1, 1.0)],
                               [], CAL)
        actors = [s for s in trace.steps[0].values() if s.role == "OV"]
        assert actors and actors[0].low_confidence

    def test_zero_width_rejected(self):
        with pytest.raises(PerceptionError):
            det(0.0, 0.0)


class TestLateralOffset:
    def test_substitution(self):
        assert lateral_offset(100.0, CAL) == pytest.approx(1.0)

    def test_zero(self):
        assert lateral_offset(0.0, CAL) == 0.0

    def test_negative_sign_preserved(self):
        assert lateral_offset(-50.0, CAL) == pytest.approx(-0.5)


class TestBoxesToTrace:
    def test_constant_width_constant_range(self):
        records = [det(0.1 * k, 108.0) for k in range(5)]
        trace = boxes_to_trace(records, [], CAL)
        gaps = []
        for step in trace.steps:
            av = step["ego"]
            ov = next(s for s in step.values() if s.role == "OV")
            gaps.append(ov.pose.x - av.pose.x)
        assert all(g == pytest.approx(20.0) for g in gaps)

    def test_shrinking_width_increases_range(self):
        records = [det(0.1 * k, 108.0 - 10 * k) for k in range(5)]
        trace = boxes_to_trace(records, [], CAL)
        gaps = [next(s for s in step.values() if s.role == "OV").pose.x
                - step["ego"].pose.x for step in trace.steps]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_ov_appears_at_six_seconds(self):
        records = ([det(0.5 * k, 200.0, role="VBP") for k in range(20)]
                   + [det(0.5 * k, 60.0, role="OV") for k in range(12, 20)])
        records.sort(key=lambda r: r.t)
        trace = boxes_to_trace(records, [], CAL)
        first_ov = min(t for t, step in zip(trace.times, trace.steps)
                       if any(s.role == "OV" for s in step.values()))
        assert first_ov == pytest.approx(6.0)

    def test_lane_line_drives_av_offset(self):
        lines = [LineRecord(frame_index=k, t=0.1 * k,
                            line_px=320.0 - 100.0 * (1 if k >= 2 else 0))
                 for k in range(4)]
        records = [det(0.1 * k, 108.0) for k in range(4)]
        trace = boxes_to_trace(records, lines, CAL)
        assert trace.steps[0]["ego"].pose.y == pytest.approx(0.0)
        assert trace.steps[3]["ego"].pose.y == pytest.approx(1.0)

    def test_ego_heading_from_path(self):
        # each frame's heading looks ahead to the next frame, the last
        # frame's back to the one before it; a single frame heads along x
        lines = [LineRecord(frame_index=k, t=0.1 * k,
                            line_px=320.0 - 100.0 * (k == 3))
                 for k in range(4)]
        trace = boxes_to_trace([], lines, CAL, av_speed_mph=60.0)
        lane_change = math.atan2(1.0, 60.0 * MPH_TO_MPS * 0.1)
        assert [s["ego"].pose.heading for s in trace.steps] == pytest.approx(
            [0.0, 0.0, lane_change, lane_change])
        single = boxes_to_trace([det(0.5, 108.0)], [], CAL)
        assert single.steps[0]["ego"].pose.heading == 0.0

    def test_output_satisfies_trace_invariants(self):
        records = [det(0.1 * k, 108.0 - k) for k in range(10)]
        trace = boxes_to_trace(records, [], CAL)
        again = load_trace(serialise_trace(trace))
        assert again.times == trace.times

    def test_unordered_input_rejected(self):
        text = "\n".join([
            json.dumps({"t": 1.0, "frame": 1, "class": "car",
                        "box_width_px": 100.0}),
            json.dumps({"t": 0.5, "frame": 0, "class": "car",
                        "box_width_px": 100.0}),
        ])
        with pytest.raises(PerceptionError, match="out-of-order"):
            load_detections(text)


GOOD_LINE = json.dumps({"t": 0.0, "frame": 0, "line_px": 300.0})


class TestMalformedDetections:
    """A bad detection line raises PerceptionError naming the record."""

    @pytest.mark.parametrize("line, message", [
        ("[]", "not a JSON object"),
        ('"text"', "not a JSON object"),
        ('{"frame": 1, "line_px": 300.0}', "missing required field 't'"),
        ('{"t": null, "line_px": 300.0}', "record 1: "),
        ('{"t": "soon", "line_px": 300.0}', "record 1: "),
        ('{"t": 1.0, "frame": "two", "line_px": 300.0}', "record 1: "),
        ('{"t": 1.0, "frame": [], "line_px": 300.0}', "record 1: "),
        ('{"t": 1.0, "frame": 1e400, "line_px": 300.0}', "record 1: "),
        ('{"t": 1.0, "line_px": "left"}', "record 1: "),
        ('{"t": 1.0, "class": "car", "box_width_px": "wide"}', "record 1: "),
        ('{"t": 1.0, "class": "car", "box_width_px": -1.0}',
         "record 1: box width"),
        ("[" * 100_000, "nested too deeply"),
        ("1" + "0" * 5000, "invalid JSON: Exceeds the limit"),
        ('{"t": 9.0, "frame": 180.7, "line_px": 502.5}',
         "record 1: frame must be a whole number, got 180.7"),
        ('{"t": 1.0, "class": null, "box_width_px": 100.0}',
         "record 1: class must be a string, got null"),
    ], ids=["list", "string", "no-t", "null-t", "text-t", "text-frame",
            "list-frame", "infinite-frame", "text-line", "text-width",
            "negative-width", "deep", "int-past-digit-limit",
            "fractional-frame", "null-class"])
    def test_perception_error_with_index(self, line, message):
        with pytest.raises(PerceptionError, match="record 1: ") as err:
            load_detections(GOOD_LINE + "\n" + line + "\n")
        assert message in str(err.value)

    def test_line_separator_in_string_accepted(self):
        # U+2028 may stand unescaped in a JSON string; only "\n" ends a
        # record, as in a trace
        line = json.dumps({"t": 0.0, "frame": 0, "class": "car",
                           "box_width_px": 100.0, "role_hint": "O\u2028V"},
                          ensure_ascii=False)
        detections, _ = load_detections(GOOD_LINE + "\n" + line + "\n")
        assert [d.role_hint for d in detections] == ["O\u2028V"]


class TestFixtureChain:
    def test_occlusion_detections_round_trip(self, occlusion_scenario):
        road, trace = occlusion_scenario
        cal = CameraCalibration(c=1200.0, assumed_vehicle_width=2.0,
                                lane_width_real=3.65, lane_width_px=365.0,
                                frame_centre_px=320.0)
        text = trace_to_detections(trace, cal)
        detections, lines = load_detections(text)
        assert detections and lines
        est = boxes_to_trace(detections, lines, cal, av_speed_mph=40.0)
        # the OV enters the estimated trace when it becomes visible
        first_ov = min(t for t, step in zip(est.times, est.steps)
                       if any(s.role == "OV" for s in step.values()))
        from roadcheck.scenarios import preset
        spec = preset("occlusion_abort")
        assert first_ov == pytest.approx(spec.occlusion.visible_from_t,
                                         abs=2 * trace.dt)
        # and the flicker gap survives the round trip
        times_with_ov = {t for t, step in zip(est.times, est.steps)
                         if any(s.role == "OV" for s in step.values())}
        flick_ts = {trace.times[k] for k in spec.occlusion.flicker_steps}
        assert not (flick_ts & times_with_ov)

    def test_second_passed_vehicle_left_out(self, occlusion_scenario):
        # the rules see the VBP with the smallest id (trace.role_index);
        # a second 8 m VBP gets no detection, so the estimate still has
        # one actor per role and class
        road, trace = occlusion_scenario
        steps = []
        for step in trace.steps:
            step = dict(step)
            vbp = step.get("parked")
            if vbp is not None:
                step["queued"] = ActorState(
                    "queued", "VBP", vbp.t,
                    Pose2D(vbp.pose.x + 20.0, vbp.pose.y, vbp.pose.heading),
                    vbp.dims)
            steps.append(step)
        cal = CameraCalibration(c=1200.0, assumed_vehicle_width=2.0,
                                lane_width_real=3.65, lane_width_px=365.0,
                                frame_centre_px=320.0)
        text = trace_to_detections(Trace(trace.times, steps, trace.dt), cal)
        assert text == trace_to_detections(trace, cal)
        detections, lines = load_detections(text)
        boxes_to_trace(detections, lines, cal)

    def test_worst_case_speeds_applied(self):
        records = [det(0.1 * k, 100.0, cls="goods_vehicle", role="VBP")
                   for k in range(3)]
        trace = boxes_to_trace(records, [], CAL)
        vbp = next(s for s in trace.steps[0].values() if s.role == "VBP")
        assert vbp.speed == pytest.approx(50 * 0.44704)


class TestCalibration:
    def test_c_is_required(self):
        with pytest.raises(PerceptionError, match="'c'"):
            CameraCalibration.from_json(json.dumps({"assumed_vehicle_width": 2.0}))

    def test_round_trip(self):
        again = CameraCalibration.from_json(CAL.to_json())
        assert again == CAL
