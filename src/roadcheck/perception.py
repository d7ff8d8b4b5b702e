"""Detection-to-trace estimation using pinhole approximations.

Longitudinal range from a detected box width:   s = c * W / w
Lateral offset from the centre-line position:   d = (wL_real / wL_px) * d_px

where ``c`` is an empirically calibrated focal constant, ``W`` the assumed
real vehicle width, ``w`` the detected box width in pixels, and ``d_px``
the pixel offset of the lane line from the frame centre.  ``c`` has no
sensible default and must be supplied by the calibration file.

Detections are consumed from JSON-lines produced offline by any detector:

    {"t": 0.0, "frame": 0, "class": "car", "box_width_px": 108.0,
     "box_centre_px": 320.0, "role_hint": "OV"}
    {"t": 0.0, "frame": 0, "line_px": 300.0}

Records with ``line_px`` carry the per-frame lane-line position used for
the ego's lateral offset.  Without a speed measurement the reconstruction
assumes worst-case class speed limits.
"""

from __future__ import annotations

import json
import math

from .geometry import BoxDims, GeometryError, Pose2D
from .inputs import (REQUIRED, Schema, finite, json_records, positive,
                     read_document, string, whole)
from .models import MPH_TO_MPS, default_profiles
from .record import Record
from .trace import ActorState, Trace, TraceError, read_lines, role_index

LOW_CONFIDENCE_PX = 5.0

ACTOR_CLASSES = ("car", "goods_vehicle")


class PerceptionError(ValueError):
    """Detections or a calibration that cannot be read or used."""


class DetectionRecord(Record):
    __slots__ = _fields = ("frame_index", "t", "actor_class", "box_width_px",
                           "box_centre_px", "role_hint")

    def __post_init__(self):
        if self.box_width_px <= 0.0:
            raise PerceptionError(
                f"box width must be > 0 px, got {self.box_width_px}")
        if self.actor_class not in ACTOR_CLASSES:
            raise PerceptionError(f"unknown class {self.actor_class!r}")


class LineRecord(Record):
    __slots__ = _fields = ("frame_index", "t", "line_px")


class CameraCalibration(Record):
    """``c`` is the focal constant, in px*m/m."""

    __slots__ = _fields = ("c", "assumed_vehicle_width", "lane_width_real",
                           "lane_width_px", "frame_centre_px")

    @classmethod
    def from_json(cls, source) -> "CameraCalibration":
        """The calibration in a JSON document: bytes, text or a file of
        either."""
        doc = read_document(source, _CALIBRATION.where, PerceptionError)
        return cls(*_CALIBRATION.read(doc, PerceptionError))

    def to_json(self) -> str:
        return json.dumps({k: getattr(self, k) for k in self._fields},
                          sort_keys=True, indent=2)


_CALIBRATION = Schema("calibration", {
    "c": (positive, REQUIRED), "assumed_vehicle_width": (positive, 2.0),
    "lane_width_real": (positive, 3.65), "lane_width_px": (positive, 365.0),
    "frame_centre_px": (positive, 320.0),
})
# a record with ``line_px`` is a lane line, any other a detection
_LINE = Schema("record {}", {"t": (finite, REQUIRED), "frame": (whole, 0),
                             "line_px": (finite, REQUIRED)})
_DETECTION = Schema("record {}", {
    "t": (finite, REQUIRED), "frame": (whole, 0),
    "class": (string, REQUIRED), "box_width_px": (finite, REQUIRED),
    "box_centre_px": (finite, 0.0), "role_hint": (string, "unknown"),
})

# reconstruction assumptions for the 2-D scenario
AV_LENGTH = 4.5
AV_WIDTH = 2.0
LANE_WIDTH = 3.65
CLASS_LENGTHS = {"car": 4.5, "goods_vehicle": 8.0}


def longitudinal_distance(rec: DetectionRecord, cal: CameraCalibration) -> float:
    """Range along the road from the detected pixel width."""
    return cal.c * cal.assumed_vehicle_width / rec.box_width_px


def lateral_offset(d_px: float, cal: CameraCalibration) -> float:
    """Metres from the centre line; positive is into the oncoming lane."""
    return (cal.lane_width_real / cal.lane_width_px) * d_px


def load_detections(source):
    """Parse the detection JSONL, read as ``trace.load_trace`` reads a
    trace; returns (detections, line_records)."""
    detections = []
    lines = []
    last_t = None
    reported = set()
    for index, obj in json_records(read_lines(source), PerceptionError):
        if type(obj) is dict and "line_px" in obj:
            t, frame, line_px = _LINE.read(obj, PerceptionError, index,
                                           reported=reported)
            record = LineRecord(frame, t, line_px)
        else:
            t, frame, *values = _DETECTION.read(obj, PerceptionError, index,
                                                reported=reported)
            try:
                record = DetectionRecord(frame, t, *values)
            except PerceptionError as exc:
                raise PerceptionError(f"record {index}: {exc}") from None
        if last_t is not None and t < last_t:
            raise PerceptionError(f"record {index}: out-of-order timestamp "
                                  f"{t}")
        last_t = t
        (lines if isinstance(record, LineRecord) else detections).append(record)
    return detections, lines


def boxes_to_trace(detections, line_records, cal: CameraCalibration,
                   av_speed_mph: float = 60.0) -> Trace:
    """Reconstruct a world-frame trace from per-frame detections.

    The ego advances at the assumed speed; its lateral position comes from
    the lane-line records.  Detected vehicles sit at their estimated range
    ahead of the ego, at fixed lateral offsets of half a lane width each
    side of the line.  Speeds are the packaged profiles' worst-case class
    limits.
    """
    worst_case_speed_mph = default_profiles().worst_case_speed_mph
    by_t: dict = {}
    for rec in detections:
        by_t.setdefault(rec.t, []).append(rec)
    line_by_t = {rec.t: rec.line_px for rec in line_records}

    times = sorted(set(by_t) | set(line_by_t))
    if not times:
        raise PerceptionError("no detection records")
    v_av = av_speed_mph * MPH_TO_MPS
    half_lane = LANE_WIDTH / 2.0

    # the ego's path: x at the assumed speed, y from the last lane line
    xs, ys = [], []
    y_av = -half_lane
    for t in times:
        if t in line_by_t:
            y_av = lateral_offset(cal.frame_centre_px - line_by_t[t], cal)
        xs.append(v_av * t)
        ys.append(y_av)

    out_steps = []
    last = len(times) - 1
    for i, t in enumerate(times):
        x_av, y_av = xs[i], ys[i]
        # ego heading from the finite differences of its path; a single
        # frame's pair is itself, atan2(0, 0) = 0
        a, b = (i, i + 1) if i < last else (i - 1, i)
        heading = math.atan2(ys[b] - ys[a], xs[b] - xs[a])
        try:
            step = {"ego": ActorState(
                actor_id="ego", role="AV", t=t,
                pose=Pose2D(x_av, y_av, heading),
                dims=BoxDims(AV_LENGTH, AV_WIDTH), speed=v_av)}
            for rec in by_t.get(t, ()):
                s = longitudinal_distance(rec, cal)
                role = rec.role_hint if rec.role_hint in ("VBP", "OV") else "other"
                y, heading = ((half_lane, math.pi) if role == "OV"
                              else (-half_lane, 0.0))
                v = worst_case_speed_mph[rec.actor_class] * MPH_TO_MPS
                actor_id = f"{role.lower()}_{rec.actor_class}"
                if actor_id in step:
                    raise PerceptionError(
                        f"frame {rec.frame_index} (t={t}): a second "
                        f"{rec.actor_class} detection of actor {actor_id!r}")
                step[actor_id] = ActorState(
                    actor_id=actor_id, role=role, t=t,
                    pose=Pose2D(x_av + s, y, heading),
                    dims=BoxDims(CLASS_LENGTHS[rec.actor_class],
                                 cal.assumed_vehicle_width),
                    speed=v,
                    low_confidence=rec.box_width_px < LOW_CONFIDENCE_PX)
        except (GeometryError, TraceError) as exc:
            raise PerceptionError(f"t={t}: cannot place the vehicles: "
                                  f"{exc}") from exc
        out_steps.append(step)
    dt = times[1] - times[0] if len(times) > 1 else 1.0
    return Trace(times=tuple(times), steps=tuple(out_steps), dt=dt)


def trace_to_detections(trace: Trace, cal: CameraCalibration) -> str:
    """Synthesise a detection JSONL from a trace (fixture generation).

    Inverts the pinhole range model for the VBP and the OV that the rules
    see (``trace.role_index``) when they are ahead of the ego, and emits a
    lane-line record per frame from the ego's lateral position.
    """
    lines = []
    for frame, step in enumerate(trace.steps):
        roles = role_index(step)
        av = roles.get("av")
        if av is None:
            continue
        t = av.t
        line_px = cal.frame_centre_px - (av.pose.y * cal.lane_width_px
                                         / cal.lane_width_real)
        lines.append(json.dumps({"t": t, "frame": frame, "line_px": line_px}))
        for st in filter(None, (roles.get("vbp"), roles.get("ov"))):
            s = st.pose.x - av.pose.x
            if s <= 1.0:
                continue   # behind or on top of the camera
            w_px = cal.c * cal.assumed_vehicle_width / s
            cls = ("goods_vehicle"
                   if st.dims.length > 6.0 else "car")
            lines.append(json.dumps({
                "t": t, "frame": frame, "class": cls,
                "box_width_px": w_px, "box_centre_px": cal.frame_centre_px,
                "role_hint": st.role}))
    return "\n".join(lines) + "\n"
