"""Time-indexed actor state capture and derived dynamics.

Traces are ingested from JSON-lines, one record per actor per timestep:

    {"t": 0.0, "actor_id": "ego", "role": "AV", "x": 0.0, "y": -1.825,
     "heading_rad": 0.0, "length_m": 4.5, "width_m": 2.0, "speed_mps": 11.176}

``speed_mph`` is accepted and converted (1 mph = 0.44704 m/s).
``iter_steps`` validates the records and groups them into timesteps, for
``load_trace`` and for the streaming monitor alike.

``derive_row`` derives the dynamics of an actor at one step from its
neighbouring steps: speed from positions by central finite differences at
interior steps and first-order one-sided differences at the endpoints, and
the heading relative to the lane.  It is the one derivation routine: the
engine calls it for the actors a rule reads, ``zones`` for the actors at a
decision step.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

from .geometry import BoxDims, Pose2D, normalize_angle, oriented_box
from .worldmap import OffRoadError, RoadMap, lane_orientation_at
# bench/tracing.py hooks the centre-line query under this name
from .worldmap import nearest_centreline_point as _nearest_centreline_point

MPH_TO_MPS = 0.44704

ROLES = ("AV", "VBP", "OV", "other")

# Disagreement between recorded and positionally-derived speed that earns a
# warning; the positional value wins either way.
SPEED_WARN_MPS = 0.5


class TraceError(ValueError):
    """Malformed or inconsistent trace stream."""

    def __init__(self, message, record_index=None):
        self.record_index = record_index
        if record_index is not None:
            message = f"record {record_index}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class ActorState:
    actor_id: str
    role: str
    t: float
    pose: Pose2D
    dims: BoxDims
    speed: float | None = None
    low_confidence: bool = False

    def __post_init__(self):
        if self.role not in ROLES:
            raise TraceError(f"unknown role {self.role!r} for {self.actor_id!r}")
        if not (math.isfinite(self.t) and self.t >= 0.0):
            raise TraceError(f"timestamp must be finite and >= 0, got {self.t}")

    def box(self):
        return oriented_box(self.pose, self.dims)


@dataclass(frozen=True)
class Trace:
    times: tuple[float, ...]
    steps: tuple[dict, ...]          # per-step {actor_id: ActorState}
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "times", tuple(self.times))
        object.__setattr__(self, "steps", tuple(dict(s) for s in self.steps))
        if len(self.times) != len(self.steps):
            raise TraceError("times and steps length mismatch")
        for i in range(1, len(self.times)):
            if not self.times[i] > self.times[i - 1]:
                raise TraceError(
                    f"timestamps must be strictly increasing "
                    f"(step {i}: {self.times[i]} after {self.times[i - 1]})")
        if self.dt <= 0.0:
            raise TraceError(f"dt must be > 0, got {self.dt}")
        dims_seen: dict = {}
        for i, step in enumerate(self.steps):
            for aid, st in step.items():
                if st.actor_id != aid:
                    raise TraceError(f"step {i}: key {aid!r} != state id {st.actor_id!r}")
                prev = dims_seen.get(aid)
                if prev is not None and prev != st.dims:
                    raise TraceError(
                        f"step {i}: actor {aid!r} changed dims {prev} -> {st.dims}")
                dims_seen[aid] = st.dims

    def __len__(self):
        return len(self.times)

    def actors(self):
        seen = {}
        for step in self.steps:
            for aid, st in step.items():
                seen.setdefault(aid, st.role)
        return seen


def _number(obj: dict, key: str) -> float:
    """``obj[key]`` as a float; float() would also take a JSON boolean."""
    value = obj[key]
    if isinstance(value, bool):
        raise TraceError(f"{key} must be a number, got {json.dumps(value)}")
    return float(value)


def _parse_record(obj: dict, index: int, dims_seen: dict | None = None) -> ActorState:
    """One record as an ActorState.  ``dims_seen`` maps actor ids to the
    dims of their earlier records; equal dims reuse that object."""
    if not isinstance(obj, dict):
        raise TraceError("record is not a JSON object", index)
    required = ("t", "actor_id", "role", "x", "y", "heading_rad",
                "length_m", "width_m")
    for key in required:
        if key not in obj:
            raise TraceError(f"missing required field {key!r}", index)
    speed = None
    if "speed_mps" in obj and "speed_mph" in obj:
        raise TraceError("both speed_mps and speed_mph present", index)
    actor_id = obj["actor_id"]
    if not isinstance(actor_id, str):
        raise TraceError(f"actor_id must be a string, got {json.dumps(actor_id)}",
                         index)
    low_confidence = obj.get("low_confidence", False)
    if not isinstance(low_confidence, bool):
        raise TraceError(f"low_confidence must be true or false, got "
                         f"{json.dumps(low_confidence)}", index)
    try:
        if "speed_mps" in obj:
            speed = _number(obj, "speed_mps")
        elif "speed_mph" in obj:
            speed = _number(obj, "speed_mph") * MPH_TO_MPS
        role = str(obj["role"])
        t = _number(obj, "t")
        pose = Pose2D(_number(obj, "x"), _number(obj, "y"),
                      _number(obj, "heading_rad"))
        length, width = _number(obj, "length_m"), _number(obj, "width_m")
        dims = dims_seen.get(actor_id) if dims_seen else None
        if dims is None or dims.length != length or dims.width != width:
            dims = BoxDims(length, width)
        return ActorState(actor_id=actor_id, role=role, t=t, pose=pose,
                          dims=dims, speed=speed, low_confidence=low_confidence)
    except (TraceError, ValueError, TypeError) as exc:
        raise TraceError(str(exc), index) from exc


def iter_steps(lines):
    """Group a JSON-lines record stream into timesteps, lazily.

    Yields ``(t, {actor_id: ActorState})`` per timestep as soon as the
    first record of the next one (or the end of ``lines``) has been read,
    and never reads further ahead.  Each record is validated, timestamps
    must not decrease, an actor appears at most once per step and keeps
    its dims; a violation raises TraceError with the index of the record
    (blank lines not counted).
    """
    dims_seen: dict = {}
    t, step = None, {}
    index = -1
    for line in lines:
        line = line.strip()
        if not line:
            continue
        index += 1
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"invalid JSON: {exc.msg}", index) from exc
        state = _parse_record(obj, index, dims_seen)
        aid = state.actor_id
        if step and state.t < t:
            raise TraceError(f"out-of-order timestamp {state.t} after {t}", index)
        if state.t == t and aid in step:
            raise TraceError(f"duplicate actor {aid!r} at t={state.t}", index)
        dims = dims_seen.setdefault(aid, state.dims)
        if dims is not state.dims:
            raise TraceError(f"actor {aid!r} changed dims {dims} -> {state.dims}",
                             index)
        if state.t != t:
            if step:
                yield t, step
            t, step = state.t, {}
        step[aid] = state
    if step:
        yield t, step


def load_trace(source) -> Trace:
    """Read a JSON-lines record stream and group it into timesteps."""
    if isinstance(source, (bytes, bytearray)):
        text = source.decode("utf-8")
    elif isinstance(source, str):
        text = source
    elif isinstance(source, io.IOBase) or hasattr(source, "read"):
        data = source.read()
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    else:
        raise TypeError(f"cannot read trace from {type(source).__name__}")

    times: list[float] = []
    steps: list[dict] = []
    for t, step in iter_steps(text.splitlines()):
        times.append(t)
        steps.append(step)
    if not times:
        raise TraceError("empty trace")
    if len(times) >= 2:
        dt = times[1] - times[0]
    else:
        dt = 1.0
    return Trace(times=tuple(times), steps=tuple(steps), dt=dt)


def serialise_trace(trace: Trace) -> str:
    """JSON-lines text; load_trace(serialise_trace(t)) round-trips."""
    lines = []
    for step in trace.steps:
        for aid in sorted(step):
            st = step[aid]
            obj = {
                "t": st.t, "actor_id": st.actor_id, "role": st.role,
                "x": st.pose.x, "y": st.pose.y, "heading_rad": st.pose.heading,
                "length_m": st.dims.length, "width_m": st.dims.width,
            }
            if st.speed is not None:
                obj["speed_mps"] = st.speed
            if st.low_confidence:
                obj["low_confidence"] = True
            lines.append(json.dumps(obj))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DerivedState:
    speed: float                     # |velocity vector|, m/s
    heading_rel_lane: float | None   # radians in [-pi, pi), None off-road
    pull_out_angle: float = 0.0
    cut_in_angle: float = 0.0


def finite_velocity(prev: ActorState | None, cur: ActorState,
                    nxt: ActorState | None) -> tuple[float, float]:
    """Velocity vector at ``cur`` from neighbouring samples.

    Central difference when both neighbours exist, one-sided otherwise.
    Raises TraceError when the actor appears at a single step only.
    """
    if prev is None and nxt is None:
        raise TraceError(f"velocity undefined for single-step actor "
                         f"{cur.actor_id!r}")
    a = prev if prev is not None else cur
    b = nxt if nxt is not None else cur
    dt = b.t - a.t
    return ((b.pose.x - a.pose.x) / dt, (b.pose.y - a.pose.y) / dt)


def derive_state(prev: ActorState | None, cur: ActorState,
                 nxt: ActorState | None, road: RoadMap) -> DerivedState:
    """Derived dynamics for one actor at one step."""
    vx, vy = finite_velocity(prev, cur, nxt)
    speed = math.hypot(vx, vy)
    heading_rel = None
    pull_out = 0.0
    cut_in = 0.0
    centre = (cur.pose.x, cur.pose.y)
    try:
        lane_o = lane_orientation_at(road, centre)
    except OffRoadError:
        lane_o = None
    if lane_o is not None:
        heading_rel = normalize_angle(cur.pose.heading - lane_o)
        # lateral motion sign relative to the oncoming side of the centreline
        nx, ny = -math.sin(lane_o), math.cos(lane_o)
        lat_v = vx * nx + vy * ny
        cl = _nearest_centreline_point(road, centre)
        side = (cl[0] - centre[0]) * nx + (cl[1] - centre[1]) * ny
        toward = lat_v * side
        if toward > 1e-9:
            pull_out = heading_rel
        elif toward < -1e-9:
            cut_in = abs(heading_rel)
    return DerivedState(speed=speed, heading_rel_lane=heading_rel,
                        pull_out_angle=pull_out, cut_in_angle=cut_in)


def derive_row(prev_step: dict | None, cur_step: dict, nxt_step: dict | None,
               road: RoadMap, actor_ids=None) -> tuple[dict, list[str]]:
    """Derived state for the actors ``actor_ids`` of one step (default:
    all of them), given its neighbouring steps.

    The streaming engine calls this for one actor at a time, when a rule
    first reads that actor's dynamics at the step.  Returns the per-actor
    map, without the actors seen at this step only, plus any
    speed-disagreement and single-step warnings.
    """
    row = {}
    notes = []
    for aid in sorted(cur_step) if actor_ids is None else actor_ids:
        cur = cur_step[aid]
        prev = prev_step.get(aid) if prev_step else None
        nxt = nxt_step.get(aid) if nxt_step else None
        try:
            derived = derive_state(prev, cur, nxt, road)
        except TraceError:
            # actor visible at this step only: no positional dynamics
            notes.append(f"t={cur.t}: actor {aid!r} appears at a single "
                         f"step; dynamics unavailable")
            continue
        if cur.speed is not None and abs(cur.speed - derived.speed) > SPEED_WARN_MPS:
            notes.append(
                f"t={cur.t}: actor {aid!r} recorded speed {cur.speed:.3f} "
                f"disagrees with positional {derived.speed:.3f}; positional wins")
        row[aid] = derived
    return row, notes
