"""Time-indexed actor state capture and derived dynamics.

Traces are ingested from JSON-lines, one record per actor per timestep:

    {"t": 0.0, "actor_id": "ego", "role": "AV", "x": 0.0, "y": -1.825,
     "heading_rad": 0.0, "length_m": 4.5, "width_m": 2.0, "speed_mps": 11.176}

``speed_mph`` is accepted and converted (1 mph = 0.44704 m/s).
``read_lines`` frames a document into lines, reading a file or stdin one
line at a time, for trace files, camera detections and the monitor's
stdin alike; ``inputs.json_records`` decodes detections with the stdlib,
one value per line, nested at most ``inputs.MAX_NESTING`` deep.
``iter_steps`` validates the records and groups them into timesteps, for
``load_trace`` and for the streaming monitor alike.  It decodes each line
with ``orjson``; a record whose value passes the gate in
``_parse_record``, which tells its optional fields by its size, is read
from it in one pass, and any other line is decoded again as
``inputs.json_records`` decodes it and read against the field table
``_RECORD``, so what is accepted and every message are the stdlib's
either way.  Given the rules' read set, a step holds only the actors
that the reader kept, those that the rules can resolve.  An actor's
states share one id, role and dims object, and a step's states one time;
a gated record of an actor already read, in the same role and dims, is
built slot by slot, and a state read so builds its ``Pose2D`` when
``pose`` is first read, so actors that no rule reads build none.

``derive_row`` derives the dynamics of the one actor it is asked for at
one step from its neighbouring steps: speed from positions by central
finite differences at interior steps and first-order one-sided
differences at the endpoints, and the heading relative to the lane.  It
is the one derivation routine: the engine calls it once per step for each
actor that a rule reads.
"""

from __future__ import annotations

import io
import json
import math
import operator

import orjson

from .geometry import BoxDims, Pose2D, normalize_angle, oriented_box
from .inputs import (REQUIRED, Schema, boolean, finite, json_value, number,
                     record_lines, string)
from .models import MPH_TO_MPS
from .record import Record
from .worldmap import OffRoadError, RoadMap, lane_orientation_at
# bench/tracing.py hooks the centre-line query under this name
from .worldmap import nearest_centreline_point as _nearest_centreline_point

ROLES = ("AV", "VBP", "OV", "other")
_ROLE_NAMES = {role: role for role in ROLES}    # one copy of each name
_ROLE_KEYS = {role: role.lower() for role in ROLES}

# Disagreement between recorded and positionally-derived speed that earns a
# warning; the positional value wins either way.
SPEED_WARN_MPS = 0.5


class TraceError(ValueError):
    """Malformed or inconsistent trace stream."""


class ActorState:
    """One actor at one timestep.  A state read by ``iter_steps`` holds the
    raw x, y and heading until ``pose`` is first read, then the Pose2D."""

    __slots__ = ("actor_id", "role", "t", "_pose", "dims", "speed",
                 "low_confidence", "_x", "_y", "_heading")

    def __init__(self, actor_id: str, role: str, t: float, pose: Pose2D,
                 dims: BoxDims, speed: float | None = None,
                 low_confidence: bool = False):
        self.role = _ROLE_NAMES.get(role)
        if self.role is None:
            raise TraceError(f"unknown role {role!r} for {actor_id!r}")
        if not (math.isfinite(t) and t >= 0.0):
            raise TraceError(f"timestamp must be finite and >= 0, got {t}")
        self.actor_id = actor_id
        self.t = t
        self._pose = pose       # None until built from _x, _y, _heading
        self.dims = dims
        self.speed = speed
        self.low_confidence = low_confidence

    @property
    def pose(self) -> Pose2D:
        pose = self._pose
        if pose is None:
            pose = self._pose = Pose2D(self._x, self._y, self._heading)
            del self._x, self._y, self._heading
        return pose

    def _fields(self):
        return (self.actor_id, self.role, self.t, self.pose, self.dims,
                self.speed, self.low_confidence)

    def __eq__(self, other):
        return (other.__class__ is ActorState
                and self._fields() == other._fields())

    def __repr__(self):
        return "ActorState(%r, %r, %r, %r, %r, %r, %r)" % self._fields()

    def box(self):
        return oriented_box(self.pose, self.dims)


class Trace(Record):
    """A plain record of timesteps: ``times``, ``steps`` (per step
    {actor_id: ActorState} of the actors that the reader kept) and ``dt``.
    ``load_trace`` builds it from what ``iter_steps`` checked and kept;
    code that builds one keeps the same invariants:
    times strictly increasing, each step keyed by actor id, and each
    actor's dims the same at every step."""

    __slots__ = _fields = ("times", "steps", "dt")

    def __len__(self):
        return len(self.times)


def role_index(step: dict) -> dict:
    """Lower-cased role -> the actor of that role with the smallest id: the
    actor that a role name stands for at ``step``, in rules and stages."""
    roles: dict = {}
    for st in step.values():
        key = _ROLE_KEYS[st.role]
        held = roles.get(key)
        if held is None or st.actor_id < held.actor_id:
            roles[key] = st
    return roles


_RECORD = Schema("record {}", {
    "t": (number, REQUIRED), "actor_id": (string, REQUIRED),
    "role": (string, REQUIRED), "x": (finite, REQUIRED),
    "y": (finite, REQUIRED), "heading_rad": (finite, REQUIRED),
    "length_m": (number, REQUIRED), "width_m": (number, REQUIRED),
    "speed_mps": (finite, None), "speed_mph": (finite, None),
    "low_confidence": (boolean, False),
}, exclusive=[("speed_mps", "speed_mph")])
# orjson hands out one str object per key that it has decoded (its key
# cache): looked up with those very objects, a field is found by identity
_KEYS = list(orjson.loads(orjson.dumps({f[0]: 0 for f in _RECORD.fields})))
_required = operator.itemgetter(*_KEYS[:8])
_SPEED, _LOW_CONFIDENCE = _KEYS[8], _KEYS[10]
# a sum of squares of floats is below this only if each float is strictly
# inside +-2**63: not NaN, not infinite
_SQUARES_BELOW = 2.0 ** 126


def _parse_record(obj, line: str, index: int, seen: dict,
                  reported: set) -> ActorState:
    """Record ``line`` as an ActorState, its pose not yet built.  ``obj``
    is the line as orjson decoded it, or None where orjson refused it.
    ``seen`` maps actor ids to their first states; the record reuses that
    id object, and those dims when equal.  ``reported`` holds the unknown
    keys that the records before it reported.

    The record is read from ``obj`` in one pass when ``obj`` holds the
    eight required fields and, told by its size, nothing else (8 keys),
    ``speed_mps`` (9) or that and ``low_confidence`` (10), not null; its
    numbers floats whose squares sum below 2**126, so each strictly inside
    +-2**63, its ids strings and ``low_confidence`` a boolean.  Such a
    value is the stdlib decoder's, and the field-by-field path would read
    it unchanged:

    - the decoders part only where orjson refuses a line (NaN and
      infinities, lone surrogates, a number that overflows a double),
      and where it reads an integer literal past 64 bits as a float, by
      its own rounding, which the stdlib reads as an int: that float's
      magnitude is at least 2**63, and the range refuses it, as it
      refuses NaN and infinities from any decoder;
    - a float literal gives the same float in both, a string the same
      str, and an integer literal within 64 bits the same int, which the
      type test refuses;
    - no other key is left to hold a value that the two decode apart, or
      one that the field-by-field path reads (``speed_mph``).

    Any other line is decoded again by the stdlib and read field by
    field, so what is accepted, and the first fault in field order that
    is reported, are the stdlib decoder's.  A record of an actor in
    ``seen``, in its role and dims, with a finite ``t >= 0``, is built
    slot by slot."""
    try:
        t, actor_id, role, x, y, heading, length, width = _required(obj)
        size = len(obj)
        speed = obj.get(_SPEED) if size > 8 else None
        low_confidence = obj.get(_LOW_CONFIDENCE) if size == 10 else None
        fast = ((size == 8 or type(speed) is float
                 and speed * speed < _SQUARES_BELOW
                 and (size == 9 or low_confidence is True
                      or low_confidence is False))
                and type(t) is type(x) is type(y) is type(heading)
                is type(length) is type(width) is float
                and type(actor_id) is type(role) is str
                and t * t + x * x + y * y + heading * heading
                + length * length + width * width < _SQUARES_BELOW)
    except (KeyError, TypeError):
        fast = False
    if not fast:
        obj = json_value(line, f"record {index}", TraceError)
        (t, actor_id, role, x, y, heading, length, width, speed, speed_mph,
         low_confidence) = _RECORD.read(obj, TraceError, index,
                                        reported=reported)
        if speed_mph is not None:
            speed = speed_mph * MPH_TO_MPS
    first = seen.get(actor_id)
    if (first is not None and role == first.role and 0.0 <= t < math.inf
            and first.dims.length == length and first.dims.width == width):
        state = object.__new__(ActorState)    # __init__'s checks hold
        state.actor_id, state.role, state.t = first.actor_id, first.role, t
        state._pose, state.dims, state.speed = None, first.dims, speed
        state.low_confidence = low_confidence is True
    else:
        if first is not None:
            actor_id, dims = first.actor_id, first.dims
        try:
            if first is None or dims.length != length or dims.width != width:
                dims = BoxDims(length, width)
            state = ActorState(actor_id, role, t, None, dims, speed,
                               low_confidence is True)
        except ValueError as exc:
            raise TraceError(f"record {index}: {exc}") from exc
    state._x, state._y, state._heading = x, y, heading
    return state


def read_lines(source):
    """The lines of ``source``: text, bytes, or a binary file, which is read
    a line at a time and left open.  Bytes are UTF-8 with
    ``surrogateescape``, and only "\\n" ends a line, for trace files,
    detections and ``monitor``'s stdin alike."""
    if isinstance(source, str):
        yield from source.split("\n")
        return
    binary = io.BytesIO(source) if isinstance(source, bytes) else source
    text = io.TextIOWrapper(binary, encoding="utf-8",
                            errors="surrogateescape", newline="\n")
    try:
        for line in text:   # "yield from" would close ``text`` and ``binary``
            yield line
    finally:
        if not binary.closed:
            text.detach()   # so that ``text``, when collected, spares ``binary``


def iter_steps(lines, reads=None):
    """Group a JSON-lines record stream into timesteps, lazily.

    Yields ``(t, {actor_id: ActorState})`` per timestep as soon as the
    first record of the next one (or the end of ``lines``) has been read,
    and never reads further ahead.  Each record is validated, timestamps
    must not decrease, an actor appears at most once per step and keeps
    its dims; a violation raises TraceError with the index of the record
    (blank lines not counted).

    Given ``reads`` (``checker.read_set``), a step holds a state whose
    actor id or role key is in it or whose actor the step before holds,
    and the step before then holds that actor too: dynamics read an
    actor's neighbouring states, and its role may change.  A step whose
    states were all left out is yielded empty; every record is checked.
    """
    seen: dict = {}     # actor id -> its first state
    reported: set = set()   # the unknown keys reported so far
    t, step, dropped = None, {}, None   # dropped: id -> state left out
    last = last_dropped = None          # the same of the step before
    for index, line in record_lines(lines):
        try:
            obj = orjson.loads(line)
        except orjson.JSONDecodeError:
            obj = None      # _parse_record has the stdlib decode it
        state = _parse_record(obj, line, index, seen, reported)
        aid, st = state.actor_id, state.t
        if t is not None and st < t:
            raise TraceError(f"record {index}: out-of-order timestamp {st} "
                             f"after {t}")
        if st == t and (aid in step or dropped and aid in dropped):
            raise TraceError(f"record {index}: duplicate actor {aid!r} at "
                             f"t={st}")
        dims = seen.setdefault(aid, state).dims
        if dims is not state.dims:
            raise TraceError(f"record {index}: actor {aid!r} changed dims "
                             f"{dims} -> {state.dims}")
        if st != t:
            if t is not None:
                yield t, step
            last, last_dropped = step, dropped
            t, step, dropped = st, {}, None
        elif t or math.copysign(1.0, st) == math.copysign(1.0, t):
            state.t = t     # one float per step, but -0.0 == 0.0 keeps its sign
        if (reads is None or aid in reads or aid in last
                or _ROLE_KEYS[state.role] in reads):
            if last_dropped and aid in last_dropped:
                last[aid] = last_dropped.pop(aid)
            step[aid] = state
        else:
            if dropped is None:
                dropped = {}
            dropped[aid] = state
    if t is not None:
        yield t, step


def load_trace(source, reads=None) -> Trace:
    """Read a JSON-lines record stream, from ``read_lines(source)``, and
    group it into timesteps of the actors that ``reads`` keeps, as in
    ``iter_steps``; a stream with no records is an empty trace."""
    steps = iter_steps(read_lines(source), reads)
    times, steps = tuple(zip(*steps)) or ((), ())
    return Trace(times, steps, times[1] - times[0] if len(times) >= 2 else 1.0)


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


class DerivedState(Record):
    """``speed`` is |velocity vector| in m/s; ``heading_rel_lane`` radians
    in [-pi, pi), None off-road."""

    __slots__ = _fields = ("speed", "heading_rel_lane", "pull_out_angle",
                           "cut_in_angle")

    def __init__(self, speed, heading_rel_lane, pull_out_angle=0.0,
                 cut_in_angle=0.0):
        _set_speed(self, speed)
        _set_heading_rel(self, heading_rel_lane)
        _set_pull_out(self, pull_out_angle)
        _set_cut_in(self, cut_in_angle)


_set_speed, _set_heading_rel, _set_pull_out, _set_cut_in = DerivedState._setters


def derive_state(prev: ActorState | None, cur: ActorState,
                 nxt: ActorState | None, road: RoadMap) -> DerivedState:
    """Derived dynamics for one actor at one step, from the velocity by
    central difference when both neighbours exist, one-sided otherwise.
    Raises TraceError when the actor appears at a single step only."""
    if prev is None and nxt is None:
        raise TraceError(f"velocity undefined for single-step actor "
                         f"{cur.actor_id!r}")
    a = prev if prev is not None else cur
    b = nxt if nxt is not None else cur
    dt = b.t - a.t
    pa, pb, pose = a.pose, b.pose, cur.pose     # each pose read once
    vx, vy = (pb.x - pa.x) / dt, (pb.y - pa.y) / dt
    speed = math.hypot(vx, vy)
    heading_rel = None
    pull_out = 0.0
    cut_in = 0.0
    centre = (pose.x, pose.y)
    try:
        lane_o = lane_orientation_at(road, centre)
    except OffRoadError:
        lane_o = None
    if lane_o is not None:
        heading_rel = normalize_angle(pose.heading - lane_o)
        # lateral motion sign relative to the oncoming side of the centreline
        nx, ny = -math.sin(lane_o), math.cos(lane_o)
        lat_v = vx * nx + vy * ny
        try:
            cl = _nearest_centreline_point(road, centre)
        except OverflowError:
            cl = None
        # a centre line too long to measure from here leaves both angles 0
        toward = 0.0 if cl is None else lat_v * (
            (cl[0] - centre[0]) * nx + (cl[1] - centre[1]) * ny)
        if toward > 1e-9:
            pull_out = heading_rel
        elif toward < -1e-9:
            cut_in = abs(heading_rel)
    return DerivedState(speed, heading_rel, pull_out, cut_in)


def derive_row(prev_step: dict | None, cur_step: dict, nxt_step: dict | None,
               road: RoadMap, aid: str) -> tuple[DerivedState | None, tuple]:
    """Derived state of the actor ``aid`` at one step, given its
    neighbouring steps: None when it appears at this step only.

    The streaming engine calls this when a rule first reads that actor's
    dynamics at the step.  The notes are the speed-disagreement or
    single-step warning, if any.
    """
    cur = cur_step[aid]
    prev = prev_step.get(aid) if prev_step else None
    nxt = nxt_step.get(aid) if nxt_step else None
    try:
        derived = derive_state(prev, cur, nxt, road)
    except TraceError:
        # actor visible at this step only: no positional dynamics
        return None, (f"t={cur.t}: actor {aid!r} appears at a single "
                      f"step; dynamics unavailable",)
    if cur.speed is not None and abs(cur.speed - derived.speed) > SPEED_WARN_MPS:
        return derived, (
            f"t={cur.t}: actor {aid!r} recorded speed {cur.speed:.3f} "
            f"disagrees with positional {derived.speed:.3f}; positional wins",)
    return derived, ()
