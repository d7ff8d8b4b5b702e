"""Deterministic kinematic generation of overtaking fixtures.

Each scenario builds a straight two-lane road plus a trace in which the
ego (AV) approaches a parked or slower vehicle (VBP), pulls out at the
profile's steering angle, passes, and either cuts back in or aborts.  The
oncoming vehicle (OV) travels the opposite lane; its start position is
anchored so that the gap measured at the centre-line crossing step equals
the requested distance ahead exactly (in the occlusion fixture: the gap at
its first visible step).

The ego's plan is a table of constant-heading legs, each a start time,
position, heading and speed: the approach, the pull-out at the profile's
angle, the pass, the cut-in and the run-on, at one speed along the path,
matching the assumptions of the safe-distance-ahead model.  The occlusion
fixture removes the OV's records until it becomes visible and injects a
short detection flicker; the ego then aborts once the mutual danger-space
check first fails.  Its braking in the passing lane, until it is behind the
(moving) VBP, is the one interval outside the leg table; fall-back legs
take it into lane and on.  The oncoming driver brakes to a stop.
"""

from __future__ import annotations

import math

from .geometry import BoxDims, ConvexPolygon, Pose2D, projection_interval
from .models import MPH_TO_MPS, DrivingProfile, default_profiles
from .record import Record
from .trace import ActorState, Trace
from .worldmap import Lanelet, RoadMap, crosses_centreline


class InvalidSpecError(ValueError):
    pass


# vehicle footprints, metres
AV_LENGTH, AV_WIDTH = 4.5, 2.0
OV_LENGTH, OV_WIDTH = 4.5, 2.0
VBP_WIDTH = 2.0

# the occlusion abort: the OV and the ego each react and brake
OV_REACT_S = 0.5
OV_DECEL = 4.0          # m/s^2, the OV brakes to a stop
ABORT_REACT_S = 0.25    # ego reaction after the OV appears
AV_DECEL = 6.0          # m/s^2, the ego brakes down to AV_FLOOR_MPH
AV_FLOOR_MPH = 15.0
FALLBACK_GAP = 11.0     # the ego drops this far behind the VBP's rear
                        # before steering back into lane


class OcclusionSpec(Record):
    """The OV's records are absent before ``visible_from_t`` and at the
    absolute step indices ``flicker_steps``; ``visibility_gap`` is the
    AV-OV projected gap at its first visible step."""

    __slots__ = _fields = ("visible_from_t", "flicker_steps", "visibility_gap")


class ScenarioSpec(Record):
    """``vbp_position`` is the VBP's centre x at t=0; ``ov_start_offset``
    the distance ahead at the crossing step."""

    __slots__ = _fields = (
        "name", "road_length", "lane_width", "v_av_mph", "v_ov_mph",
        "vbp_position", "vbp_length", "profile", "dt", "pull_out_start_s",
        "lateral_offset", "ov_start_offset", "v_vbp_mph", "trail_s",
        "occlusion")
    _defaults = {"ov_start_offset": None, "v_vbp_mph": 0.0, "trail_s": 1.5,
                 "occlusion": None}

    def __post_init__(self):
        if self.dt <= 0.0:
            raise InvalidSpecError(f"dt must be > 0, got {self.dt}")
        if min(self.v_av_mph, self.v_ov_mph, self.v_vbp_mph) < 0.0:
            raise InvalidSpecError("speeds must be >= 0")
        if self.v_av_mph <= self.v_vbp_mph:
            raise InvalidSpecError("the AV must be faster than the VBP")
        if self.occlusion is None:
            if self.ov_start_offset is None or self.ov_start_offset <= 0.0:
                raise InvalidSpecError("ov_start_offset must be > 0")
        if self.lateral_offset > self.lane_width:
            raise InvalidSpecError(
                f"profile infeasible: lateral offset {self.lateral_offset} "
                f"exceeds lane width {self.lane_width}")
        if self.lateral_offset <= (AV_WIDTH + VBP_WIDTH) / 2.0:
            raise InvalidSpecError(
                "profile infeasible: lateral offset cannot clear the VBP")


def build_map(spec: ScenarioSpec) -> RoadMap:
    """Straight two-lane road; running lane below y=0, oncoming above."""
    w, length = spec.lane_width, spec.road_length
    running = Lanelet(
        id="running",
        shape=ConvexPolygon(((0.0, -w), (length, -w), (length, 0.0), (0.0, 0.0))),
        orientation=0.0, width=w, direction="with_map_axis")
    oncoming = Lanelet(
        id="oncoming",
        shape=ConvexPolygon(((0.0, 0.0), (length, 0.0), (length, w), (0.0, w))),
        orientation=math.pi, width=w, direction="against_map_axis")
    return RoadMap(lanelets=(running, oncoming),
                   centreline=((0.0, 0.0), (length, 0.0)))


class _AvPlan:
    """The ego's trajectory: a table of constant-heading legs, and in the
    occlusion fixture the abort's braking interval outside it."""

    def __init__(self, spec: ScenarioSpec):
        p = spec.profile
        v = self.v = spec.v_av_mph * MPH_TO_MPS
        self.v_vbp = spec.v_vbp_mph * MPH_TO_MPS
        L, theta = spec.lateral_offset, p.cut_in_angle
        y_run = -spec.lane_width / 2.0

        t1 = spec.pull_out_start_s
        t2 = t1 + L / (v * math.sin(p.pull_out_angle))
        vbp_at_t2 = spec.vbp_position + self.v_vbp * t2
        x2 = (vbp_at_t2 - spec.vbp_length / 2.0
              - p.pull_out_clearance - AV_LENGTH / 2.0)
        x_ps = x2 - L / math.tan(p.pull_out_angle)
        gap_run = (p.pull_out_clearance + p.cut_in_clearance
                   + spec.vbp_length + AV_LENGTH)
        t3 = t2 + gap_run / (v - self.v_vbp)
        x3 = x2 + v * (t3 - t2)
        T_ci = L / (v * math.sin(theta))
        # (start t, x, y, heading, speed): the approach, the pull-out at
        # beta, the pass, the cut-in at -theta and the run-on
        self.legs = [(0.0, x_ps - v * t1, y_run, 0.0, v),
                     (t1, x_ps, y_run, p.pull_out_angle, v),
                     (t2, x2, y_run + L, 0.0, v),
                     (t3, x3, y_run + L, -theta, v),
                     (t3 + T_ci, x3 + v * math.cos(theta) * T_ci, y_run, 0.0,
                      v)]
        self._abort = None
        if spec.occlusion is not None:
            self._plan_abort(spec)

    def _plan_abort(self, spec: ScenarioSpec):
        """The ego brakes in the passing lane until it is FALLBACK_GAP
        behind the VBP, falls back into lane at -theta at the speed it has
        then, and runs on: the legs from the pass on are replaced."""
        t_ab = spec.occlusion.visible_from_t + ABORT_REACT_S
        (t2, x2, y_out, _, v), (t3, *_) = self.legs[2:4]
        if not (t2 < t_ab < t3):
            raise InvalidSpecError(
                "occlusion abort must begin during the passing phase")
        v_floor = AV_FLOOR_MPH * MPH_TO_MPS
        self._abort = ab = dict(t_ab=t_ab, T_b=(v - v_floor) / AV_DECEL,
                                x_ab=x2 + v * (t_ab - t2), v_floor=v_floor)
        # earliest time the ego's front is FALLBACK_GAP behind the VBP's
        # rear; scanned at fine resolution, then the legs carry on
        t, step = t_ab, spec.dt / 10.0
        while (self._braking(t - t_ab)[0] + AV_LENGTH / 2.0 > spec.vbp_position
               + self.v_vbp * t - spec.vbp_length / 2.0 - FALLBACK_GAP):
            t += step
            if t > t_ab + 120.0:
                raise InvalidSpecError("abort fall-back never completes")
        x_sb, v_sb = self._braking(t - t_ab)
        theta = spec.profile.cut_in_angle
        t_done = t + spec.lateral_offset / (v_sb * math.sin(theta))
        back = (t, x_sb, y_out, -theta, v_sb)
        self.legs[3:] = [back, (t_done, _along(back, t_done)[0],
                                -spec.lane_width / 2.0, 0.0, v_sb)]
        ab["t_sb"] = t

    def _braking(self, s: float) -> tuple[float, float]:
        """The ego's (x, speed) ``s`` seconds into the abort: it brakes at
        AV_DECEL down to its floor speed, then holds that speed."""
        ab = self._abort
        braked = min(s, ab["T_b"])
        x = ab["x_ab"] + self.v * braked - 0.5 * AV_DECEL * braked * braked
        if s < ab["T_b"]:
            return x, self.v - AV_DECEL * s
        return x + ab["v_floor"] * (s - ab["T_b"]), ab["v_floor"]

    def state(self, t: float) -> tuple[float, float, float, float]:
        """(x, y, heading, speed) at time t."""
        ab = self._abort
        if ab is not None and ab["t_ab"] <= t < ab["t_sb"]:
            x, v = self._braking(t - ab["t_ab"])
            return (x, self.legs[2][2], 0.0, v)
        leg = next(leg for leg in reversed(self.legs) if leg[0] <= t)
        return _along(leg, t)


def _along(leg, t: float) -> tuple[float, float, float, float]:
    """(x, y, heading, speed) at time t on a constant-heading leg."""
    t0, x, y, h, v = leg
    s = t - t0
    return (x + v * math.cos(h) * s, y + v * math.sin(h) * s, h, v)


class _OvPlan:
    """Oncoming vehicle: constant speed, braking to a stop at OV_DECEL in
    the occlusion fixture."""

    def __init__(self, spec: ScenarioSpec, anchor_t: float, anchor_x: float):
        self.v = spec.v_ov_mph * MPH_TO_MPS
        self.anchor_t = anchor_t
        self.anchor_x = anchor_x
        self.brake_from = (None if spec.occlusion is None
                           else anchor_t + OV_REACT_S)

    def state(self, t: float) -> tuple[float, float]:
        """(x, speed) at time t; the OV heads in -x."""
        if self.brake_from is None or t <= self.brake_from:
            return (self.anchor_x - self.v * (t - self.anchor_t), self.v)
        x0 = self.anchor_x - self.v * (self.brake_from - self.anchor_t)
        dt = t - self.brake_from
        t_stop = self.v / OV_DECEL
        if dt >= t_stop:
            return (x0 - self.v * t_stop + 0.5 * OV_DECEL * t_stop ** 2, 0.0)
        return (x0 - self.v * dt + 0.5 * OV_DECEL * dt * dt,
                self.v - OV_DECEL * dt)


def _av_state_at(plan: _AvPlan, t: float) -> ActorState:
    x, y, h, v = plan.state(t)
    return ActorState(actor_id="ego", role="AV", t=t,
                      pose=Pose2D(x, y, h),
                      dims=BoxDims(AV_LENGTH, AV_WIDTH), speed=v)


def generate(spec: ScenarioSpec) -> tuple[RoadMap, Trace]:
    """Build the map and the full trace for a scenario."""
    road = build_map(spec)
    plan = _AvPlan(spec)
    dt = spec.dt
    y_ov = spec.lane_width / 2.0
    t_end = plan.legs[-1][0]    # the run-on's start ends the manoeuvre

    # the reference step: first sampled step whose ego box touches the line
    k = 0
    while not crosses_centreline(road, _av_state_at(plan, k * dt).box()):
        k += 1
        if k * dt > t_end + 2.0:
            raise InvalidSpecError("ego never reaches the centre line")
    t_cross = k * dt

    # the OV's front is ``gap`` ahead of the ego's at ``anchor_t``
    occ = spec.occlusion
    anchor_t, gap = ((t_cross, spec.ov_start_offset) if occ is None
                     else (occ.visible_from_t, occ.visibility_gap))
    av_hi = projection_interval(_av_state_at(plan, anchor_t).box(), 0.0)[1]
    ov = _OvPlan(spec, anchor_t, av_hi + gap + OV_LENGTH / 2.0)
    if occ is None:
        v_closing = (spec.v_av_mph + spec.v_ov_mph) * MPH_TO_MPS
        t_end = max(t_end, t_cross + gap / v_closing)
    t_end += spec.trail_s

    n = int(math.floor(t_end / dt + 1e-9)) + 1
    times = [k * dt for k in range(n)]
    flicker = set(occ.flicker_steps) if occ else set()

    steps = []
    for k, t in enumerate(times):
        step = {"ego": _av_state_at(plan, t)}
        step["parked"] = ActorState(
            actor_id="parked", role="VBP", t=t,
            pose=Pose2D(spec.vbp_position + plan.v_vbp * t,
                        -spec.lane_width / 2.0, 0.0),
            dims=BoxDims(spec.vbp_length, VBP_WIDTH), speed=plan.v_vbp)
        if occ is None or (t >= occ.visible_from_t - 1e-9
                           and k not in flicker):
            ov_x, ov_v = ov.state(t)
            step["oncoming"] = ActorState(
                actor_id="oncoming", role="OV", t=t,
                pose=Pose2D(ov_x, y_ov, math.pi),
                dims=BoxDims(OV_LENGTH, OV_WIDTH), speed=ov_v)
        steps.append(step)
    return road, Trace(times=tuple(times), steps=tuple(steps), dt=dt)


PRESET_NAMES = ("safe", "near_miss", "collision", "occlusion_abort")

_TABLE_DA = {"safe": 76.43, "near_miss": 58.33, "collision": 35.63}


def preset(name: str) -> ScenarioSpec:
    """The published scenario fixtures.

    The three simulation presets share one medium-urgency trajectory at
    25 mph and differ only in where the oncoming vehicle starts, pinning
    the distance ahead at the crossing step to 76.43, 58.33 and 35.63 m.
    The occlusion fixture hides the oncoming vehicle until six seconds
    after the pull-out begins, well inside its danger-space range, and
    injects a two-step detection flicker one second later.
    """
    config = default_profiles()
    nominal = config.profile("nominal")
    if name in _TABLE_DA:
        return ScenarioSpec(
            name=name, road_length=150.0, lane_width=3.65,
            v_av_mph=25.0, v_ov_mph=25.0, v_vbp_mph=0.0,
            vbp_position=40.0, vbp_length=8.0,
            profile=nominal, dt=0.05, pull_out_start_s=1.0,
            lateral_offset=config.lateral_offset,
            ov_start_offset=_TABLE_DA[name])
    if name == "occlusion_abort":
        pull_out_start = 1.0
        visible_from = pull_out_start + 6.0
        vis_step = int(round(visible_from / 0.05))
        return ScenarioSpec(
            name=name, road_length=300.0, lane_width=3.65,
            v_av_mph=40.0, v_ov_mph=20.0, v_vbp_mph=35.0,
            vbp_position=30.0, vbp_length=8.0,
            profile=nominal, dt=0.05, pull_out_start_s=pull_out_start,
            lateral_offset=config.lateral_offset,
            trail_s=1.0,
            occlusion=OcclusionSpec(
                visible_from_t=visible_from,
                flicker_steps=(vis_step + 20, vis_step + 21),
                visibility_gap=68.0))
    raise InvalidSpecError(f"unknown preset {name!r}; "
                           f"choose from {PRESET_NAMES}")
