"""Deterministic kinematic generation of overtaking fixtures.

Each scenario builds a straight two-lane road plus a trace in which the
ego (AV) approaches a parked or slower vehicle (VBP), pulls out at the
profile's steering angle, passes, and either cuts back in or aborts.  The
oncoming vehicle (OV) travels the opposite lane; its start position is
anchored so that the gap measured at the centre-line crossing step equals
the requested distance ahead exactly.

Trajectories are piecewise linear in lateral offset (constant steering
angle segments) at constant speed along the path, matching the assumptions
of the safe-distance-ahead model.  The occlusion fixture removes the OV's
records until it becomes visible, injects a short detection flicker, and
has the ego brake and drop back behind the (moving) VBP once the mutual
danger-space check first fails; the oncoming driver brakes to a stop.
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
    """Piecewise-analytic ego trajectory; pose and speed at any time."""

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        p = spec.profile
        v = spec.v_av_mph * MPH_TO_MPS
        self.v = v
        self.v_vbp = spec.v_vbp_mph * MPH_TO_MPS
        self.beta = p.pull_out_angle
        self.theta = p.cut_in_angle
        L = spec.lateral_offset
        self.L = L
        self.y_run = -spec.lane_width / 2.0

        self.t1 = spec.pull_out_start_s
        self.T_po = L / (v * math.sin(self.beta))
        self.t2 = self.t1 + self.T_po
        lon_po = L / math.tan(self.beta)
        vbp_at_t2 = spec.vbp_position + self.v_vbp * self.t2
        self.x2 = (vbp_at_t2 - spec.vbp_length / 2.0
                   - p.pull_out_clearance - AV_LENGTH / 2.0)
        self.x_ps = self.x2 - lon_po
        self.x0 = self.x_ps - v * self.t1
        gap_run = (p.pull_out_clearance + p.cut_in_clearance
                   + spec.vbp_length + AV_LENGTH)
        self.t3 = self.t2 + gap_run / (v - self.v_vbp)
        self.x3 = self.x2 + v * (self.t3 - self.t2)
        self.T_ci = L / (v * math.sin(self.theta))
        self.t4 = self.t3 + self.T_ci
        self.x4 = self.x3 + v * math.cos(self.theta) * self.T_ci

        self._abort = None
        if spec.occlusion is not None:
            self._plan_abort(spec.occlusion)

    def _plan_abort(self, occ: OcclusionSpec):
        t_ab = occ.visible_from_t + ABORT_REACT_S
        if not (self.t2 < t_ab < self.t3):
            raise InvalidSpecError(
                "occlusion abort must begin during the passing phase")
        v_floor = AV_FLOOR_MPH * MPH_TO_MPS
        T_b = (self.v - v_floor) / AV_DECEL
        x_ab = self.x2 + self.v * (t_ab - self.t2)
        self._abort = ab = dict(t_ab=t_ab, T_b=T_b, x_ab=x_ab, v_floor=v_floor)
        # earliest time the ego's front is FALLBACK_GAP behind the VBP's
        # rear; scanned at fine resolution, then the analytic pose carries on
        spec = self.spec
        t, step = t_ab, spec.dt / 10.0
        while (self._braking(t - t_ab)[0] + AV_LENGTH / 2.0 > spec.vbp_position
               + self.v_vbp * t - spec.vbp_length / 2.0 - FALLBACK_GAP):
            t += step
            if t > t_ab + 120.0:
                raise InvalidSpecError("abort fall-back never completes")
        x_sb, v_sb = self._braking(t - t_ab)
        T_back = self.L / (v_sb * math.sin(self.theta))
        ab.update(t_sb=t, x_sb=x_sb, v_sb=v_sb, t_done=t + T_back)

    def _braking(self, s: float) -> tuple[float, float]:
        """The ego's (x, speed) ``s`` seconds into the abort: it brakes at
        AV_DECEL down to its floor speed, then holds that speed."""
        ab = self._abort
        braked = min(s, ab["T_b"])
        x = ab["x_ab"] + self.v * braked - 0.5 * AV_DECEL * braked * braked
        if s < ab["T_b"]:
            return x, self.v - AV_DECEL * s
        return x + ab["v_floor"] * (s - ab["T_b"]), ab["v_floor"]

    @property
    def abort_done_t(self) -> float:
        return self._abort["t_done"] if self._abort else None

    def state(self, t: float) -> tuple[float, float, float, float]:
        """(x, y, heading, speed) at time t."""
        if self._abort is not None and t >= self._abort["t_ab"]:
            return self._abort_state(t)
        v = self.v
        if t < self.t1:
            return (self.x0 + v * t, self.y_run, 0.0, v)
        if t < self.t2:
            s = t - self.t1
            return (self.x_ps + v * math.cos(self.beta) * s,
                    self.y_run + v * math.sin(self.beta) * s, self.beta, v)
        if t < self.t3:
            return (self.x2 + v * (t - self.t2), self.y_run + self.L, 0.0, v)
        if t < self.t4:
            s = t - self.t3
            return (self.x3 + v * math.cos(self.theta) * s,
                    self.y_run + self.L - v * math.sin(self.theta) * s,
                    -self.theta, v)
        return (self.x4 + v * (t - self.t4), self.y_run, 0.0, v)

    def _abort_state(self, t):
        ab = self._abort
        y_out = self.y_run + self.L
        if t < ab["t_sb"]:
            x, v = self._braking(t - ab["t_ab"])
            return (x, y_out, 0.0, v)
        v = ab["v_sb"]
        if t < ab["t_done"]:
            s = t - ab["t_sb"]
            return (ab["x_sb"] + v * math.cos(self.theta) * s,
                    y_out - v * math.sin(self.theta) * s, -self.theta, v)
        x_done = (ab["x_sb"]
                  + v * math.cos(self.theta) * (ab["t_done"] - ab["t_sb"]))
        return (x_done + v * (t - ab["t_done"]), self.y_run, 0.0, v)


class _OvPlan:
    """Oncoming vehicle: constant speed, optionally braking to a stop."""

    def __init__(self, spec: ScenarioSpec, anchor_t: float, anchor_x: float):
        self.v = spec.v_ov_mph * MPH_TO_MPS
        self.anchor_t = anchor_t
        self.anchor_x = anchor_x
        self.brake_from = None
        self.decel = 0.0
        if spec.occlusion is not None:
            self.brake_from = anchor_t + OV_REACT_S
            self.decel = OV_DECEL

    def state(self, t: float) -> tuple[float, float]:
        """(x, speed) at time t; the OV heads in -x."""
        if self.brake_from is None or t <= self.brake_from:
            return (self.anchor_x - self.v * (t - self.anchor_t), self.v)
        x0 = self.anchor_x - self.v * (self.brake_from - self.anchor_t)
        dt = t - self.brake_from
        t_stop = self.v / self.decel if self.decel > 0 else math.inf
        if dt >= t_stop:
            return (x0 - self.v * t_stop + 0.5 * self.decel * t_stop ** 2, 0.0)
        return (x0 - self.v * dt + 0.5 * self.decel * dt * dt,
                self.v - self.decel * dt)


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

    # the reference step: first sampled step whose ego box touches the line
    k = 0
    cross_k = None
    horizon = (plan.abort_done_t or plan.t4) + 2.0
    while k * dt <= horizon:
        st = _av_state_at(plan, k * dt)
        if crosses_centreline(road, st.box()):
            cross_k = k
            break
        k += 1
    if cross_k is None:
        raise InvalidSpecError("ego never reaches the centre line")
    t_cross = cross_k * dt

    if spec.occlusion is None:
        av_box = _av_state_at(plan, t_cross).box()
        av_hi = projection_interval(av_box, 0.0)[1]
        anchor_t = t_cross
        anchor_x = av_hi + spec.ov_start_offset + OV_LENGTH / 2.0
        ov = _OvPlan(spec, anchor_t, anchor_x)
        v_closing = (spec.v_av_mph + spec.v_ov_mph) * MPH_TO_MPS
        t_meet = t_cross + spec.ov_start_offset / v_closing
        t_end = max(plan.t4, t_meet) + spec.trail_s
    else:
        occ = spec.occlusion
        t_vis = occ.visible_from_t
        av_box = _av_state_at(plan, t_vis).box()
        av_hi = projection_interval(av_box, 0.0)[1]
        ov = _OvPlan(spec, t_vis, av_hi + occ.visibility_gap + OV_LENGTH / 2.0)
        t_end = plan.abort_done_t + spec.trail_s

    n = int(math.floor(t_end / dt + 1e-9)) + 1
    times = [k * dt for k in range(n)]
    flicker = set(spec.occlusion.flicker_steps) if spec.occlusion else set()

    steps = []
    for k, t in enumerate(times):
        step = {"ego": _av_state_at(plan, t)}
        vbp_x = spec.vbp_position + spec.v_vbp_mph * MPH_TO_MPS * t
        step["parked"] = ActorState(
            actor_id="parked", role="VBP", t=t,
            pose=Pose2D(vbp_x, -spec.lane_width / 2.0, 0.0),
            dims=BoxDims(spec.vbp_length, VBP_WIDTH),
            speed=spec.v_vbp_mph * MPH_TO_MPS)
        visible = (spec.occlusion is None
                   or (t >= spec.occlusion.visible_from_t - 1e-9
                       and k not in flicker))
        if visible:
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
