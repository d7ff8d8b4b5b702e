"""Highway-code assertions for the overtaking scenario plus the manoeuvre
stage detector.

The manoeuvre is split geometrically:

  * pull-out starts at the first step where the ego box overlaps an
    opposing-direction lanelet and ends when its rear face passes the rear
    face of the vehicle being passed;
  * passing runs from there until the cut-in begins (ego heading turned
    back toward the running lane with its rear clear of the passed
    vehicle's front);
  * cut-in ends at the first step the ego is entirely inside the running
    lane again.

An aborted overtake (the ego drops back behind the passed vehicle instead
of cutting in ahead of it) has no cut-in interval; the abort steps count
as passing until the ego is back in its lane.

Per-stage aggregation marks a stage FAIL when any step inside it fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .checker import CompiledAssertion, compile_text
from .engine import FAIL, PASS, EvaluationContext, Verdict, evaluate_document
from .geometry import projection_interval
from .trace import Trace
from .worldmap import RoadMap, lanelet_at, lanelets_containing

_AREA_EPS = 1e-6
_ANGLE_EPS = 1e-6


class NoManoeuvreError(ValueError):
    """The ego vehicle never left its running lane."""


@dataclass(frozen=True)
class StageIntervals:
    """Half-open step-index ranges for each overtake stage."""

    pull_out: tuple[int, int]
    passing: tuple[int, int]
    cut_in: tuple[int, int] | None
    aborted: bool
    times: tuple[float, ...]

    def span(self, name: str) -> tuple[float, float]:
        """Inclusive (t_start, t_end) of a stage."""
        rng = getattr(self, name)
        if rng is None:
            raise KeyError(f"stage {name!r} absent")
        return (self.times[rng[0]], self.times[rng[1] - 1])

    @property
    def manoeuvre_range(self) -> tuple[int, int]:
        end = self.cut_in[1] if self.cut_in is not None else self.passing[1]
        return (self.pull_out[0], end)

    def stage_names(self):
        names = ["pull_out", "passing"]
        if self.cut_in is not None:
            names.append("cut_in")
        return names


def _role_state(step: dict, role: str):
    for st in step.values():
        if st.role == role:
            return st
    return None


def detect_stages(trace: Trace, road: RoadMap) -> StageIntervals:
    """Locate pull-out / passing / cut-in from the geometry of the trace."""
    n = len(trace)
    av0 = None
    for k in range(n):
        av0 = _role_state(trace.steps[k], "AV")
        if av0 is not None:
            break
    if av0 is None:
        raise NoManoeuvreError("trace has no AV actor")
    home = lanelet_at(road, (av0.pose.x, av0.pose.y))
    axis = home.orientation
    opposing = [l for l in road.lanelets if l.direction != home.direction]
    same_side = [l for l in road.lanelets if l.direction == home.direction]
    if not opposing:
        raise NoManoeuvreError("map has no opposing lane to overtake into")
    opposing_ids = {l.id for l in opposing}
    same_ids = {l.id for l in same_side}

    def av(k):
        return _role_state(trace.steps[k], "AV")

    def vbp(k):
        return _role_state(trace.steps[k], "VBP")

    def in_opposing(k):
        st = av(k)
        if st is None:
            return False
        hits = lanelets_containing(road, st.box())
        return any(lid in opposing_ids for lid, _ in hits)

    def fully_home(k):
        st = av(k)
        if st is None:
            return False
        box = st.box()
        covered = sum(a for lid, a in lanelets_containing(road, box)
                      if lid in same_ids)
        return abs(covered - box.area) <= _AREA_EPS

    k_start = next((k for k in range(n) if in_opposing(k)), None)
    if k_start is None:
        raise NoManoeuvreError("AV never enters the opposing lane")

    def rear(st):
        return projection_interval(st.box(), axis)[0]

    def front(st):
        return projection_interval(st.box(), axis)[1]

    k_pass = None
    for k in range(k_start, n):
        a, b = av(k), vbp(k)
        if a is None or b is None:
            continue
        if rear(a) > rear(b):
            k_pass = k
            break
    if k_pass is None:
        raise NoManoeuvreError("AV never draws level with the VBP")

    # sign of the lane-relative heading while pulling out
    side = 0.0
    for k in range(k_start, k_pass):
        st = av(k)
        if st is None:
            continue
        rel = _rel_heading(st, home.orientation)
        if abs(rel) > _ANGLE_EPS:
            side = math.copysign(1.0, rel)
            break
    if side == 0.0:
        side = 1.0

    k_cut = None
    for k in range(k_pass, n):
        a, b = av(k), vbp(k)
        if a is None or b is None:
            continue
        rel = _rel_heading(a, home.orientation)
        if rel * side < -_ANGLE_EPS and rear(a) > front(b):
            k_cut = k
            break

    if k_cut is not None:
        k_return = next((k for k in range(k_cut, n) if fully_home(k)), n - 1)
        return StageIntervals(pull_out=(k_start, k_pass),
                              passing=(k_pass, k_cut),
                              cut_in=(k_cut, k_return + 1),
                              aborted=False, times=trace.times)
    # aborted: passing lasts until the AV is back in its own lane
    k_return = next((k for k in range(k_pass, n) if fully_home(k)), n)
    return StageIntervals(pull_out=(k_start, k_pass),
                          passing=(k_pass, k_return),
                          cut_in=None, aborted=True, times=trace.times)


def _rel_heading(st, lane_orientation):
    from .geometry import normalize_angle
    return normalize_angle(st.pose.heading - lane_orientation)


# --- rule definitions -------------------------------------------------------

def _rule_blocks(text: str) -> dict:
    """Each assertion's text, with the comment lines above it, by id.  Blocks
    are separated by blank lines; each is returned with a newline before and
    after it, so that concatenated blocks stay one blank line apart."""
    blocks = {}
    for chunk in text.split("\n\n"):
        for line in chunk.splitlines():
            if line.startswith("assertion "):
                blocks[line.split()[1]] = "\n" + chunk.strip("\n") + "\n"
                break
    return blocks


# The shipped rule text lives once, in data/overtaking.rules; each rule's
# text here is its block there.
_RULES_TEXT = (Path(__file__).parent / "data" / "overtaking.rules").read_text("utf-8")
_BLOCKS = _rule_blocks(_RULES_TEXT)

DANGER_SPACE_IDS = ("ds_vbp_outside_av", "ds_ov_outside_av",
                    "ds_av_outside_ov", "ds_no_mutual_overlap")
RULE162_SDA = _BLOCKS["rule162_safe_distance_ahead"]
RULE163_PULL_OUT = _BLOCKS["rule163_pull_out_separation"]
DANGER_SPACE_RULES = "".join(_BLOCKS[aid] for aid in DANGER_SPACE_IDS)


def rule162_sda_assertion() -> CompiledAssertion:
    return compile_text(RULE162_SDA).assertions[0]


def rule163_pullout_separation_assertion() -> CompiledAssertion:
    return compile_text(RULE163_PULL_OUT).assertions[0]


def danger_space_assertions() -> tuple[CompiledAssertion, ...]:
    return compile_text(DANGER_SPACE_RULES).assertions


def load_rulepack() -> tuple[CompiledAssertion, ...]:
    """The shipped assertion file: rule 162, rule 163 pull-out, danger spaces."""
    return compile_text(_RULES_TEXT).assertions


# --- per-stage aggregation ---------------------------------------------------

def scope_to_manoeuvre(verdicts, stages: StageIntervals) -> list[Verdict]:
    """Keep only verdicts whose timestamp lies inside the manoeuvre."""
    lo, hi = stages.manoeuvre_range
    t_lo, t_hi = stages.times[lo], stages.times[hi - 1]
    return [v for v in verdicts if t_lo - 1e-9 <= v.t <= t_hi + 1e-9]


def aggregate_by_stage(verdicts, stages: StageIntervals) -> dict:
    """Stage-level PASS/FAIL per assertion: any failing step fails the stage."""
    index_of = {t: i for i, t in enumerate(stages.times)}
    table: dict = {}
    for v in verdicts:
        k = index_of.get(v.t)
        if k is None:
            continue
        for name in stages.stage_names():
            lo, hi = getattr(stages, name)
            if lo <= k < hi:
                cell = table.setdefault(v.assertion_id, {})
                if v.result == FAIL:
                    cell[name] = FAIL
                elif v.result == PASS:
                    cell.setdefault(name, PASS)
    return table


def danger_space_stage_table(trace: Trace, ctx: EvaluationContext) -> dict:
    """The runtime-study verdict grid: four assertions x detected stages."""
    stages = detect_stages(trace, ctx.road)
    verdicts = evaluate_document(danger_space_assertions(), trace, ctx)
    return aggregate_by_stage(verdicts, stages)


def first_failures(verdicts) -> dict:
    """Earliest failing timestamp per assertion id."""
    out: dict = {}
    for v in verdicts:
        if v.result == FAIL and (v.assertion_id not in out
                                 or v.t < out[v.assertion_id]):
            out[v.assertion_id] = v.t
    return out
