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
from pathlib import Path

from .checker import CompiledAssertion, compile_text
from .engine import (FAIL, PASS, EvaluationContext, Verdict, evaluate_document,
                     summary_rows)
from .geometry import normalize_angle, projection_interval
from .record import Record
from .trace import Trace, role_index
from .worldmap import RoadMap, lanelet_at, lanelets_containing, within

_ANGLE_EPS = 1e-6


class NoManoeuvreError(ValueError):
    """The ego vehicle never left its running lane."""


class StageIntervals(Record):
    """Half-open step-index ranges for each overtake stage; ``cut_in`` is
    None for an aborted overtake."""

    __slots__ = _fields = ("pull_out", "passing", "cut_in", "aborted", "times")

    @property
    def manoeuvre_range(self) -> tuple[int, int]:
        end = self.cut_in[1] if self.cut_in is not None else self.passing[1]
        return (self.pull_out[0], end)

    def stage_names(self):
        return ["pull_out", "passing"] + (["cut_in"] if self.cut_in else [])


def _first(indices, test, default=None):
    """The first index that passes ``test``, else ``default``."""
    return next((k for k in indices if test(k)), default)


def detect_stages(trace: Trace, road: RoadMap) -> StageIntervals:
    """Locate pull-out / passing / cut-in from the geometry of the trace.
    The AV and the VBP of a step are the actors that the rules resolve
    "av" and "vbp" to: of each role, the one with the smallest id."""
    n = len(trace)
    roles = [role_index(step) for step in trace.steps]
    avs = [r.get("av") for r in roles]
    vbps = [r.get("vbp") for r in roles]
    av0 = next((a for a in avs if a is not None), None)
    if av0 is None:
        raise NoManoeuvreError("trace has no AV actor")
    home = lanelet_at(road, (av0.pose.x, av0.pose.y))
    axis = home.orientation
    opposing = {l.id for l in road.lanelets if l.direction != home.direction}
    same_side = {l.id for l in road.lanelets if l.direction == home.direction}
    if not opposing:
        raise NoManoeuvreError("map has no opposing lane to overtake into")

    def extent(st):     # (rear, front) along the home lane
        return projection_interval(st.box(), axis)

    def rel_heading(k):
        return normalize_angle(avs[k].pose.heading - axis)

    def in_opposing(k):
        return avs[k] is not None and any(
            lid in opposing for lid, _ in lanelets_containing(road, avs[k].box()))

    def fully_home(k):
        return avs[k] is not None and within(road, avs[k].box(), same_side)

    def both(k):
        return avs[k] is not None and vbps[k] is not None

    k_start = _first(range(n), in_opposing)
    if k_start is None:
        raise NoManoeuvreError("AV never enters the opposing lane")
    k_pass = _first(range(k_start, n), lambda k: both(k)
                    and extent(avs[k])[0] > extent(vbps[k])[0])
    if k_pass is None:
        raise NoManoeuvreError("AV never draws level with the VBP")
    # sign of the lane-relative heading while pulling out
    k_side = _first(range(k_start, k_pass), lambda k: avs[k] is not None
                    and abs(rel_heading(k)) > _ANGLE_EPS)
    side = 1.0 if k_side is None else math.copysign(1.0, rel_heading(k_side))
    k_cut = _first(range(k_pass, n), lambda k: both(k)
                   and rel_heading(k) * side < -_ANGLE_EPS
                   and extent(avs[k])[0] > extent(vbps[k])[1])
    if k_cut is None:
        # aborted: passing lasts until the AV is back in its own lane
        passing = (k_pass, _first(range(k_pass, n), fully_home, n))
        cut_in = None
    else:
        passing = (k_pass, k_cut)
        cut_in = (k_cut, _first(range(k_cut, n), fully_home, n - 1) + 1)
    return StageIntervals(pull_out=(k_start, k_pass), passing=passing,
                          cut_in=cut_in, aborted=k_cut is None,
                          times=trace.times)


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
    return compile_text(RULE162_SDA)[0]


def danger_space_assertions() -> tuple[CompiledAssertion, ...]:
    return compile_text(DANGER_SPACE_RULES)


def load_rulepack() -> tuple[CompiledAssertion, ...]:
    """The shipped assertion file: rule 162, rule 163 pull-out, danger spaces."""
    return compile_text(_RULES_TEXT)


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
    """Earliest failing timestamp per assertion id that ever fails."""
    return {row["assertion_id"]: row["first_fail_t"]
            for row in summary_rows(verdicts)
            if row["first_fail_t"] is not None}
