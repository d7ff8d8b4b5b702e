"""Seeded input generator for the benchmark.

Builds one continuous drive on the paper's straight two-lane road (3.65 m
lanes, running lane below y=0, oncoming lane above) and the maps and rule
files the four workloads need.  It imports nothing from ``roadcheck``, so
every commit under test receives byte-identical inputs for a given seed.

The ego drives at the paper's 25 mph throughout and makes one overtake after
another with the nominal profile's 23 degree steering angle.  Every overtake
brings its own passed vehicle (role VBP) and oncoming vehicle (role OV):

* the first overtake is the published case: a stationary 8 m VBP, an OV at
  25 mph and a distance ahead at the crossing step of 76.43, 58.33 or
  35.63 m, chosen by the seed;
* later overtakes pass vehicles of a fixed cycle of speeds (always slower
  than the ego) and lengths, and draw the OV speed and the distance ahead
  (30-100 m, across the collision, near-miss and safe range) from the seed;
* at each step there is at most one actor per rule role, every actor is
  present for at least 3 steps and sampling is regular at 20 Hz.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

DT = 0.05
LANE_W = 3.65
Y_RUN = -LANE_W / 2.0
Y_ONC = LANE_W / 2.0
MPH = 0.44704
V_EGO = 25.0 * MPH
AV_LEN, AV_WID = 4.5, 2.0
OV_LEN, OV_WID = 4.5, 2.0
# trajectory shape of the nominal profile (23 degree steering, 2.9 m offset)
STEER = 0.4014257279586958
LATERAL = 2.9
CLEARANCE = 2.7360281391111156
PUBLISHED_DA = (76.43, 58.33, 35.63)
# (speed m/s, length m) of the passed vehicle of the second and later
# overtakes.  They are the same for every seed, as are the ego's path and
# the gap between overtakes, so that the work per step does not depend on
# the seed; the seed draws the oncoming vehicles and the other traffic.
PASSED_CYCLE = ((3.0, 5.0), (0.0, 10.0), (5.0, 7.0), (1.5, 12.0),
                (0.0, 4.5), (4.0, 9.0))
GAP_S = 6.6
ROAD_X0 = -60.0
ROAD_TAIL = 400.0


def box(x, y, h, length, width):
    """Corners of an oriented rectangle, counter-clockwise."""
    c, s = math.cos(h), math.sin(h)
    hl, hw = length / 2.0, width / 2.0
    return [(x + c * lx - s * ly, y + s * lx + c * ly)
            for lx, ly in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]


class _Path:
    """Piecewise-linear motion: (t0, x0, y0, vx, vy, heading) segments."""

    def __init__(self):
        self.starts: list[float] = []
        self.segs: list[tuple] = []

    def add(self, t0, x0, y0, vx, vy, heading):
        self.starts.append(t0)
        self.segs.append((t0, x0, y0, vx, vy, heading))

    def end(self, t):
        t0, x0, y0, vx, vy, _ = self.segs[-1]
        return x0 + vx * (t - t0), y0 + vy * (t - t0)

    def at(self, t):
        t0, x0, y0, vx, vy, h = self.segs[bisect_right(self.starts, t) - 1]
        return x0 + vx * (t - t0), y0 + vy * (t - t0), h


@dataclass
class _Actor:
    actor_id: str
    role: str
    length: float
    width: float
    first: int              # first step index present
    last: int               # last step index present (inclusive)
    pose: object            # t -> (x, y, heading)
    speed: float


def _time(k: int) -> float:
    return round(k * DT, 9)


def _crossing_step(path: _Path, k_from: int) -> int:
    k = k_from
    while True:
        x, y, h = path.at(_time(k))
        if max(p[1] for p in box(x, y, h, AV_LEN, AV_WID)) >= 0.0:
            return k
        k += 1


def build_drive(seed: int, n_steps: int) -> list[_Actor]:
    """The ego plus one VBP and one OV per overtake, covering n_steps."""
    rng = random.Random(seed)
    ego = _Path()
    ego.add(0.0, 0.0, Y_RUN, V_EGO, 0.0, 0.0)
    actors: list[_Actor] = []
    t1 = 4.0
    i = 0
    while True:
        if i == 0:
            v_vbp, vbp_len = 0.0, 8.0
            v_ov, da = 25.0 * MPH, PUBLISHED_DA[rng.randrange(3)]
        else:
            v_vbp, vbp_len = PASSED_CYCLE[(i - 1) % len(PASSED_CYCLE)]
            v_ov, da = rng.uniform(8.0, 16.0), rng.uniform(30.0, 100.0)
        x1, _ = ego.end(t1)
        t_po = LATERAL / (V_EGO * math.sin(STEER))
        t2 = t1 + t_po
        t_pass = (2.0 * CLEARANCE + vbp_len + AV_LEN) / (V_EGO - v_vbp)
        t3 = t2 + t_pass
        t4 = t3 + t_po
        ego.add(t1, x1, Y_RUN, V_EGO * math.cos(STEER),
                V_EGO * math.sin(STEER), STEER)
        x2, y2 = ego.end(t2)
        ego.add(t2, x2, y2, V_EGO, 0.0, 0.0)
        x3, y3 = ego.end(t3)
        ego.add(t3, x3, y3, V_EGO * math.cos(STEER),
                -V_EGO * math.sin(STEER), -STEER)
        x4, _ = ego.end(t4)
        ego.add(t4, x4, Y_RUN, V_EGO, 0.0, 0.0)

        vbp_x2 = x2 + AV_LEN / 2.0 + CLEARANCE + vbp_len / 2.0
        vbp_first = math.ceil((t1 - 3.0) / DT)
        vbp_last = math.floor((t4 + 1.5) / DT)
        actors.append(_Actor(
            f"vbp{i:03d}", "VBP", vbp_len, 2.0, vbp_first, vbp_last,
            lambda t, x0=vbp_x2, t0=t2, v=v_vbp: (x0 + v * (t - t0), Y_RUN, 0.0),
            v_vbp))

        k_cross = _crossing_step(ego, math.floor(t1 / DT))
        t_cross = _time(k_cross)
        xe, ye, he = ego.at(t_cross)
        ego_hi = max(p[0] for p in box(xe, ye, he, AV_LEN, AV_WID))
        ov_x = ego_hi + da + OV_LEN / 2.0
        ov_first = math.ceil((t1 - 1.0) / DT)
        ov_last = math.floor((t1 + 7.0) / DT)     # past the ego by then
        actors.append(_Actor(
            f"ov{i:03d}", "OV", OV_LEN, OV_WID, ov_first, ov_last,
            lambda t, x0=ov_x, t0=t_cross, v=v_ov: (x0 - v * (t - t0), Y_ONC, math.pi),
            v_ov))

        # the next VBP appears 3 s and the next OV 1 s before the next
        # pull-out, each after its predecessor has left; the fixed gap is
        # long enough that the seed never moves the next overtake
        t1 = t4 + GAP_S
        if min(math.ceil((t1 - 3.0) / DT) - vbp_last,
               math.ceil((t1 - 1.0) / DT) - ov_last) < 2:
            raise AssertionError("overtakes overlap; lengthen GAP_S")
        i += 1
        if math.ceil((t1 - 3.0) / DT) >= n_steps:
            break
    ego_actor = _Actor("ego", "AV", AV_LEN, AV_WID, 0, n_steps - 1,
                       ego.at, V_EGO)
    # drop what the cut leaves with fewer than 3 steps; clip the rest
    kept = [ego_actor]
    for a in actors:
        a.last = min(a.last, n_steps - 1)
        if a.last - a.first + 1 >= 3:
            kept.append(a)
    return kept


def others(seed: int, n_steps: int, count: int, x_lo: float, x_hi: float):
    """``count`` on-road vehicles of role ``other``, both lanes, whole drive."""
    rng = random.Random(seed * 7919 + 17)
    span = n_steps * DT
    out = []
    for j in range(count):
        v = rng.uniform(8.0, 14.0)
        travel = v * span + 10.0
        if j % 2 == 0:
            x0 = rng.uniform(x_lo + 5.0, x_hi - travel)
            pose = (lambda t, x0=x0, v=v:
                    (x0 + v * t, Y_RUN + 0.2 * math.sin(x0), 0.0))
        else:
            x0 = rng.uniform(x_lo + travel, x_hi - 5.0)
            pose = (lambda t, x0=x0, v=v:
                    (x0 - v * t, Y_ONC + 0.2 * math.sin(x0), math.pi))
        out.append(_Actor(f"car{j:03d}", "other", rng.uniform(4.0, 5.0),
                          rng.uniform(1.7, 2.0), 0, n_steps - 1, pose, v))
    return out


def trace_text(actors, n_steps: int) -> str:
    """JSON lines, one record per actor per step, steps in time order."""
    lines = []
    by_step: list[list[_Actor]] = [[] for _ in range(n_steps)]
    for a in actors:
        for k in range(a.first, a.last + 1):
            by_step[k].append(a)
    for k, present in enumerate(by_step):
        t = _time(k)
        for a in present:
            x, y, h = a.pose(t)
            lines.append(json.dumps({
                "t": t, "actor_id": a.actor_id, "role": a.role,
                "x": x, "y": y, "heading_rad": h,
                "length_m": a.length, "width_m": a.width,
                "speed_mps": a.speed}))
    return "\n".join(lines) + "\n"


def map_text(x_lo: float, x_hi: float, pairs: int) -> str:
    """The straight road cut into ``pairs`` lanelet pairs of equal length,
    with a centre line of ``pairs`` segments."""
    xs = [x_lo + (x_hi - x_lo) * j / pairs for j in range(pairs)] + [x_hi]
    lanelets = []
    for j in range(pairs):
        a, b = xs[j], xs[j + 1]
        lanelets.append({"id": f"r{j:05d}",
                         "vertices": [[a, -LANE_W], [b, -LANE_W], [b, 0.0], [a, 0.0]],
                         "orientation_rad": 0.0, "width_m": LANE_W,
                         "direction": "with_map_axis"})
        lanelets.append({"id": f"o{j:05d}",
                         "vertices": [[a, 0.0], [b, 0.0], [b, LANE_W], [a, LANE_W]],
                         "orientation_rad": math.pi, "width_m": LANE_W,
                         "direction": "against_map_axis"})
    return json.dumps({"lanelets": lanelets,
                       "centreline": [[x, 0.0] for x in xs]})


SHIPPED_RULES = '''\
assertion rule162_safe_distance_ahead {
  odd: single_carriageway
  type: execution
  severity: safety
  reference: crosses_centreline("av")
  condition: distance_ahead("av", "ov") > sda()
}

assertion rule163_pull_out_separation {
  odd: single_carriageway
  type: execution
  severity: safety
  reference: crosses_centreline("av")
  condition: min_distance(box_of("av"), box_of("vbp")) > danger_space_length(speed_of("av"))
}

assertion ds_vbp_outside_av {
  odd: single_carriageway
  type: invariant
  severity: safety
  on_missing: pass
  condition: not overlaps(box_of("vbp"), danger_space_of("av"))
}

assertion ds_ov_outside_av {
  odd: single_carriageway
  type: invariant
  severity: safety
  on_missing: pass
  condition: not overlaps(box_of("ov"), danger_space_of("av"))
}

assertion ds_av_outside_ov {
  odd: single_carriageway
  type: invariant
  severity: safety
  on_missing: pass
  condition: not overlaps(box_of("av"), danger_space_of("ov"))
}

assertion ds_no_mutual_overlap {
  odd: single_carriageway
  type: invariant
  severity: safety
  on_missing: pass
  condition: not overlaps(danger_space_of("av"), danger_space_of("ov"))
}
'''

WINDOW_RULES = '''
assertion win_pre_temporal_vbp_gap {
  odd: single_carriageway
  type: pre_temporal
  window: 2s
  mode: all
  on_missing: pass
  reference: crosses_centreline("av")
  condition: min_distance(box_of("av"), box_of("vbp")) > 6
}

assertion win_post_temporal_ov_clear {
  odd: single_carriageway
  type: post_temporal
  window: 2s
  mode: all
  on_missing: pass
  reference: crosses_centreline("av")
  condition: not overlaps(box_of("av"), danger_space_of("ov"))
}

assertion win_pre_physical_gap {
  odd: single_carriageway
  type: pre_physical
  window: 1500ms
  mode: all
  on_missing: pass
  reference: crosses_centreline("av")
  condition: distance_ahead("av", "ov") > 40
}

assertion win_post_physical_ov_sep {
  odd: single_carriageway
  type: post_physical
  window: 1s
  mode: all
  on_missing: pass
  reference: crosses_centreline("av")
  condition: min_distance(box_of("av"), box_of("ov")) > danger_space_length(speed_of("av"))
}
'''

# workload -> (steps, other vehicles, lanelet pairs, rule file or None)
WORKLOADS = {
    "long_drive": (3000, 0, 1, None),
    "crowded": (500, 27, 1, None),
    "big_map": (200, 0, 200, None),
    "windows": (800, 0, 1, SHIPPED_RULES + WINDOW_RULES),
}
DRIVE_STEPS = max(spec[0] for spec in WORKLOADS.values())


@dataclass
class Inputs:
    """Paths of the generated files of one workload and their checksums."""

    steps: int
    records: int
    lanelets: int
    map_path: Path
    trace_path: Path
    rules_path: Path | None
    trace_text: str
    reference: dict          # property name -> (map path, trace path)
    sha256: dict


def _write(path: Path, text: str, sums: dict) -> Path:
    path.write_text(text, "utf-8")
    sums[path.name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return path


def generate(workload: str, seed: int, out_dir: Path) -> Inputs:
    """Write the workload's map, trace and rule files into ``out_dir``."""
    steps, n_others, pairs, rules = WORKLOADS[workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    x_hi = ROAD_TAIL + DRIVE_STEPS * DT * V_EGO
    actors = build_drive(seed, steps)
    crowd = others(seed, steps, n_others, ROAD_X0, x_hi) if n_others else []
    sums: dict = {}
    bare = trace_text(actors, steps)
    text = trace_text(actors + crowd, steps) if crowd else bare
    two_lane = _write(out_dir / "map_2lanelets.json",
                      map_text(ROAD_X0, x_hi, 1), sums)
    map_path = (_write(out_dir / f"map_{pairs}pairs.json",
                       map_text(ROAD_X0, x_hi, pairs), sums)
                if pairs > 1 else two_lane)
    trace_path = _write(out_dir / f"{workload}_trace.jsonl", text, sums)
    rules_path = (_write(out_dir / f"{workload}.rules", rules, sums)
                  if rules else None)
    reference = {}
    if crowd:
        reference["without_others"] = (
            two_lane, _write(out_dir / f"{workload}_bare_trace.jsonl", bare, sums))
    if pairs > 1:
        reference["two_lanelet_map"] = (two_lane, trace_path)
    return Inputs(steps=steps, records=text.count("\n"),
                  lanelets=2 * pairs, map_path=map_path,
                  trace_path=trace_path, rules_path=rules_path,
                  trace_text=text, reference=reference, sha256=sums)
