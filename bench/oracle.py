"""Independent verdict oracle for the benchmark.

Computes the verdict every assertion of the benchmark's rule sets should
produce at every step, from the generated trace and map text alone.  It
shares no code with ``roadcheck``: the only thing it reads from the package
is ``data/profiles.json``.  It deliberately avoids the package's algorithms:

* speeds are finite differences written out here (central at interior
  steps, one-sided at an actor's first and last step);
* overlap is decided by vertex containment and edge crossing, distance by
  exhaustive vertex-to-edge enumeration (no separating axes, no GJK);
* stopping distance is the Rule 126 regression
  0.300v + 0.058 - 0.011v + 0.015v^2 (v in mph), and the safe distance
  ahead is the paper's closed form: closure over pull-out, passing and
  cut-in, plus the oncoming vehicle's danger space;
* windowed verdicts apply the documented window semantics to the per-step
  condition values.

A comparison or overlap within 1e-6 m of flipping is uncertain: the verdict
that depends on it is counted and skipped rather than compared.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

MPH = 0.44704
TIE = 1e-6
T_EPS = 1e-9
PASS, FAIL, NA = "pass", "fail", "not_applicable"

SHIPPED_IDS = ("rule162_safe_distance_ahead", "rule163_pull_out_separation",
               "ds_vbp_outside_av", "ds_ov_outside_av", "ds_av_outside_ov",
               "ds_no_mutual_overlap")
WINDOW_IDS = ("win_pre_temporal_vbp_gap", "win_post_temporal_ov_clear",
              "win_pre_physical_gap", "win_post_physical_ov_sep")


class OracleError(RuntimeError):
    """The inputs fall outside what the oracle models."""


def stopping_distance(v_mph: float) -> float:
    return 0.300 * v_mph + 0.058 - 0.011 * v_mph + 0.015 * v_mph * v_mph


def sda_closed_form(profile: dict, manoeuvre: dict, v_av: float,
                    v_vbp: float, v_ov: float) -> float:
    """Required gap at the start of an overtake, speeds in m/s."""
    lat = manoeuvre["lateral_offset_m"]
    t = (lat / (v_av * math.tan(profile["pull_out_angle_rad"]))
         + (profile["pull_out_clearance_m"] + manoeuvre["vbp_length_m"]
            + profile["cut_in_clearance_m"]) / (v_av - v_vbp)
         + lat / (v_av * math.tan(profile["cut_in_angle_rad"])))
    return (v_av + v_ov) * t + stopping_distance(v_ov / MPH)


def self_check(profiles: dict) -> list[str]:
    """Reproduce the published SDA values and the rule 162 outcomes."""
    problems = []
    v = 25.0 * MPH
    man = profiles["manoeuvre"]
    for name, want in (("relaxed", 101.39), ("nominal", 63.73),
                       ("aggressive", 40.02)):
        got = sda_closed_form(profiles["profiles"][name], man, v, 0.0, v)
        if round(got, 2) != want:
            problems.append(f"SDA {name}: {got:.4f} != {want}")
    nominal = sda_closed_form(profiles["profiles"]["nominal"], man, v, 0.0, v)
    for da, passes in ((76.43, True), (58.33, False), (35.63, False)):
        if (da > nominal) != passes:
            problems.append(f"rule 162 at {da} m should "
                            f"{'pass' if passes else 'fail'}")
    return problems


# --- planar predicates on rectangles ------------------------------------------

@dataclass(frozen=True)
class Rect:
    cx: float
    cy: float
    heading: float
    hl: float
    hw: float

    def corners(self, grow: float = 0.0):
        c, s = math.cos(self.heading), math.sin(self.heading)
        hl, hw = self.hl + grow, self.hw + grow
        return [(self.cx + c * lx - s * ly, self.cy + s * lx + c * ly)
                for lx, ly in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _inside(p, poly) -> bool:
    """Closed containment in a counter-clockwise convex polygon."""
    n = len(poly)
    return all(_cross(poly[i], poly[(i + 1) % n], p) >= 0.0 for i in range(n))


def _on_box(a, b, p) -> bool:
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _segments_meet(p, q, a, b) -> bool:
    d1, d2 = _cross(p, q, a), _cross(p, q, b)
    d3, d4 = _cross(a, b, p), _cross(a, b, q)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0
            and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0):
        return True
    return ((d1 == 0 and _on_box(p, q, a)) or (d2 == 0 and _on_box(p, q, b))
            or (d3 == 0 and _on_box(a, b, p)) or (d4 == 0 and _on_box(a, b, q)))


def _edges(poly):
    return [(poly[i], poly[(i + 1) % len(poly)]) for i in range(len(poly))]


def polygons_meet(pa, pb) -> bool:
    """Closed overlap: a vertex inside the other polygon or two edges meet."""
    if any(_inside(v, pb) for v in pa) or any(_inside(v, pa) for v in pb):
        return True
    return any(_segments_meet(p, q, a, b)
               for p, q in _edges(pa) for a, b in _edges(pb))


def _point_segment(p, a, b) -> float:
    dx, dy = b[0] - a[0], b[1] - a[1]
    denom = dx * dx + dy * dy
    t = 0.0 if denom == 0.0 else max(0.0, min(1.0, (
        (p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / denom))
    return math.hypot(p[0] - a[0] - t * dx, p[1] - a[1] - t * dy)


def rect_overlap(a: Rect, b: Rect) -> tuple[bool, bool]:
    """(overlap, certain); uncertain within TIE of touching."""
    pb = b.corners()
    value = polygons_meet(a.corners(), pb)
    grown = polygons_meet(a.corners(TIE), pb)
    shrunk = polygons_meet(a.corners(-TIE), pb)
    return value, grown == shrunk


def rect_distance(a: Rect, b: Rect) -> float:
    pa, pb = a.corners(), b.corners()
    if polygons_meet(pa, pb):
        return 0.0
    return min(min(_point_segment(v, p, q) for v in pa for p, q in _edges(pb)),
               min(_point_segment(v, p, q) for v in pb for p, q in _edges(pa)))


# --- trace and map -------------------------------------------------------------

@dataclass
class Actor:
    actor_id: str
    role: str
    x: float
    y: float
    heading: float
    length: float
    width: float
    speed: float = 0.0

    def box(self) -> Rect:
        return Rect(self.x, self.y, self.heading, self.length / 2.0,
                    self.width / 2.0)

    def danger_space(self) -> Rect:
        """Stopping-distance rectangle ahead of the front face."""
        ds = stopping_distance(self.speed / MPH)
        c, s = math.cos(self.heading), math.sin(self.heading)
        front = self.length / 2.0 + ds / 2.0
        return Rect(self.x + c * front, self.y + s * front, self.heading,
                    ds / 2.0, self.width / 2.0)


def parse_trace(text: str):
    """(times, steps) with steps[k] = {actor_id: Actor}; speeds derived."""
    times: list[float] = []
    steps: list[dict] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        r = json.loads(line)
        t = float(r["t"])
        if not times or t != times[-1]:
            times.append(t)
            steps.append({})
        steps[-1][r["actor_id"]] = Actor(
            r["actor_id"], r["role"], float(r["x"]), float(r["y"]),
            float(r["heading_rad"]), float(r["length_m"]), float(r["width_m"]))
    for k, step in enumerate(steps):
        for aid, a in step.items():
            prev = steps[k - 1].get(aid) if k > 0 else None
            nxt = steps[k + 1].get(aid) if k + 1 < len(steps) else None
            if prev is None and nxt is None:
                raise OracleError(f"{aid} appears at a single step")
            lo = prev or a
            hi = nxt or a
            dt = times[k + 1 if nxt else k] - times[k - 1 if prev else k]
            a.speed = math.hypot((hi.x - lo.x) / dt, (hi.y - lo.y) / dt)
    return times, steps


class RoadGeometry:
    """Lanelets and centre line of a map document, queried by brute force."""

    def __init__(self, text: str):
        doc = json.loads(text)
        self.lanelets = []
        for entry in doc["lanelets"]:
            pts = [(float(x), float(y)) for x, y in entry["vertices"]]
            area2 = sum(_cross((0.0, 0.0), pts[i], pts[(i + 1) % len(pts)])
                        for i in range(len(pts)))
            if area2 < 0:
                pts.reverse()
            self.lanelets.append((abs(area2) / 2.0, str(entry["id"]),
                                  float(entry["orientation_rad"]), pts))
        self.centreline = [(float(x), float(y)) for x, y in doc["centreline"]]

    def orientation_at(self, p) -> float:
        hits = [(area, lid, o) for area, lid, o, pts in self.lanelets
                if _inside(p, pts)]
        if not hits:
            raise OracleError(f"{p} is off-road")
        o = min(hits)[2]
        return math.fmod(math.fmod(o + math.pi, 2 * math.pi) + 2 * math.pi,
                         2 * math.pi) - math.pi

    def _touches(self, poly) -> bool:
        xs = [v[0] for v in poly]
        ys = [v[1] for v in poly]
        for a, b in zip(self.centreline, self.centreline[1:]):
            if (max(a[0], b[0]) < min(xs) or min(a[0], b[0]) > max(xs)
                    or max(a[1], b[1]) < min(ys) or min(a[1], b[1]) > max(ys)):
                continue
            if (_inside(a, poly) or _inside(b, poly)
                    or any(_segments_meet(a, b, p, q) for p, q in _edges(poly))):
                return True
        return False

    def crosses(self, r: Rect) -> tuple[bool, bool]:
        value = self._touches(r.corners())
        return value, self._touches(r.corners(TIE)) == self._touches(r.corners(-TIE))

    def distance_ahead(self, a: Actor, b: Actor) -> float:
        o = self.orientation_at((a.x, a.y))
        ax, ay = math.cos(o), math.sin(o)
        pa = [x * ax + y * ay for x, y in a.box().corners()]
        pb = [x * ax + y * ay for x, y in b.box().corners()]
        return max(0.0, min(pb) - max(pa), min(pa) - max(pb))


# --- verdicts ------------------------------------------------------------------

@dataclass
class Expected:
    """Oracle verdicts keyed by (assertion_id, t)."""

    results: dict = field(default_factory=dict)
    uncertain: set = field(default_factory=set)
    numbers: dict = field(default_factory=dict)   # key -> (measured, threshold)
    skipped_ids: set = field(default_factory=set)

    @property
    def exit_code(self):
        """1 when a certain safety failure exists; None when undecidable."""
        if any(r == FAIL for k, r in self.results.items()
               if k not in self.uncertain):
            return 1
        if self.uncertain or self.skipped_ids:
            return None
        return 0


def _role(step: dict, role: str):
    found = [a for a in step.values() if a.role.lower() == role]
    return min(found, key=lambda a: a.actor_id) if found else None


def _cmp(left: float, right: float) -> tuple[bool, bool]:
    return left > right, abs(left - right) > TIE


class Oracle:
    def __init__(self, trace: str, road: str, profiles: dict, windows: bool):
        self.times, self.steps = parse_trace(trace)
        self.road = RoadGeometry(road)
        self.profiles = profiles
        self.windows = windows
        self._cross = [self.road.crosses(_role(s, "av").box())
                       for s in self.steps]

    # per-step conditions: (holds, certain); a missing actor passes

    def _ds(self, k: int, boxed: str, spaced: str):
        st = self.steps[k]
        a, b = _role(st, boxed), _role(st, spaced)
        if a is None or b is None:
            return True, True
        hit, sure = rect_overlap(a.box(), b.danger_space())
        return not hit, sure

    def _mutual(self, k: int):
        st = self.steps[k]
        av, ov = _role(st, "av"), _role(st, "ov")
        if ov is None:
            return True, True
        hit, sure = rect_overlap(av.danger_space(), ov.danger_space())
        return not hit, sure

    def _gap(self, k: int, other: str, threshold=None):
        st = self.steps[k]
        av, b = _role(st, "av"), _role(st, other)
        if b is None:
            return True, True
        d = rect_distance(av.box(), b.box())
        if threshold is None:
            threshold = stopping_distance(av.speed / MPH)
        return _cmp(d, threshold)

    def _ahead(self, k: int, threshold: float):
        st = self.steps[k]
        ov = _role(st, "ov")
        if ov is None:
            return True, True
        return _cmp(self.road.distance_ahead(_role(st, "av"), ov), threshold)

    def expected(self) -> Expected:
        exp = Expected()
        times, n = self.times, len(self.times)
        invariants = (("ds_vbp_outside_av", lambda k: self._ds(k, "vbp", "av")),
                      ("ds_ov_outside_av", lambda k: self._ds(k, "ov", "av")),
                      ("ds_av_outside_ov", lambda k: self._ds(k, "av", "ov")),
                      ("ds_no_mutual_overlap", self._mutual))
        for aid, cond in invariants:
            for k in range(n):
                self._put(exp, (aid, times[k]), *cond(k))

        refs = [(k, sure) for k, (hit, sure) in enumerate(self._cross)
                if hit or not sure]
        for aid in SHIPPED_IDS[:2]:
            if not refs:
                exp.results[(aid, times[-1])] = NA
            elif not refs[0][1]:
                exp.skipped_ids.add(aid)     # which step fires is undecidable
            else:
                self._execution(exp, aid, refs[0][0])
        if self.windows:
            self._windowed(exp, refs)
        return exp

    def _put(self, exp, key, holds: bool, sure: bool):
        exp.results[key] = PASS if holds else FAIL
        if not sure:
            exp.uncertain.add(key)

    def _execution(self, exp, aid: str, k: int):
        st = self.steps[k]
        key = (aid, self.times[k])
        av, ov, vbp = _role(st, "av"), _role(st, "ov"), _role(st, "vbp")
        if aid == "rule162_safe_distance_ahead":
            if ov is None:
                self._put(exp, key, False, True)
                return
            v_vbp = vbp.speed if vbp else 0.0
            if av.speed <= v_vbp:
                raise OracleError("the passed vehicle is not slower than the ego")
            measured = self.road.distance_ahead(av, ov)
            threshold = sda_closed_form(self.profiles["profiles"]["nominal"],
                                        self.profiles["manoeuvre"], av.speed,
                                        v_vbp, ov.speed)
        else:
            if vbp is None:
                self._put(exp, key, False, True)
                return
            measured = rect_distance(av.box(), vbp.box())
            threshold = stopping_distance(av.speed / MPH)
        holds, sure = _cmp(measured, threshold)
        self._put(exp, key, holds, sure)
        exp.numbers[key] = (measured, threshold)

    def _windowed(self, exp, refs):
        times, n = self.times, len(self.times)
        conds = {
            "win_pre_temporal_vbp_gap": lambda k: self._gap(k, "vbp", 6.0),
            "win_post_temporal_ov_clear": lambda k: self._ds(k, "av", "ov"),
            "win_pre_physical_gap": lambda k: self._ahead(k, 40.0),
            "win_post_physical_ov_sep": lambda k: self._gap(k, "ov"),
        }
        memo: dict = {}

        def value(aid, k):
            if (aid, k) not in memo:
                memo[(aid, k)] = conds[aid](k)
            return memo[(aid, k)]

        if not refs:
            for aid in WINDOW_IDS:
                exp.results[(aid, times[-1])] = NA
            return
        for r, ref_sure in refs:
            t_ref = times[r]
            # pre_temporal: steps in [t_ref - 2 s, t_ref)
            lo = t_ref - 2.0
            idxs = [k for k in range(n)
                    if times[k] >= lo - T_EPS and times[k] < t_ref - T_EPS]
            self._window(exp, "win_pre_temporal_vbp_gap", t_ref, idxs,
                         lo < times[0] - T_EPS, value, ref_sure)
            # post_temporal: steps in (t_ref, t_ref + 2 s]
            hi = t_ref + 2.0
            idxs = [k for k in range(n)
                    if times[k] > t_ref + T_EPS and times[k] <= hi + T_EPS]
            self._window(exp, "win_post_temporal_ov_clear", t_ref, idxs,
                         hi > times[-1] + T_EPS, value, ref_sure)
            for aid, target in (("win_pre_physical_gap", t_ref - 1.5),
                                ("win_post_physical_ov_sep", t_ref + 1.0)):
                key = (aid, t_ref)
                if target < times[0] - T_EPS or target > times[-1] + T_EPS:
                    self._put(exp, key, False, ref_sure)
                    continue
                k = min(range(n), key=lambda i: (abs(times[i] - target), i))
                holds, sure = value(aid, k)
                self._put(exp, key, holds, sure and ref_sure)

    def _window(self, exp, aid, t_ref, idxs, incomplete, value, ref_sure):
        key = (aid, t_ref)
        sure = ref_sure
        for k in idxs:
            holds, certain = value(aid, k)
            sure = sure and certain
            if not holds:
                self._put(exp, key, False, sure)
                return
        self._put(exp, key, not incomplete, sure)
