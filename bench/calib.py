"""Fixed calibration loop that tracks the host's current speed.

Raw throughput of one unchanged build drifts by 20-50 % over tens of
seconds on a small shared host, and CPU time drifts as much as wall time.
Every timed invocation is therefore paired with adjacent runs of this loop,
which does the same kind of pure-Python work as the program (JSON decoding,
small frozen objects, separating-axis tests on boxes).  A figure measured
while the loop took ``t`` seconds is expressed at reference speed by scaling
times by ``REFERENCE_S / t`` and rates by ``t / REFERENCE_S``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

# Duration of run() at reference speed: a fixed unit, chosen near the
# loop's duration on the reference host (2-core shared sandbox, Python
# 3.11.7), where 200 runs took 48.9 ms at least, 67.5 ms in median.
REFERENCE_S = 0.0600

_RECORD = json.dumps({"t": 12.35, "actor_id": "vbp004", "role": "VBP",
                      "x": 181.25, "y": -1.825, "heading_rad": 0.0,
                      "length_m": 8.0, "width_m": 2.0, "speed_mps": 3.5})
_ROUNDS = 2600


@dataclass(frozen=True)
class _Pose:
    x: float
    y: float
    heading: float


def _corners(p: _Pose, length: float, width: float):
    c, s = math.cos(p.heading), math.sin(p.heading)
    hl, hw = length / 2.0, width / 2.0
    return tuple((p.x + c * lx - s * ly, p.y + s * lx + c * ly)
                 for lx, ly in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)))


def _separated(a, b) -> bool:
    for poly in (a, b):
        for i in range(4):
            (x1, y1), (x2, y2) = poly[i], poly[(i + 1) % 4]
            ax, ay = y2 - y1, x1 - x2
            pa = [x * ax + y * ay for x, y in a]
            pb = [x * ax + y * ay for x, y in b]
            if max(pa) < min(pb) or max(pb) < min(pa):
                return True
    return False


def run() -> float:
    """Seconds one pass of the fixed loop takes now."""
    fixed = _corners(_Pose(185.0, -1.5, 0.1), 4.5, 2.0)
    hits = 0
    start = time.perf_counter()
    for i in range(_ROUNDS):
        rec = json.loads(_RECORD)
        pose = _Pose(rec["x"] + (i % 17) * 0.5, rec["y"], rec["heading_rad"])
        if not _separated(_corners(pose, rec["length_m"], rec["width_m"]), fixed):
            hits += 1
    elapsed = time.perf_counter() - start
    if hits == 0:
        raise AssertionError("calibration loop lost its work")
    return elapsed
