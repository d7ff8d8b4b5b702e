"""Safety/performance zone classification for overtaking situations.

Zones, from the measured distance ahead (DA), the required safe distance
ahead (SDA), and a time-to-collision figure:

    A: DA <= SDA                      unsafe, the manoeuvre should not start
    B: SDA < DA <= SDA * (1+margin)   inside the near-miss safety margin
    D: TTC beyond the conservative bound -- so much headroom that refusing
       to overtake would be overly cautious
    C: everything in between -- the efficient-but-safe operating band

Zone A membership coincides exactly with a failed rule-162 check (ties
fail).  The margin width is configurable; the published figure draws the
band without quantifying it, so it defaults to 10% of SDA.

``optimal_profile`` uses the TTC still in hand when the manoeuvre would
complete (gap TTC at pull-out minus the manoeuvre time): a pull-out-instant
TTC would class every comfortable nominal overtake as D, contradicting the
intended "least aggressive profile that attains zone C" selection.
"""

from __future__ import annotations

import csv
import io

from .models import (DrivingProfile, ManoeuvreGeometry, ModelError,
                     manoeuvre_time, safe_distance_ahead, ttc)
from .record import Record


class ZoneThresholds(Record):
    __slots__ = _fields = ("safety_margin_fraction", "ttc_conservative")
    _defaults = {"safety_margin_fraction": 0.1, "ttc_conservative": 2.5}

    def __post_init__(self):
        if not self.safety_margin_fraction >= 0.0:     # NaN too
            raise ModelError(f"safety margin fraction must be >= 0, got "
                             f"{self.safety_margin_fraction}")
        if not self.ttc_conservative >= 0.0:
            raise ModelError(f"ttc limit must be >= 0, got "
                             f"{self.ttc_conservative}")


DEFAULT_THRESHOLDS = ZoneThresholds()


def classify(da: float, sda: float, ttc_s: float,
             thresholds: ZoneThresholds = DEFAULT_THRESHOLDS) -> str:
    """Zone letter for one observation."""
    if sda <= 0.0:
        raise ModelError(f"sda must be > 0, got {sda}")
    if da <= sda:
        return "A"
    if da <= sda * (1.0 + thresholds.safety_margin_fraction):
        return "B"
    if ttc_s > thresholds.ttc_conservative:
        return "D"
    return "C"


class ProfileSelection(Record):
    __slots__ = _fields = ("profile", "zone")


def residual_ttc(da: float, geom: ManoeuvreGeometry,
                 profile: DrivingProfile) -> float:
    """TTC remaining when the manoeuvre completes."""
    return ttc(da, geom.v_av + geom.v_ov) - manoeuvre_time(profile, geom)


def optimal_profile(da: float, profiles, geom: ManoeuvreGeometry,
                    thresholds: ZoneThresholds = DEFAULT_THRESHOLDS
                    ) -> ProfileSelection | None:
    """Least aggressive profile that lands in zone C.

    ``profiles`` must be ordered relaxed-to-aggressive.  When no profile
    reaches C but some land in D, the least aggressive of those is
    returned with the D flag; None means even the most aggressive profile
    stays in A or B.
    """
    d_candidate = None
    for profile in profiles:
        sda = safe_distance_ahead(profile, geom)
        zone = classify(da, sda, residual_ttc(da, geom, profile), thresholds)
        if zone == "C":
            return ProfileSelection(profile=profile, zone="C")
        if zone == "D" and d_candidate is None:
            d_candidate = ProfileSelection(profile=profile, zone="D")
    return d_candidate


def zone_report_rows(observations, profile: DrivingProfile,
                     thresholds: ZoneThresholds = DEFAULT_THRESHOLDS):
    """Rows (t, da, sda, ttc, zone) for (t, da, geom) observations."""
    rows = []
    for t, da, geom in observations:
        sda = safe_distance_ahead(profile, geom)
        ttc_s = residual_ttc(da, geom, profile)
        rows.append((t, da, sda, ttc_s,
                     classify(da, sda, ttc_s, thresholds)))
    return rows


def zone_report_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "da", "sda", "ttc", "zone"])
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
