"""Quantitative highway-code models.

Stopping distance follows the Rule 126 regression

    SD(v) = a*v + b + c*v + d*v^2        (v in mph, SD in metres)

with a=0.300, b=0.058, c=-0.011, d=0.015; a*v is the thinking component and
the rest is braking.  The regression operates in mph by construction, so all
callers convert from SI exactly once at this boundary.

The safe-distance-ahead model decomposes an overtake into pull-out, passing
and cut-in phases.  With lateral offset ``L``, clearances ``C_po``/``C_ci``,
passed-vehicle length ``len_vbp`` and steering angles ``beta``/``theta``:

    T  = L / (v_av * tan(beta))
       + (C_po + len_vbp + C_ci) / (v_av - v_vbp)
       + L / (v_av * tan(theta))
    SDA = (v_av + v_ov) * T + SD(v_ov)

The forward speed component is taken as v_av (small steering angles, so
cos of the angle is treated as 1).  The default profile parameters live in
``data/profiles.json`` and are calibrated so the model reproduces the
published required distances for the relaxed, nominal and aggressive
profiles (101.39 m, 63.73 m, 40.02 m at 25 mph all round, stationary VBP).
"""

from __future__ import annotations

import math
from pathlib import Path

from .inputs import (REQUIRED, Schema, anything, mapping, names_to, number,
                     positive, quantity, read_document, string)
from .record import Record

MPH_TO_MPS = 0.44704


def mps_to_mph(v_mps: float) -> float:
    return v_mps / MPH_TO_MPS


class ModelError(ValueError):
    pass


class OvertakeInfeasibleError(ModelError):
    """The AV is not faster than the vehicle being passed."""


class UndefinedTtcError(ModelError):
    """Time to collision is undefined for a non-positive closing speed."""


# Rule 126 regression coefficients a, b, c, d of the module docstring
_SD_A, _SD_B, _SD_C, _SD_D = 0.300, 0.058, -0.011, 0.015


class StoppingDistance(Record):
    __slots__ = _fields = ("thinking", "braking")

    @property
    def total(self) -> float:
        return self.thinking + self.braking


def _stopping(v_mph: float) -> tuple[float, float]:
    """(thinking, braking) distance in metres for a speed in mph."""
    if v_mph < 0.0:
        raise ModelError(f"speed must be >= 0 mph, got {v_mph}")
    braking = _SD_B + _SD_C * v_mph + _SD_D * v_mph * v_mph
    if not math.isfinite(braking):      # a NaN, infinite or huge speed
        raise ModelError(f"stopping distance at {v_mph} mph is not finite")
    return _SD_A * v_mph, braking


def stopping_distance(v_mph: float) -> StoppingDistance:
    """Thinking + braking distance in metres for a speed in mph."""
    return StoppingDistance(*_stopping(v_mph))


def danger_space_length(v_mph: float) -> float:
    """Length of the forward danger space: the stopping distance's total."""
    thinking, braking = _stopping(v_mph)
    return thinking + braking


class DrivingProfile(Record):
    """Overtake urgency: clearances in metres, steering angles in radians."""

    __slots__ = _fields = ("name", "pull_out_clearance", "pull_out_angle",
                           "cut_in_clearance", "cut_in_angle")

    def __post_init__(self):
        for clearance in (self.pull_out_clearance, self.cut_in_clearance):
            if not (math.isfinite(clearance) and clearance >= 0.0):
                raise ModelError(f"profile {self.name!r}: clearances must be "
                                 f"finite and >= 0")
        for ang in (self.pull_out_angle, self.cut_in_angle):
            if not 0.0 < ang < math.pi / 2:
                raise ModelError(
                    f"profile {self.name!r}: angles must lie in (0, pi/2)")


class ManoeuvreGeometry(Record):
    """Kinematic context of one overtake; speeds in m/s."""

    __slots__ = _fields = ("lateral_offset", "vbp_length", "v_av", "v_vbp",
                           "v_ov")

    def __post_init__(self):
        if self.lateral_offset <= 0.0:
            raise ModelError("lateral offset must be > 0")
        if min(self.v_av, self.v_vbp, self.v_ov) < 0.0:
            raise ModelError("speeds must be >= 0")
        if self.v_av <= self.v_vbp:
            raise OvertakeInfeasibleError(
                f"v_av={self.v_av} must exceed v_vbp={self.v_vbp}")


def manoeuvre_time(profile: DrivingProfile, geom: ManoeuvreGeometry) -> float:
    """Total pull-out + passing + cut-in time in seconds."""
    tan_po = math.tan(profile.pull_out_angle)
    tan_ci = math.tan(profile.cut_in_angle)
    if tan_po <= 0.0 or tan_ci <= 0.0:
        raise ModelError("steering angle tangents must be positive")
    t_pull_out = geom.lateral_offset / (geom.v_av * tan_po)
    t_pass = ((profile.pull_out_clearance + geom.vbp_length
               + profile.cut_in_clearance) / (geom.v_av - geom.v_vbp))
    t_cut_in = geom.lateral_offset / (geom.v_av * tan_ci)
    return t_pull_out + t_pass + t_cut_in


def safe_distance_ahead(profile: DrivingProfile,
                        geom: ManoeuvreGeometry) -> float:
    """Required gap to the oncoming vehicle at the start of the overtake.

    Closure during the manoeuvre plus the oncoming vehicle's own danger
    space, evaluated at its measured speed.
    """
    t_total = manoeuvre_time(profile, geom)
    ds_ov = danger_space_length(mps_to_mph(geom.v_ov))
    return (geom.v_av + geom.v_ov) * t_total + ds_ov


def ttc(gap: float, closing_speed: float) -> float:
    """Time to collision: gap over closing speed."""
    if closing_speed <= 0.0:
        raise UndefinedTtcError(
            f"closing speed must be > 0, got {closing_speed}")
    return gap / closing_speed


class ModelConfig(Record):
    """Profiles plus shared manoeuvre geometry and speed assumptions."""

    __slots__ = _fields = ("profiles", "lateral_offset", "vbp_length",
                           "worst_case_speed_mph", "role_vehicle_class")

    def profile(self, name: str) -> DrivingProfile:
        try:
            return self.profiles[name]
        except KeyError:
            raise ModelError(f"unknown driving profile {name!r}; "
                             f"have {sorted(self.profiles)}") from None

    def geometry(self, v_av: float, v_vbp: float, v_ov: float) -> ManoeuvreGeometry:
        return ManoeuvreGeometry(self.lateral_offset, self.vbp_length,
                                 v_av, v_vbp, v_ov)

    def worst_case_mph(self, role: str) -> float:
        cls = self.role_vehicle_class.get(role, "car")
        return self.worst_case_speed_mph[cls]


_CONFIG = Schema("profile config", {
    "profiles": (mapping, REQUIRED),
    "manoeuvre": (mapping, {}),
    "worst_case_speed_mph": (names_to(quantity),
                             {"car": 60.0, "goods_vehicle": 50.0}),
    "role_vehicle_class": (names_to(string),
                           {"AV": "car", "OV": "car", "VBP": "goods_vehicle",
                            "other": "car"}),
})
# a profile's name, any value, shows in messages; by default it is its key
_PROFILE = Schema("profile {!r}", {
    "name": (anything, None),
    "pull_out_clearance_m": (number, REQUIRED),
    "pull_out_angle_rad": (number, REQUIRED),
    "cut_in_clearance_m": (number, REQUIRED),
    "cut_in_angle_rad": (number, REQUIRED),
})
_MANOEUVRE = Schema("manoeuvre", {"lateral_offset_m": (positive, 2.9),
                                  "vbp_length_m": (quantity, 4.4)})


def load_profiles(source=None) -> ModelConfig:
    """Load profile config from a path/file, or the packaged defaults.

    A document that is not a well-formed profile config raises ModelError.
    """
    if source is None:
        source = Path(__file__).parent / "data" / "profiles.json"
    if not hasattr(source, "read"):
        source = Path(source).read_bytes()
    doc = read_document(source, _CONFIG.where, ModelError)
    entries, manoeuvre, speeds, classes = _CONFIG.read(doc, ModelError)
    reported = set()
    profiles = {}
    for key, entry in entries.items():
        name, *values = _PROFILE.read(entry, ModelError, key,
                                      reported=reported)
        profiles[key] = DrivingProfile(key if name is None else name, *values)
    lateral_offset, vbp_length = _MANOEUVRE.read(manoeuvre, ModelError)
    # "car" is the class of a role that role_vehicle_class does not name
    for cls in sorted(set(classes.values()) | {"car"}):
        if cls not in speeds:
            raise ModelError(f"no worst-case speed for class {cls!r}")
    return ModelConfig(profiles, lateral_offset, vbp_length, speeds, classes)


def default_profiles() -> ModelConfig:
    return load_profiles(None)
