import io
import json
import math
from pathlib import Path

import pytest

import roadcheck
from roadcheck.models import (MPH_TO_MPS, DrivingProfile, ManoeuvreGeometry,
                              ModelError, OvertakeInfeasibleError,
                              UndefinedTtcError, danger_space_length,
                              default_profiles, load_profiles, manoeuvre_time,
                              mps_to_mph, safe_distance_ahead,
                              stopping_distance, ttc)

PACKAGED = Path(roadcheck.__file__).parent / "data" / "profiles.json"
V25 = 25 * MPH_TO_MPS      # 11.176 m/s exactly
CLOSING = 2 * V25

# published required distances and the stopping distance at 25 mph
SDA_TABLE = {"relaxed": 101.39, "nominal": 63.73, "aggressive": 40.02}
DS25 = 16.658


class TestStoppingDistance:
    def test_20mph(self):
        sd = stopping_distance(20.0)
        assert sd.thinking == pytest.approx(6.000, abs=1e-9)
        assert sd.braking == pytest.approx(5.838, abs=1e-9)
        assert sd.total == pytest.approx(11.838, abs=1e-9)

    def test_25mph(self):
        assert stopping_distance(25.0).total == pytest.approx(16.658, abs=1e-9)

    def test_70mph(self):
        assert stopping_distance(70.0).total == pytest.approx(93.788, abs=1e-9)

    def test_zero_speed_residual(self):
        assert stopping_distance(0.0).total == pytest.approx(0.058, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ModelError):
            stopping_distance(-1.0)

    @pytest.mark.parametrize("v_mph", [math.nan, math.inf, 1e200])
    def test_non_finite_rejected(self, v_mph):
        # 1e200 mph is finite, but its braking distance overflows
        with pytest.raises(ModelError):
            stopping_distance(v_mph)

    def test_strictly_increasing(self):
        prev = stopping_distance(0.0).total
        v = 0.1
        while v <= 70.0 + 1e-9:
            cur = stopping_distance(v).total
            assert cur > prev
            prev = cur
            v += 0.1


class TestDangerSpaceLength:
    def test_matches_stopping_distance(self):
        for v in (0.0, 25.0, 70.0):
            assert danger_space_length(v) == stopping_distance(v).total

    def test_values(self):
        assert danger_space_length(25.0) == pytest.approx(16.658, abs=1e-9)
        assert danger_space_length(0.0) == pytest.approx(0.058, abs=1e-12)
        assert danger_space_length(70.0) == pytest.approx(93.788, abs=1e-9)


def geometry(config, v_av=V25, v_vbp=0.0, v_ov=V25):
    return config.geometry(v_av, v_vbp, v_ov)


class TestManoeuvreTime:
    def test_nominal_back_solved_duration(self, config):
        # oracle: the published nominal requirement back-solves to
        # T = (63.73 - 16.658) / 22.352 at 25 mph all round, stationary VBP
        want = (SDA_TABLE["nominal"] - DS25) / CLOSING
        got = manoeuvre_time(config.profile("nominal"), geometry(config))
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(2.106, abs=1e-3)   # about two seconds

    def test_sharper_and_closer_is_faster(self, config):
        base = config.profile("nominal")
        sharper = DrivingProfile(
            name="custom",
            pull_out_clearance=base.pull_out_clearance / 2,
            pull_out_angle=math.atan(2 * math.tan(base.pull_out_angle)),
            cut_in_clearance=base.cut_in_clearance / 2,
            cut_in_angle=math.atan(2 * math.tan(base.cut_in_angle)))
        assert (manoeuvre_time(sharper, geometry(config))
                < manoeuvre_time(base, geometry(config)))

    def test_no_overtake_when_not_faster(self, config):
        with pytest.raises(OvertakeInfeasibleError):
            geometry(config, v_av=V25, v_vbp=V25)


class TestSafeDistanceAhead:
    @pytest.mark.parametrize("name", sorted(SDA_TABLE))
    def test_reproduces_published_requirements(self, config, name):
        got = safe_distance_ahead(config.profile(name), geometry(config))
        assert got == pytest.approx(SDA_TABLE[name], abs=0.01)

    @pytest.mark.parametrize("name", sorted(SDA_TABLE))
    def test_back_solve_oracle(self, config, name):
        # T = (SDA - DS_OV) / (v_av + v_ov), then forward evaluation must
        # land back on the published value
        t_implied = (SDA_TABLE[name] - DS25) / CLOSING
        profile = config.profile(name)
        assert manoeuvre_time(profile, geometry(config)) == pytest.approx(
            t_implied, abs=1e-6)
        forward = (CLOSING * t_implied
                   + danger_space_length(mps_to_mph(V25)))
        assert forward == pytest.approx(SDA_TABLE[name], abs=1e-9)

    def test_ds_component_uses_ov_speed_in_mph(self, config):
        # the regression operates in mph: the additive component must be
        # exactly the 25 mph stopping distance when v_ov = 11.176 m/s
        profile = config.profile("nominal")
        geom = geometry(config)
        sda = safe_distance_ahead(profile, geom)
        closure = (geom.v_av + geom.v_ov) * manoeuvre_time(profile, geom)
        assert sda - closure == pytest.approx(16.658, abs=1e-9)

    def test_profile_ordering_at_random_speeds(self, config):
        import random
        rng = random.Random(1)
        profiles = [config.profile(n) for n in
                    ("relaxed", "nominal", "aggressive")]
        for _ in range(100):
            v_av = rng.uniform(5, 35) * MPH_TO_MPS
            v_vbp = rng.uniform(0, 0.8) * v_av
            v_ov = rng.uniform(0, 35) * MPH_TO_MPS
            geom = config.geometry(v_av, v_vbp, v_ov)
            sdas = [safe_distance_ahead(p, geom) for p in profiles]
            assert sdas[0] > sdas[1] > sdas[2]

    def test_monotone_in_ov_speed(self, config):
        profile = config.profile("nominal")
        prev = None
        for v_ov in (0.0, 5.0, 10.0, 15.0):
            got = safe_distance_ahead(profile,
                                      geometry(config, v_ov=v_ov * MPH_TO_MPS))
            if prev is not None:
                assert got > prev
            prev = got

    def test_strictly_decreasing_in_each_angle(self, config):
        base = config.profile("nominal")
        geom = geometry(config)
        for field in ("pull_out_angle", "cut_in_angle"):
            prev = None
            for angle in (0.2, 0.3, 0.4, 0.6):
                kw = dict(name="x",
                          pull_out_clearance=base.pull_out_clearance,
                          pull_out_angle=base.pull_out_angle,
                          cut_in_clearance=base.cut_in_clearance,
                          cut_in_angle=base.cut_in_angle)
                kw[field] = angle
                got = safe_distance_ahead(DrivingProfile(**kw), geom)
                if prev is not None:
                    assert got < prev
                prev = got


class TestTtc:
    def test_two_seconds(self):
        assert ttc(44.704, 22.352) == pytest.approx(2.0)

    def test_zero_gap(self):
        assert ttc(0.0, 10.0) == 0.0

    def test_zero_closing_undefined(self):
        with pytest.raises(UndefinedTtcError):
            ttc(10.0, 0.0)


class TestProfiles:
    def test_default_names(self, config):
        assert set(config.profiles) == {"relaxed", "nominal", "aggressive"}

    def test_invariants_enforced(self):
        with pytest.raises(ModelError):
            DrivingProfile("bad", pull_out_clearance=-1.0,
                           pull_out_angle=0.3, cut_in_clearance=1.0,
                           cut_in_angle=0.3)
        with pytest.raises(ModelError):
            DrivingProfile("bad", pull_out_clearance=1.0,
                           pull_out_angle=math.pi / 2, cut_in_clearance=1.0,
                           cut_in_angle=0.3)

    def test_loadable_from_document(self, tmp_path, config):
        import json
        doc = {"profiles": {"custom": {
            "name": "custom", "pull_out_clearance_m": 3.0,
            "pull_out_angle_rad": 0.3, "cut_in_clearance_m": 2.0,
            "cut_in_angle_rad": 0.25}}}
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(doc))
        loaded = load_profiles(path)
        assert loaded.profile("custom").pull_out_clearance == 3.0

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["worst_case_speed_mph"].update(car="fast"),
         "worst_case_speed_mph car must be a number"),
        (lambda d: d["worst_case_speed_mph"].update(car=math.nan),
         "worst_case_speed_mph car must be finite"),
        (lambda d: d["worst_case_speed_mph"].update(car=-5.0),
         "worst_case_speed_mph car must be finite and >= 0"),
        (lambda d: d.update(worst_case_speed_mph=[60.0]),
         "worst_case_speed_mph must be an object"),
        (lambda d: d["role_vehicle_class"].update(VBP="bus"),
         "no worst-case speed for class 'bus'"),
        (lambda d: d["manoeuvre"].update(lateral_offset_m=math.nan),
         "lateral_offset_m must be finite"),
        (lambda d: d["manoeuvre"].update(vbp_length_m=math.inf),
         "vbp_length_m must be finite"),
        (lambda d: d["manoeuvre"].update(lateral_offset_m=0.0),
         "lateral_offset_m must be finite and > 0"),
        (lambda d: d["profiles"]["nominal"].update(
            pull_out_clearance_m=math.nan), "clearances must be"),
        (lambda d: d["profiles"]["nominal"].update(
            cut_in_clearance_m=math.inf), "clearances must be"),
        (lambda d: d["profiles"]["nominal"].update(
            cut_in_clearance_m=10 ** 400), "range of a float"),
        (lambda d: d["worst_case_speed_mph"].update(car=10 ** 400),
         "range of a float"),
    ], ids=["text-speed", "nan-speed", "negative-speed", "speeds-list",
            "class-without-speed", "nan-offset", "infinite-length",
            "zero-offset", "nan-pull-out", "infinite-cut-in",
            "huge-int-clearance", "huge-int-speed"])
    def test_malformed_values_rejected(self, edit, message):
        doc = json.loads(PACKAGED.read_text("utf-8"))
        edit(doc)
        with pytest.raises(ModelError, match=message):
            load_profiles(io.StringIO(json.dumps(doc)))

    def test_unit_conversions_exact(self):
        assert MPH_TO_MPS == 0.44704
        assert mps_to_mph(0.44704) == pytest.approx(1.0, abs=1e-15)
        assert 25.0 * MPH_TO_MPS == pytest.approx(11.176, abs=1e-12)


def test_geometry_invariants(config):
    with pytest.raises(ModelError):
        ManoeuvreGeometry(lateral_offset=0.0, vbp_length=4.4,
                          v_av=10.0, v_vbp=0.0, v_ov=10.0)
    with pytest.raises(ModelError):
        ManoeuvreGeometry(lateral_offset=2.9, vbp_length=4.4,
                          v_av=10.0, v_vbp=0.0, v_ov=-1.0)
