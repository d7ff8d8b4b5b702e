import pytest

from roadcheck.models import MPH_TO_MPS, ModelError, safe_distance_ahead
from roadcheck.zones import (DEFAULT_THRESHOLDS, ZoneThresholds, classify,
                             optimal_profile, residual_ttc, zone_report_csv,
                             zone_report_rows)

V25 = 25 * MPH_TO_MPS


def geom(config, v_av=V25, v_vbp=0.0, v_ov=V25):
    return config.geometry(v_av, v_vbp, v_ov)


class TestClassify:
    def test_collision_row_is_a(self):
        assert classify(35.63, 40.02, 2.0) == "A"

    def test_tie_is_a(self):
        assert classify(40.0, 40.0, 0.5) == "A"

    def test_margin_band_is_b(self):
        assert classify(63.73 * 1.01, 63.73, 2.0,
                        ZoneThresholds(0.1, 2.5)) == "B"

    def test_nominal_safe_is_c(self):
        # ratio 1.199 clears the 10% margin and the ttc is not conservative
        assert classify(76.43, 63.73, 2.0, ZoneThresholds(0.1, 2.5)) == "C"

    def test_large_ttc_is_d(self):
        assert classify(200.0, 63.73, 5.0) == "D"

    @pytest.mark.parametrize("margin, ttc_limit", [
        (float("nan"), 2.5), (0.1, float("nan")), (-0.1, 2.5), (0.1, -1.0)])
    def test_thresholds_rejected(self, margin, ttc_limit):
        with pytest.raises(ModelError):
            ZoneThresholds(margin, ttc_limit)

    def test_invalid_sda(self):
        with pytest.raises(ModelError):
            classify(10.0, 0.0, 1.0)

    def test_monotone_in_da(self):
        order = {z: i for i, z in enumerate(["A", "B", "C", "D"])}
        prev = -1
        for da in [30 + 5 * k for k in range(40)]:
            z = classify(da, 63.73, 2.0)
            assert order[z] >= prev or (z == "C" and prev == order["D"])
            prev = order[z] if z != "D" else prev
        # direct statement: increasing da never moves the result toward A
        zs = [classify(da, 63.73, 1.0) for da in range(30, 300, 5)]
        first_non_a = next(i for i, z in enumerate(zs) if z != "A")
        assert all(z == "A" for z in zs[:first_non_a])
        assert all(z != "A" for z in zs[first_non_a:])


class TestOptimalProfile:
    def profiles(self, config):
        return [config.profile(n) for n in ("relaxed", "nominal",
                                            "aggressive")]

    def test_safe_gap_selects_nominal(self, config):
        sel = optimal_profile(76.43, self.profiles(config), geom(config))
        assert sel is not None
        assert sel.profile.name == "nominal"
        assert sel.zone == "C"

    def test_collision_gap_selects_none(self, config):
        assert optimal_profile(35.63, self.profiles(config),
                               geom(config)) is None

    def test_far_gap_returns_relaxed_with_d_flag(self, config):
        sel = optimal_profile(1000.0, self.profiles(config), geom(config))
        assert sel is not None
        assert sel.profile.name == "relaxed"
        assert sel.zone == "D"

    def test_never_returns_a_or_b(self, config):
        import random
        rng = random.Random(4)
        profiles = self.profiles(config)
        for _ in range(200):
            da = rng.uniform(20.0, 400.0)
            sel = optimal_profile(da, profiles, geom(config))
            if sel is not None:
                assert sel.zone in ("C", "D")

    def test_zone_a_iff_rule162_fail(self, config):
        # the A boundary is the tie-fails comparison of rule 162
        for profile in self.profiles(config):
            sda = safe_distance_ahead(profile, geom(config))
            for da in (sda - 1.0, sda, sda + 1e-6, sda * 1.5):
                fails = not (da > sda)
                assert (classify(da, sda, 1.0) == "A") == fails


class TestReport:
    def test_rows_and_csv(self, config):
        rows = zone_report_rows([(1.05, 76.43, geom(config))],
                                config.profile("nominal"))
        assert len(rows) == 1
        t, da, sda, ttc_s, zone = rows[0]
        assert da == 76.43
        assert sda == pytest.approx(63.73, abs=0.01)
        assert ttc_s == pytest.approx(
            residual_ttc(76.43, geom(config), config.profile("nominal")))
        assert zone == "C"
        text = zone_report_csv(rows)
        assert text.splitlines()[0] == "t,da,sda,ttc,zone"
        assert text.strip().endswith(",C")
