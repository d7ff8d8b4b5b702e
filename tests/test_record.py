import copy
import dataclasses
import math
import pickle

import pytest

from roadcheck.dsl import Expr, Span
from roadcheck.engine import _CONDITION_DETAIL, Verdict
from roadcheck.geometry import BoxDims, ConvexPolygon, Pose2D
from roadcheck.trace import DerivedState
from roadcheck.zones import ZoneThresholds


class TestRecord:
    def test_keywords_and_defaults(self):
        assert ZoneThresholds() == ZoneThresholds(0.1, 2.5)
        assert ZoneThresholds(ttc_conservative=3.0) == ZoneThresholds(0.1, 3.0)
        assert Verdict("a", 0.0, "pass").detail == {}

    def test_own_constructors_keywords_and_defaults(self):
        # Verdict, Pose2D and DerivedState define their own constructors
        assert Verdict(assertion_id="a", t=0.5, result="fail",
                       detail={"x": 1}) == Verdict("a", 0.5, "fail", {"x": 1})
        assert Verdict("a", 0.5, result="pass") == Verdict("a", 0.5, "pass",
                                                           {})
        assert Pose2D(y=2.0, heading=0.5, x=1.0) == Pose2D(1.0, 2.0, 0.5)
        assert Pose2D(1.0, 2.0, heading=7.0).heading == pytest.approx(
            7.0 - math.tau)
        assert DerivedState(3.0, None) == DerivedState(3.0, None, 0.0, 0.0)
        assert DerivedState(speed=3.0, heading_rel_lane=0.1,
                            cut_in_angle=0.2) == DerivedState(3.0, 0.1, 0.0,
                                                              0.2)
        with pytest.raises(TypeError):
            Pose2D(1.0, 2.0)
        with pytest.raises(TypeError):
            DerivedState(1.0, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("args, kwargs, message", [
        ((1.0,), {}, "missing argument 'width'"),
        ((1.0, 2.0, 3.0), {}, "takes 2 arguments, got 3"),
        ((1.0, 2.0), {"height": 3.0}, "unexpected argument 'height'"),
        ((1.0, 2.0), {"length": 3.0}, "unexpected argument 'length'"),
    ], ids=["missing", "too-many", "unknown-keyword", "keyword-twice"])
    def test_bad_arguments(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            BoxDims(*args, **kwargs)

    def test_post_init_runs(self):
        assert Pose2D(0.0, 0.0, 7.0).heading == pytest.approx(7.0 - math.tau)
        with pytest.raises(ValueError, match="finite"):
            Pose2D(float("nan"), 0.0, 0.0)

    def test_equality_type_strict_and_hash_consistent(self):
        assert Pose2D(1.0, 2.0, 0.5) == Pose2D(1.0, 2.0, 0.5)
        assert hash(Pose2D(1.0, 2.0, 0.5)) == hash(Pose2D(1.0, 2.0, 0.5))
        assert Pose2D(1.0, 2.0, 0.5) != Pose2D(1.0, 2.0, 0.25)
        assert BoxDims(1.0, 2.0) != Span(1.0, 2.0)

    def test_compared_fields_only(self):
        a = Expr("number", (), 1.0, Span(1, 1))
        b = Expr("number", (), 1.0, Span(3, 7))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "Expr(op='number', args=(), value=1.0)"

    def test_repr(self):
        assert repr(BoxDims(4.5, 2.0)) == "BoxDims(length=4.5, width=2.0)"

    def test_replace(self):
        v = Verdict("a", 1.0, "fail", {"x": 1})
        w = v.replace(result="pass")
        assert (w.assertion_id, w.t, w.result, w.detail) == ("a", 1.0, "pass",
                                                            {"x": 1})
        assert v.result == "fail"
        with pytest.raises(TypeError, match="unexpected argument 'colour'"):
            v.replace(colour="red")

    def test_frozen(self):
        dims = BoxDims(4.5, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            dims.length = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del dims.length
        poly = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            poly.vertices = ()
        assert poly.area == 0.5

    @pytest.mark.parametrize("value", [
        Pose2D(1.0, 2.0, 0.5), BoxDims(4.5, 2.0), Span(3, 4),
        ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),
        Expr("+", (Expr("number", (), 1.0), Expr("name", (), "x")), None),
        Verdict("a", 1.5, "fail", {"measured": 2.0}),
        DerivedState(3.0, -0.25, 0.1, 0.0), DerivedState(3.0, None),
        # the shared, read-only details
        Verdict("a", 0.0, "pass"), Verdict("a", 0.5, "pass",
                                           _CONDITION_DETAIL[1])])
    def test_copy_and_pickle(self, value):
        for again in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert again == value and again is not value
            if isinstance(value, Verdict):
                assert again.to_json() == value.to_json()
