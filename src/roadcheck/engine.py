"""Taxonomy-typed assertion engine.

Four assertion kinds are evaluated against traces:

  * invariant          -- condition checked at every timestep
  * execution          -- condition checked at each reference point
  * pre/post temporal  -- condition must hold at every step of a window
                          before/after the reference point
  * pre/post physical  -- condition checked at the single step nearest a
                          fixed offset before/after the reference point

Reference points are the steps where the reference expression holds;
``mode: first`` (the default) keeps only the earliest.  A window's far end
lies ``window`` before (pre) or after (post) the reference point, as in
the bounded past and future operators of Maler & Nickovic (FORMATS 2004).
A temporal window covers the steps strictly past the reference point up
to and including the far end and ends at its first failure; a physical
window checks the step nearest the far end.  A window that the trace does
not reach, failing nowhere, yields a FAIL with reason "insufficient-data"
under strict window semantics and a not_applicable verdict under lenient
semantics.

There is one evaluator, the streaming engine, which emits each verdict as
soon as it is decidable; batch evaluation is that engine run to the end of
a recorded trace, so the two produce identical verdict multisets over the
same records.

Evaluation is incremental (Donze, Ferrere & Maler, "Efficient Robust
Monitoring for STL", CAV 2013): a step's condition value does not depend on
the reference point, so each temporal condition is evaluated at most once
per step, however many windows cover that step, and the verdict is kept on
the buffered step for the windows that reach it later.

Each assertion's condition and reference are compiled once per engine
into a tree of closures (Feeley & Lapalme, "Using Closures for Code
Generation", Computer Languages 12(1), 1987), hash-consed (Filliatre &
Conchon, "Type-Safe Modular Hash-Consing", ML Workshop 2006): a node's
closure is looked up by one key, its op, its value and its operands'
closures, so that equal subtrees share one closure and no subtree is
hashed.  Each step is decided from a plan built once with them: per
assertion its id, invariant and ``mode: first`` flags, window, kind,
condition and reference.  Expressions are evaluated against the
``_BufferedStep`` holding the timestep: a builtin call goes to its method
of the same name; a role lookup or derived state that exists is read
without raising.  While a step is processed, one memo on it holds its
shapes and its references' results, each computed once whichever
assertions read it.  A plain condition's verdict without low-confidence
actors shares one of two read-only details, ``{"condition":
true|false}``, a verdict of a missing actor that actor's one read-only
detail, and a verdict built without a detail an empty one; code adding to
a detail copies it first.  The JSON text of each shared detail is encoded
once, when it is made, and a verdict line that carries one copies it in.

Comparisons are encoded per rule with explicit <, <=, >, >=: a rule that
must fail on ties uses the strict operator.  A comparison with an
infinite or NaN operand is an evaluation error, as a division by zero is.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
from bisect import bisect_left
from collections import deque
from types import MappingProxyType

from .checker import REGISTRY, SDA_ROLES, CompiledAssertion
from .geometry import GeometryError, danger_space
from .geometry import min_distance as poly_min_distance, overlaps as poly_overlaps
from .geometry import overlap_area as poly_overlap_area
from .models import ModelConfig, ModelError, default_profiles, mps_to_mph
from .models import danger_space_length as model_ds_length
from .models import safe_distance_ahead
from .trace import ActorState, Trace, derive_row, role_index
from .worldmap import crosses_centreline as map_crosses_centreline
from .worldmap import OffRoadError, lane_orientation_at, within
from .geometry import projection_interval
from .record import Record

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not_applicable"

_T_EPS = 1e-9

_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_isfinite = math.isfinite
_encode = json.JSONEncoder(sort_keys=True).encode
_encode_str = json.encoder.encode_basestring_ascii
_quote = functools.cache(_encode)    # for ids, results and keys, not data
_CONDITION_DETAIL = (MappingProxyType({"condition": False}),    # shared
                     MappingProxyType({"condition": True}))
_NO_DETAIL = MappingProxyType({})   # shared, read-only
_SHARED_TEXT = {id(d): _encode(dict(d))     # by identity, encoded once
                for d in (*_CONDITION_DETAIL, _NO_DETAIL)}


@functools.cache
def _missing_detail(actor: str) -> MappingProxyType:
    """The one read-only actor-not-found detail of ``actor``."""
    detail = MappingProxyType({"reason": "actor-not-found", "actor": actor})
    _SHARED_TEXT[id(detail)] = _encode(dict(detail))
    return detail


class ActorNotFound(LookupError):
    """An actor reference does not resolve at the current step."""


class EvalError(ValueError):
    """Expression evaluation failed for a non-missing-actor reason."""


class StreamError(ValueError):
    """Record stream violated ordering or framing rules."""


class Verdict(Record):
    __slots__ = _fields = ("assertion_id", "t", "result", "detail")

    def __init__(self, assertion_id, t, result, detail=_NO_DETAIL):
        _set_id(self, assertion_id)
        _set_t(self, t)
        _set_result(self, result)
        _set_detail(self, detail)

    def to_json(self) -> str:
        """``json.dumps`` of the four fields with sorted keys, written out."""
        t, detail = self.t, self.detail
        t = (float.__repr__(t) if type(t) is float and _isfinite(t)
             else _encode(t))
        detail = _SHARED_TEXT.get(id(detail)) or _encode_detail(detail)
        return (f'{{"assertion_id": {_quote(self.assertion_id)}, '
                f'"detail": {detail}, '
                f'"result": {_quote(self.result)}, "t": {t}}}')

    def __reduce__(self):
        """As a record's, with a shared, read-only detail copied as a dict,
        which copies and pickles."""
        detail = self.detail
        if type(detail) is MappingProxyType:
            detail = dict(detail)
        return Verdict, (self.assertion_id, self.t, self.result, detail)


_set_id, _set_t, _set_result, _set_detail = Verdict._setters


def _encode_detail(detail: dict) -> str:
    """``_encode(detail)``, written directly for str keys and plain values."""
    parts = []
    for key, value in sorted(detail.items()):
        kind = type(value)
        if type(key) is not str:
            return _encode(detail)
        if kind is str:
            value = _encode_str(value)
        elif kind is bool:
            value = "true" if value else "false"
        elif kind is not int and (kind is not float or not _isfinite(value)):
            return _encode(detail)
        parts.append(f"{_quote(key)}: {value}")    # ints and floats: repr
    return "{" + ", ".join(parts) + "}"


class EvaluationContext(Record):
    """Shared immutable evaluation configuration; ``config`` defaults to
    the packaged profiles."""

    __slots__ = _fields = ("road", "config", "profile_name", "active_odd",
                           "strict_windows", "worst_case_speeds")
    _defaults = {"config": None, "profile_name": None,
                 "active_odd": frozenset(), "strict_windows": True,
                 "worst_case_speeds": False}

    def __post_init__(self):
        if self.config is None:
            object.__setattr__(self, "config", default_profiles())

    def applicable(self, assertion: CompiledAssertion) -> bool:
        tags = frozenset(assertion.decl.odd_tags)
        return (not tags or not self.active_odd
                or bool(tags & self.active_odd))


class _BufferedStep:
    """One timestep held by the engine, and what its expressions are
    evaluated against: each name in ``checker.REGISTRY`` is the method of
    the same name, taking the evaluated arguments.

    Keeps the neighbouring steps' records next to its own, so that
    dynamics can be derived on demand, once per actor, whenever a rule
    first reads them (also after the predecessor has been pruned), a
    role index built on the first role lookup, and the temporal condition
    verdicts held for the windows that cover this step.  Geometry, model
    and map functions are called through this module's names, looked up at
    call time, so that a tracer can rebind them.
    """

    __slots__ = ("ctx", "t", "step", "prev", "nxt", "derived", "roles",
                 "held", "memo", "touched")

    def __init__(self, ctx: EvaluationContext, t: float, step: dict,
                 prev: dict | None):
        self.ctx = ctx
        self.t = t
        self.step = step
        self.prev = prev
        self.nxt: dict | None = None    # set when the next step arrives
        self.derived: dict = {}
        self.roles: dict | None = None
        # assertion position -> None (the condition passed) or its FAIL or
        # NOT_APPLICABLE verdict, for the temporal windows that cover it
        self.held: dict | None = None
        # while the engine processes this step: (kind, actor_id) -> shape
        # and reference closure -> result, shared by its assertions
        self.memo: dict | None = None
        # while a condition is evaluated here: its low-confidence actors' ids
        self.touched: tuple | None = None

    def dynamics(self, aid: str):
        """Derived state of ``aid``; None when it appears at this step only."""
        derived = self.derived
        if aid in derived:
            return derived[aid]
        d = derived[aid] = derive_row(self.prev, self.step, self.nxt,
                                      self.ctx.road, aid)[0]
        return d

    def resolve(self, ref: str) -> ActorState:
        """Actor ``ref`` by id, else by role (any case, smallest id)."""
        st = self.step.get(ref)
        if st is None:
            roles = self.roles
            if roles is None:
                roles = self.roles = role_index(self.step)
            st = roles.get(ref) or roles.get(ref.lower())
            if st is None:
                raise ActorNotFound(ref)
        if st.low_confidence and self.touched is not None:
            self.touched += (st.actor_id,)
        return st

    def time(self) -> float:
        return self.t

    def speed_of(self, st: ActorState) -> float:
        d = self.dynamics(st.actor_id)
        if d is not None:
            return d.speed
        if st.speed is not None:
            return st.speed
        raise EvalError(f"speed of {st.actor_id!r} is unavailable")

    def _shape(self, kind: str, st: ActorState, make):
        memo = self.memo
        key = (kind, st.actor_id)
        if memo is not None and key in memo:
            return memo[key]
        try:
            shape = make(st)
        except GeometryError as exc:
            # e.g. corners that collapse at coordinates too large to resolve
            raise EvalError(f"{kind} of {st.actor_id!r}: {exc}") from exc
        if memo is not None:
            memo[key] = shape
        return shape

    def box_of(self, st: ActorState):
        return self._shape("box", st, ActorState.box)

    def danger_space_of(self, st: ActorState):
        return self._shape("danger_space", st, self._danger_space)

    def overlaps(self, a, b) -> bool:
        return poly_overlaps(a, b)

    def min_distance(self, a, b) -> float:
        return poly_min_distance(a, b)

    def overlap_area(self, a, b) -> float:
        return poly_overlap_area(a, b)

    def crosses_centreline(self, st: ActorState) -> bool:
        return map_crosses_centreline(self.ctx.road, self.box_of(st))

    def danger_space_length(self, v: float) -> float:
        return _ds_length(mps_to_mph(v))

    def _danger_space(self, st: ActorState):
        if self.ctx.worst_case_speeds:
            v_mph = self.ctx.config.worst_case_mph(st.role)
        else:
            v_mph = mps_to_mph(self.speed_of(st))
        return danger_space(st.pose, st.dims, _ds_length(v_mph))

    def manoeuvre(self):
        """The overtake sda() sizes: av, vbp (0 if none) and ov speeds."""
        av, ov = map(self.resolve, SDA_ROLES[:2])
        try:
            v_vbp = self.speed_of(self.resolve(SDA_ROLES[2]))
        except ActorNotFound:
            v_vbp = 0.0
        return self.ctx.config.geometry(self.speed_of(av), v_vbp,
                                        self.speed_of(ov))

    def sda(self) -> float:
        if self.ctx.profile_name is None:
            raise EvalError("sda() needs a configured driving profile")
        profile = self.ctx.config.profile(self.ctx.profile_name)
        try:
            return safe_distance_ahead(profile, self.manoeuvre())
        except ModelError as exc:
            # e.g. a passed vehicle faster than the ego: no overtake to size
            raise EvalError(str(exc)) from exc

    def distance_ahead(self, a: ActorState, b: ActorState) -> float:
        try:
            axis = lane_orientation_at(self.ctx.road, (a.pose.x, a.pose.y))
        except OffRoadError as exc:
            raise EvalError(f"{a.actor_id!r} is off-road") from exc
        a_lo, a_hi = projection_interval(self.box_of(a), axis)
        b_lo, b_hi = projection_interval(self.box_of(b), axis)
        return max(0.0, b_lo - a_hi, a_lo - b_hi)

    def within_lane(self, st: ActorState) -> bool:
        return within(self.ctx.road, self.box_of(st))

    def heading_rel_lane(self, st: ActorState) -> float:
        d = self.dynamics(st.actor_id)
        if d is not None and d.heading_rel_lane is not None:
            return d.heading_rel_lane
        raise EvalError(f"{st.actor_id!r} has no lane-relative heading "
                        f"(off-road?)")


# a declared builtin without a _BufferedStep method fails here, at import
_BUILTINS = {name: getattr(_BufferedStep, name) for name in REGISTRY}


def _ds_length(v_mph: float) -> float:
    try:
        return model_ds_length(v_mph)
    except ModelError as exc:
        # e.g. a negative recorded speed
        raise EvalError(str(exc)) from exc


def _compile(node, memo: dict):
    """``node`` as a closure ``at -> value``, hash-consed in ``memo`` by
    its op, its value and its children's closures: equal subtrees (spans
    aside) share one closure, and no subtree is hashed."""
    key = (node.op, node.value, *[_compile(a, memo) for a in node.args])
    if key not in memo:
        memo[key] = _compile_node(*key)
    return memo[key]


def _compile_node(op, value, *children):
    if op in ("number", "duration", "bool"):
        return lambda at: value
    if op == "string":
        return operator.methodcaller("resolve", value)
    if op == "name":    # a name that typecheck did not resolve
        raise EvalError(f"cannot evaluate the name {value!r}")
    if op == "call":
        fn = _BUILTINS[value]
        if not children:
            return fn
        if len(children) == 1:
            (arg,) = children
            return lambda at: fn(at, arg(at))
        first, second = children
        return lambda at: fn(at, first(at), second(at))
    if op == "not":
        (operand,) = children
        return lambda at: not operand(at)
    if op == "neg":
        (operand,) = children
        return lambda at: -operand(at)
    if op in _COMPARE:
        operands, compare = _operands(*children, op), _COMPARE[op]
        return lambda at: compare(*operands(at))
    left, right = children
    if op == "and":
        return lambda at: left(at) and right(at)
    if op == "or":
        return lambda at: left(at) or right(at)
    if op == "/":
        def divide(at):
            dividend, divisor = left(at), right(at)
            if divisor == 0:
                raise EvalError("division by zero")
            return dividend / divisor
        return divide
    arithmetic = _ARITHMETIC[op]
    return lambda at: arithmetic(left(at), right(at))


def _operands(left, right, op: str):
    """A comparison's compiled operands as a closure ``at -> (left,
    right)``; an operand that is not finite is an evaluation error."""
    def operands(at):
        a, b = left(at), right(at)
        if _isfinite(a) and _isfinite(b):
            return a, b
        raise EvalError(f"non-finite operand in comparison: {a!r} {op} {b!r}")
    return operands


def _compile_condition(node, memo: dict):
    """``(fn, op)``: a top-level comparison's operands closure and its
    operator, whose operands are the verdict's diagnostics; otherwise the
    condition's closure and None."""
    if node.op in _COMPARE:
        left, right = node.args
        return _operands(_compile(left, memo), _compile(right, memo),
                         node.op), node.op
    return _compile(node, memo), None


def _condition_verdict(aid: str, condition, at: _BufferedStep,
                       t: float) -> Verdict:
    """Evaluate the compiled condition of assertion ``aid`` at step ``at``
    and build the verdict; ``condition`` is ``(fn, op, on_missing)``."""
    at.touched = ()     # collects the low-confidence actors that it reads
    fn, op, on_missing = condition
    try:
        if op is None:
            ok = bool(fn(at))
        else:
            measured, threshold = fn(at)
            ok = _COMPARE[op](measured, threshold)
    except ActorNotFound as exc:
        # the on_missing policies are spelled as the results they give
        return Verdict(aid, t, on_missing, _missing_detail(exc.args[0]))
    except EvalError as exc:
        return Verdict(aid, t, FAIL, {"reason": "evaluation-error",
                                      "error": str(exc)})
    finally:
        low_conf, at.touched = at.touched, None
    if op is None and not low_conf:
        return Verdict(aid, t, PASS if ok else FAIL, _CONDITION_DETAIL[ok])
    detail = ({"condition": ok} if op is None else
              {"measured": measured, "threshold": threshold, "op": op})
    if low_conf:
        detail["low_confidence_actors"] = sorted(set(low_conf))
    return Verdict(aid, t, PASS if ok else FAIL, detail)


def _reference_holds(aid: str, reference, at: _BufferedStep) -> bool:
    """A reference of assertion ``aid`` with a missing actor simply does
    not fire."""
    try:
        return bool(reference(at))
    except ActorNotFound:
        return False
    except EvalError as exc:
        raise EvalError(f"reference of {aid!r} at t={at.t}: "
                        f"{exc}") from exc


def nearest_index(times, target: float) -> int:
    """Index of the timestep nearest to ``target``; ties go earlier."""
    i = bisect_left(times, target)
    if i <= 0:
        return 0
    if i >= len(times):
        return len(times) - 1
    before, after = times[i - 1], times[i]
    return i - 1 if target - before <= after - target else i


def manoeuvre_at(trace: Trace, k: int, ctx: EvaluationContext):
    """The overtake that sda() sizes at step ``k`` of ``trace``."""
    at = _BufferedStep(ctx, trace.times[k], trace.steps[k],
                       trace.steps[k - 1] if k else None)
    at.nxt = trace.steps[k + 1] if k + 1 < len(trace) else None
    return at.manoeuvre()


def evaluate_document(assertions, trace: Trace,
                      ctx: EvaluationContext) -> list[Verdict]:
    """Evaluate assertions over a complete trace: the streaming engine fed
    every step and then finished.

    Output is deterministically ordered by (t, assertion_id).
    """
    stream = StreamingEngine(assertions, ctx)
    out = []
    for t, step in zip(trace.times, trace.steps):
        out.extend(stream.feed(t, step))
    out.extend(stream.finish())
    _sort(out)
    return out


def _sort(verdicts: list) -> None:
    """Sort by (t, assertion_id) in two stable passes, with no key tuples."""
    verdicts.sort(key=operator.attrgetter("assertion_id"))
    verdicts.sort(key=operator.attrgetter("t"))


# --- streaming evaluation ---------------------------------------------------

class _Window:
    """A windowed assertion's window at reference time ``t_ref``."""

    __slots__ = ("aid", "condition", "pos", "t_ref", "far", "temporal",
                 "checked")

    def __init__(self, aid, condition, pos, t_ref, far, temporal):
        self.aid = aid
        self.condition = condition      # as in StreamingEngine._plan
        self.pos = pos          # in StreamingEngine._plan
        self.t_ref = t_ref
        self.far = far
        self.temporal = temporal
        self.checked = 0        # steps of a temporal window that held


class StreamingEngine:
    """Incremental evaluator with bounded history.

    Feed one timestep at a time; verdicts come back as soon as they are
    decidable.  Derived dynamics need one future step, so step k is
    evaluated when step k+1 arrives; ``finish()`` flushes the final step
    and resolves still-open windows.  Retained history is bounded by the
    largest pre-window/offset among the assertions.
    """

    def __init__(self, assertions, ctx: EvaluationContext):
        assertions = list(assertions)
        self.ctx = ctx
        # ODD applicability is fixed per run; keep the original order
        active = [a for a in assertions if ctx.applicable(a)]
        self._excluded = [a for a in assertions if not ctx.applicable(a)]
        # the plan: per active assertion, what a step reads of it, with
        # each expression compiled once; equal references share one
        # closure and are evaluated once per step
        memo: dict = {}
        self._plan = [(a.id, a.decl.kind == "invariant",
                       a.decl.mode == "first", a.decl.window, a.decl.kind,
                       (*_compile_condition(a.condition, memo),
                        a.decl.on_missing),
                       None if a.reference is None
                       else _compile(a.reference, memo)) for a in active]
        self._lookback = max((a.decl.window for a in active
                              if a.decl.kind.startswith("pre_")), default=0.0)
        self._buffer: deque = deque()   # of _BufferedStep
        self._first_t: float | None = None
        self._last_fed: float | None = None
        self._fired: set = set()         # ids whose reference has fired
        self._open: list[_Window] = []   # post windows, in opening order
        self._finished = False

    # -- public API --

    def feed(self, t: float, records: dict) -> list[Verdict]:
        """Take the step ``records`` ({actor_id: ActorState}, kept as given:
        only actors that no rule resolves at it may join it before the next
        step is fed, as ``trace.iter_steps`` adds them) at time ``t``."""
        if self._finished:
            raise StreamError("stream already finished")
        if self._last_fed is not None and t <= self._last_fed + _T_EPS:
            raise StreamError(f"time regression: {t} after {self._last_fed}")
        self._last_fed = t
        out = []
        if self._first_t is None:
            self._first_t = t
            for a in self._excluded:
                out.append(Verdict(a.id, t, NOT_APPLICABLE,
                                   {"reason": "odd-excluded",
                                    "active_odd": sorted(self.ctx.active_odd)}))
        buf = self._buffer
        if buf:
            buf[-1].nxt = records
        buf.append(_BufferedStep(self.ctx, t, records,
                                 buf[-1].step if buf else None))
        if len(buf) >= 2:
            out.extend(self._process(len(buf) - 2))
        self._prune()
        return out

    def finish(self) -> list[Verdict]:
        if self._finished:
            return []
        self._finished = True
        if not self._buffer:
            return []
        out = self._process(len(self._buffer) - 1)
        # the trace ends short of the post windows still open
        out.extend(self._close(w) for w in self._open)
        for aid, invariant, *_ in self._plan:
            if not invariant and aid not in self._fired:
                out.append(Verdict(aid, self._last_fed, NOT_APPLICABLE,
                                   {"reason": "reference-never-fired"}))
        return out

    @property
    def buffered_steps(self) -> int:
        return len(self._buffer)

    # -- internals --

    def _prune(self):
        """Drop history the next step cannot reach: keep the last step at or
        before its largest lookback, and 3 steps for derived dynamics."""
        buf = self._buffer
        horizon = buf[-1].t - self._lookback + _T_EPS
        while len(buf) > 3 and buf[1].t <= horizon:
            buf.popleft()

    def _process(self, idx: int) -> list[Verdict]:
        at = self._buffer[idx]
        t = at.t
        # the assertions of this step share its shapes and reference
        # results; older steps evaluated for windows build their own
        memo = at.memo = {}

        # open post windows see this step before any window opens at it
        out = self._advance(at) if self._open else []
        fired = self._fired
        for pos, (aid, invariant, first, window, kind, condition,
                  ref) in enumerate(self._plan):
            if not invariant:
                if first and aid in fired:
                    continue
                holds = memo.get(ref)
                if holds is None:
                    holds = memo[ref] = _reference_holds(aid, ref, at)
                if not holds:
                    continue
                fired.add(aid)
            if window is None:      # an invariant or execution assertion
                out.append(_condition_verdict(aid, condition, at, t))
                continue
            pre = kind.startswith("pre_")
            far = t - window if pre else t + window
            w = _Window(aid, condition, pos, t, far,
                        kind.endswith("temporal"))
            if pre:
                out.append(self._decide_pre(w))
            else:
                self._open.append(w)
        at.memo = None
        return out

    def _decide_pre(self, w: _Window) -> Verdict:
        """A pre window, decided from the buffer: a temporal one walks the
        steps from its far end up to t_ref."""
        reached = w.far >= self._first_t - _T_EPS
        if not w.temporal:
            return self._nearest(w) if reached else self._close(w)
        for at in self._buffer:
            if at.t >= w.t_ref - _T_EPS:
                break
            if at.t >= w.far - _T_EPS:
                v = self._held_condition(w, at)
                if v is not None:
                    return self._close(w, at.t, v)
                w.checked += 1
        return self._close(w, w.t_ref if reached else None)

    def _advance(self, at: _BufferedStep) -> list[Verdict]:
        """Advance the open post windows over step ``at`` and close those
        that fail at it or whose far end it reaches."""
        t = at.t
        out, still_open = [], []
        for w in self._open:
            if w.temporal and t <= w.far + _T_EPS:
                v = self._held_condition(w, at)
                if v is not None:
                    out.append(self._close(w, t, v))
                    continue
                w.checked += 1
            if t < w.far - _T_EPS:
                still_open.append(w)
            elif w.temporal:
                out.append(self._close(w, t))
            else:
                out.append(self._nearest(w))
        self._open = still_open
        return out

    def _nearest(self, w: _Window) -> Verdict:
        """A physical window's verdict: the condition at the buffered step
        nearest its far end."""
        buf = self._buffer
        at = buf[nearest_index([b.t for b in buf], w.far)]
        return self._close(w, at.t, _condition_verdict(
            w.aid, w.condition, at, w.t_ref))

    def _held_condition(self, w: _Window, at: _BufferedStep) -> Verdict | None:
        """The condition verdict of ``w``'s assertion at step ``at``,
        evaluated once and held for every window that covers the step: None
        when it passed, else the FAIL or NOT_APPLICABLE verdict."""
        held = at.held
        if held is None:    # most steps are covered by no temporal window
            held = at.held = {}
        elif w.pos in held:
            return held[w.pos]
        v = _condition_verdict(w.aid, w.condition, at, at.t)
        v = held[w.pos] = None if v.result == PASS else v
        return v

    def _close(self, w: _Window, t: float | None = None,
               v: Verdict | None = None) -> Verdict:
        """The verdict of window ``w``, decided at step ``t``; None when
        the trace does not reach its far end.  ``v`` is the condition
        verdict at ``t``: a temporal window's first held failure (None when
        every step held), or a physical window's step nearest ``far``."""
        if t is None:
            result = FAIL if self.ctx.strict_windows else NOT_APPLICABLE
            detail = {"reason": "insufficient-data"}
        elif v is None:
            result, detail = PASS, {"steps_checked": w.checked}
        else:
            result, detail = v.result, dict(v.detail)
            if not w.temporal:
                detail["checked_t"] = t
            elif result == FAIL:
                detail["violated_t"] = t
        return Verdict(w.aid, w.t_ref, result, detail)


# --- debounce ---------------------------------------------------------------

class DebounceFilter:
    """Suppresses result flicker shorter than ``n`` consecutive steps, per
    assertion id.

    An assertion's published state changes only once a new result has
    persisted for n of its verdicts; the change is then published
    retroactively from the first verdict of the qualifying run, so
    debouncing is idempotent and n=1 is the identity.  Feed each
    assertion's verdicts in time order.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"debounce depth must be >= 1, got {n}")
        self.n = n
        self._runs: dict = {}   # assertion id -> [published result, pending]

    def feed(self, v: Verdict) -> list[Verdict]:
        if self.n == 1:
            return [v]
        run = self._runs.setdefault(v.assertion_id, [v.result, []])
        published, pending = run
        flushed = []
        if pending and pending[0].result != v.result:
            # the run ended short of n: published as it was
            flushed = [_suppressed(p, published) for p in pending]
            pending = run[1] = []
        if v.result == published:
            return flushed + [v]
        pending.append(v)
        if len(pending) < self.n:
            return flushed
        run[:] = [v.result, []]
        return flushed + pending

    def finish(self) -> list[Verdict]:
        """The pending verdicts, published as their assertions were."""
        out = []
        for run in self._runs.values():
            out.extend(_suppressed(p, run[0]) for p in run[1])
            run[1] = []
        return out


def _suppressed(v: Verdict, published: str) -> Verdict:
    detail = dict(v.detail)
    detail["debounced_from"] = v.result
    return v.replace(result=published, detail=detail)


def debounce(verdicts, n: int) -> list[Verdict]:
    """Debounce a list sorted by (t, assertion_id), per assertion id."""
    if n == 1:
        return list(verdicts)
    filt = DebounceFilter(n)
    out = [d for v in verdicts for d in filt.feed(v)]
    out.extend(filt.finish())
    _sort(out)
    return out


# --- output -----------------------------------------------------------------

def verdicts_to_jsonl(verdicts, fh) -> None:
    """Write each verdict's JSON line to the text file ``fh`` as it is encoded."""
    fh.writelines(v.to_json() + "\n" for v in verdicts)


def summary_rows(verdicts) -> list[dict]:
    """Per-assertion pass/fail counts, the first failing timestamp and the
    set of N/A reasons (a debounced N/A verdict may have none)."""
    agg: dict = {}
    for v in verdicts:
        row = agg.get(v.assertion_id)
        if row is None:     # built once per assertion, not per verdict
            row = agg[v.assertion_id] = {
                "assertion_id": v.assertion_id, "pass_count": 0,
                "fail_count": 0, "first_fail_t": None, "na_reasons": set()}
        if v.result == PASS:
            row["pass_count"] += 1
        elif v.result == FAIL:
            row["fail_count"] += 1
            if row["first_fail_t"] is None or v.t < row["first_fail_t"]:
                row["first_fail_t"] = v.t
        elif "reason" in v.detail:
            row["na_reasons"].add(v.detail["reason"])
    return [agg[k] for k in sorted(agg)]


def summary_csv(rows) -> str:
    """The CSV of ``summary_rows``' rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["assertion_id", "pass_count", "fail_count", "first_fail_t"])
    writer.writerows([r["assertion_id"], r["pass_count"], r["fail_count"],
                      r["first_fail_t"]] for r in rows)     # None: empty
    return buf.getvalue()
