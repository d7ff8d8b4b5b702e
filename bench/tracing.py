"""Per-layer tracing of ``roadcheck check`` and ``roadcheck monitor``.

The program has no timers of its own, so the traced run wraps the calls
into each ``src/roadcheck`` module from outside: every module namespace
that binds a wrapped function gets the wrapper (``engine`` binds
``geometry.overlaps`` as ``poly_overlaps``, for example), and methods are
wrapped on their class.  Spans are kept in memory as
``[group, name, start, end, parent, step]`` and written out at the end;
a span's self time is its duration minus that of its direct children.

The primitive tests a map query makes (point-in-polygon, clipping,
segment tests) are counted but not timed, so a map query's time includes
them.  A hook whose name no longer exists, or that a path should call and
never does, makes the metrics that depend on it ``missing`` rather than 0.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, attribute, group, kind); kind "span" times the call, "count"
# only counts it.  Attributes with a dot are methods of a class.
HOOKS = (
    ("worldmap", "load_map", "setup", "span"),
    ("checker", "compile_text", "setup", "span"),
    ("rulepack", "load_rulepack", "setup", "span"),
    ("models", "load_profiles", "setup", "span"),
    ("trace", "load_trace", "parse", "span"),
    ("trace", "_parse_record", "parse", "span"),
    ("trace", "derive_row", "derive", "span"),
    ("trace", "derive_state", "derived_state", "count"),
    ("worldmap", "lane_orientation_at", "query", "span"),
    ("worldmap", "crosses_centreline", "query", "span"),
    ("worldmap", "lanelets_containing", "query", "span"),
    ("trace", "_nearest_centreline_point", "query", "span"),
    ("geometry", "oriented_box", "kernel", "span"),
    ("geometry", "danger_space", "kernel", "span"),
    ("geometry", "overlaps", "kernel", "span"),
    ("geometry", "min_distance", "kernel", "span"),
    ("geometry", "overlap_area", "kernel", "span"),
    ("geometry", "projection_interval", "kernel", "span"),
    ("geometry", "ConvexPolygon.__post_init__", "polygon", "count"),
    ("models", "safe_distance_ahead", "models", "span"),
    ("models", "danger_space_length", "models", "span"),
    ("engine", "evaluate_document", "engine", "span"),
    ("engine", "StreamingEngine.feed", "engine", "span"),
    ("engine", "StreamingEngine.finish", "engine", "span"),
    ("engine", "Verdict.to_json", "output", "span"),
    ("engine", "verdicts_to_jsonl", "output", "span"),
    ("engine", "summary_rows", "output", "span"),
    ("engine", "summary_csv", "output", "span"),
)
# primitives a map query calls, counted as candidates where worldmap binds them
CANDIDATES = ("_point_in_polygon", "overlap_area", "segment_intersects_polygon")
QUERIES_WITH_CANDIDATES = ("lane_orientation_at", "crosses_centreline",
                           "lanelets_containing")
PAIR_TESTS = ("overlaps", "min_distance", "overlap_area")

# hooks each metric rests on, per path; "*" means both paths
NEEDS = {
    "trace.parse_us_per_step": {"check": ["load_trace"],
                                "monitor": ["_parse_record"]},
    "trace.records_per_step": {"*": ["_parse_record"]},
    "trace.derive_us_per_step": {"*": ["derive_row"]},
    "trace.derived_states_per_step": {"*": ["derive_state"]},
    "worldmap.query_us_per_step": {"*": ["lane_orientation_at",
                                         "crosses_centreline",
                                         "_nearest_centreline_point"]},
    "worldmap.queries_per_step": {"*": ["lane_orientation_at",
                                        "crosses_centreline",
                                        "_nearest_centreline_point"]},
    "worldmap.candidates_per_query": {"*": ["lane_orientation_at",
                                            "crosses_centreline",
                                            "_point_in_polygon",
                                            "segment_intersects_polygon"]},
    "geometry.kernel_us_per_step": {"*": ["oriented_box", "danger_space",
                                          "overlaps", "min_distance",
                                          "projection_interval"]},
    "geometry.polygons_per_step": {"*": ["ConvexPolygon.__post_init__"]},
    "geometry.pair_tests_per_step": {"*": ["overlaps", "min_distance"]},
    "models.us_per_step": {"*": ["safe_distance_ahead", "danger_space_length"]},
    "engine.self_us_per_step": {"check": ["evaluate_document"],
                                "monitor": ["StreamingEngine.feed",
                                            "StreamingEngine.finish"]},
    "engine.verdicts_per_step": {"*": []},
    "engine.output_us_per_step": {"check": ["verdicts_to_jsonl", "summary_csv"],
                                  "monitor": ["Verdict.to_json"]},
    "engine.buffered_steps_max": {"monitor": ["StreamingEngine.buffered_steps"]},
    "cli.self_us_per_step": {"*": []},
}
UNITS = {"records_per_step": "records/step", "derived_states_per_step":
         "states/step", "queries_per_step": "queries/step",
         "candidates_per_query": "tests/query", "polygons_per_step":
         "polygons/step", "pair_tests_per_step": "tests/step",
         "verdicts_per_step": "verdicts/step", "buffered_steps_max": "steps"}
SETUP_METRICS = (("cli.import_ms", "import_s"),
                 ("worldmap.load_ms", "load_map_s"),
                 ("checker.compile_ms", "compile_s"))


def metric_names(path: str) -> list[str]:
    names = [m for m, _ in SETUP_METRICS]
    names += [m for m, needs in NEEDS.items() if "*" in needs or path in needs]
    return [f"{path}.{m}" for m in names + ["tracing.overhead_pct"]]


def unit_of(name: str) -> str:
    tail = name.rsplit(".", 1)[1]
    if tail.endswith("_ms"):
        return "ms"
    if tail.endswith("_pct"):
        return "%"
    return UNITS.get(tail, "us/step")


def _modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "roadcheck" or n.startswith("roadcheck.")) and m is not None]


def wrap_everywhere(module, attr: str, make, undo=None) -> int:
    """Replace every binding of ``module.attr`` in roadcheck's modules with
    ``make(original, binding_module_name)``; returns the bindings replaced.
    ``undo`` collects (owner, name, original) for restoring them."""
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name, None)
        fn = None if cls is None else cls.__dict__.get(meth)
        if fn is None:
            return 0
        targets = [(cls, meth, module.__name__)]
    else:
        fn = getattr(module, attr, None)
        if fn is None:
            return 0
        targets = [(mod, name, mod.__name__) for mod in _modules()
                   for name, value in list(vars(mod).items()) if value is fn]
    for owner, name, where in targets:
        if undo is not None:
            undo.append((owner, name, fn))
        setattr(owner, name, make(fn, where))
    return len(targets)


class _JsonProxy:
    """Stands in for the ``json`` module inside ``roadcheck.cli`` so that
    the monitor's per-record decoding is timed as parsing."""

    def __init__(self, loads):
        self.loads = loads

    def __getattr__(self, name):
        return getattr(json, name)


def _step_of_row(args):
    for state in args[1].values():
        return state.t
    return None


class Tracer:
    """Installs the hooks, records spans and counts, and removes them."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.buffered_max = None
        self.absent: list[str] = []
        self._undo: list = []

    # -- wrappers --

    def span(self, group, name, fn, step_of=None, after=None):
        """``fn`` wrapped to record a span of ``group`` per call."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if step_of is not None:
                step = step_of(args)
            else:
                step = spans[parent][5] if parent >= 0 else None
            rec = [group, name, 0.0, 0.0, parent, step]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                if after is not None:
                    after(args)
        return wrapper

    def _counter(self, key, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            counts[(key, spans[stack[-1]][0] if stack else None)] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _note_buffer(self, args):
        try:
            n = args[0].buffered_steps
        except AttributeError:
            return
        self.buffered_max = n if self.buffered_max is None else max(self.buffered_max, n)

    # -- install / remove --

    def install(self):
        import roadcheck.cli  # noqa: F401  (loads every module the CLI uses)
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in _modules()}
        for mod_name, attr, group, kind in HOOKS:
            module = mods.get(mod_name)
            if module is None or not wrap_everywhere(
                    module, attr, self._maker(attr, group, kind), self._undo):
                self.absent.append(attr)
        worldmap = mods.get("worldmap")
        for name in CANDIDATES:
            fn = getattr(worldmap, name, None)
            if fn is None:
                self.absent.append(name)
            elif name != "overlap_area":      # overlap_area is a hook above
                self._undo.append((worldmap, name, fn))
                setattr(worldmap, name, self._counter(name, fn))
        cls = getattr(mods.get("engine"), "StreamingEngine", None)
        if cls is None or not hasattr(cls, "buffered_steps"):
            self.absent.append("StreamingEngine.buffered_steps")
        cli = mods.get("cli")
        if cli is not None and getattr(cli, "json", None) is json:
            self._undo.append((cli, "json", json))
            cli.json = _JsonProxy(self.span("parse", "json.loads", json.loads))

    def _maker(self, attr, group, kind):
        name = attr.rsplit(".", 1)[-1]

        def make(fn, where):
            if where.endswith(".worldmap") and name in CANDIDATES:
                return self._counter(name, fn)
            if kind == "count":
                return self._counter(attr, fn)
            step_of = after = None
            if name == "derive_row":
                step_of = _step_of_row
            elif attr == "StreamingEngine.feed":
                step_of, after = (lambda a: a[1]), self._note_buffer
            return self.span(group, attr, fn, step_of, after)
        return make

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo = []

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.buffered_max = None

    def called(self) -> set:
        return {s[1] for s in self.spans} | {k for k, _ in self.counts}


def layer_metrics(tracer: Tracer, path: str, steps: int, verdicts: int,
                  scale: float) -> dict:
    """Per-step figures of one traced invocation; times at reference speed.

    ``scale`` converts measured seconds to reference-speed seconds.  A
    figure whose hooks are absent or were never called is None.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for group, _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: Counter = Counter()
    by_name: Counter = Counter()
    pair_tests = 0
    for i, (group, name, start, end, parent, _) in enumerate(spans):
        self_s[group] += (end - start) - child[i]
        by_name[name] += 1
        if (name in PAIR_TESTS
                and (parent < 0 or spans[parent][0] != "kernel")):
            pair_tests += 1
    counts = tracer.counts
    polygons = sum(n for (key, group), n in counts.items()
                   if key == "ConvexPolygon.__post_init__" and group != "setup")
    candidates = sum(n for (key, _), n in counts.items() if key in CANDIDATES)
    queries = sum(by_name[n] for n in ("lane_orientation_at", "crosses_centreline",
                                       "lanelets_containing",
                                       "_nearest_centreline_point"))
    scanned = sum(by_name[n] for n in QUERIES_WITH_CANDIDATES)

    def us(group):
        return self_s[group] * scale * 1e6 / steps

    values = {
        "trace.parse_us_per_step": us("parse"),
        "trace.records_per_step": by_name["_parse_record"] / steps,
        "trace.derive_us_per_step": us("derive"),
        "trace.derived_states_per_step": sum(
            n for (key, _), n in counts.items() if key == "derive_state") / steps,
        "worldmap.query_us_per_step": us("query"),
        "worldmap.queries_per_step": queries / steps,
        "worldmap.candidates_per_query": candidates / scanned if scanned else None,
        "geometry.kernel_us_per_step": us("kernel"),
        "geometry.polygons_per_step": polygons / steps,
        "geometry.pair_tests_per_step": pair_tests / steps,
        "models.us_per_step": us("models"),
        "engine.self_us_per_step": us("engine"),
        "engine.verdicts_per_step": verdicts / steps,
        "engine.output_us_per_step": us("output"),
        "engine.buffered_steps_max": tracer.buffered_max,
        "cli.self_us_per_step": us("cli"),
    }
    called = tracer.called()
    out = {}
    for metric, needs in NEEDS.items():
        hooks = needs.get("*", needs.get(path))
        if hooks is None:
            continue
        gone = [h for h in hooks if h in tracer.absent or
                (h != "StreamingEngine.buffered_steps" and h not in called)]
        out[metric] = None if gone else values[metric]
    return out


def write_spans(tracer: Tracer, path) -> None:
    """Spans as JSON lines: group, name, start, end, parent, step."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in tracer.spans:
            fh.write(json.dumps(rec) + "\n")
