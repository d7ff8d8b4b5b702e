"""Command-line interface.

Subcommands:

  check     batch-evaluate assertions over a recorded trace
  monitor   evaluate records streamed on stdin, emitting verdicts as they
            become decidable
  gen       write a scenario preset's map/trace fixtures
  estimate  convert detection JSONL into a trace via the pinhole model
  zones     classify the overtake decision point into zones A-D

Exit codes: 0 when every applicable safety assertion passes, 1 when any
safety assertion fails (performance failures are reported but never change
the exit code), 2 for usage or parse errors.
"""

from __future__ import annotations

import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import click

from . import rulepack
from .checker import TypecheckError, compile_text, read_set
from .dsl import ParseError
from .engine import (DebounceFilter, EvalError, EvaluationContext,
                     StreamError, StreamingEngine, debounce, evaluate_document,
                     manoeuvre_at, summary_csv, summary_rows, verdicts_to_jsonl)
from .inputs import UnknownKeysWarning
from .models import ModelError, load_profiles
from .trace import (TraceError, iter_steps, load_trace, read_lines,
                    serialise_trace)
from .worldmap import MapError, load_map, serialise_map


def _die(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


@contextmanager
def _writing(path):
    """Exit 2 naming ``path`` if writing it fails (1 means a safety FAIL)."""
    try:
        yield
    except OSError as exc:
        _die(f"{path}: {exc.strerror or exc}")


def _load_map(map_path):
    try:
        with open(map_path, "rb") as fh:
            return load_map(fh)
    except (OSError, MapError) as exc:
        _die(f"{map_path}: {exc}")


def _load_trace(trace_path, reads=None):
    try:
        with open(trace_path, "rb") as fh:
            return load_trace(fh, reads)
    except (OSError, TraceError) as exc:
        _die(str(exc))


def _load_config(profiles_path, profile_name):
    """The profile config, once the named profile is known to be in it."""
    try:
        config = load_profiles(profiles_path)
    except (OSError, ModelError) as exc:
        _die(f"{profiles_path}: {exc}")
    try:
        config.profile(profile_name)
    except ModelError as exc:
        _die(str(exc))
    return config


def _load_inputs(map_path, rules_paths, profiles_path, profile_name,
                 active_odd, strict_windows, worst_case_speeds):
    """The evaluation context of the shared options, and the assertions."""
    ctx = EvaluationContext(road=_load_map(map_path),
                            config=_load_config(profiles_path, profile_name),
                            profile_name=profile_name,
                            active_odd=frozenset(active_odd),
                            strict_windows=strict_windows,
                            worst_case_speeds=worst_case_speeds)
    assertions = []
    if rules_paths:
        for path in rules_paths:
            try:
                text = Path(path).read_text("utf-8")
                compiled = compile_text(text)
            except (OSError, UnicodeDecodeError, ParseError,
                    TypecheckError) as exc:
                _die(f"{path}: {exc}")
            seen = {a.id for a in assertions}
            for a in compiled:
                if a.id in seen:
                    _die(f"{path}: duplicate assertion id {a.id!r}")
            assertions.extend(compiled)
    else:
        assertions = list(rulepack.load_rulepack())
    return ctx, assertions


def _exit_code(rows, assertions) -> int:
    """1 if a safety assertion's summary row counts a failure, else 0."""
    severity = {a.id: a.decl.severity for a in assertions}
    return int(any(row["fail_count"] and severity.get(
        row["assertion_id"], "safety") == "safety" for row in rows))


@click.group()
@click.pass_context
def main(ctx):
    """Assertion checking of driving traces against highway-code rules."""
    # each warning as one line on stderr, and each of an input's unknown
    # keys however often a process reads it, until the command ends
    ctx.with_resource(warnings.catch_warnings())
    warnings.simplefilter("always", UnknownKeysWarning)
    warnings.showwarning = lambda message, *_: click.echo(
        f"warning: {message}", err=True)


_shared_options = [
    click.option("--map", "map_path", required=True,
                 type=click.Path(exists=True, dir_okay=False),
                 help="Road map JSON."),
    click.option("--rules", "rules_paths", multiple=True,
                 type=click.Path(exists=True, dir_okay=False),
                 help="Assertion file(s); default is the shipped overtaking "
                      "rulepack."),
    click.option("--profiles", "profiles_path", default=None,
                 type=click.Path(exists=True, dir_okay=False),
                 help="Driving-profile config JSON (default: packaged)."),
    click.option("--profile", "profile_name", default="nominal",
                 show_default=True, help="Driving profile used by sda()."),
    click.option("--odd", "active_odd", multiple=True,
                 help="Active ODD tag (repeatable); empty means no filter."),
    click.option("--debounce", "debounce_n", default=1, show_default=True,
                 type=click.IntRange(min=1),
                 help="Publish result changes only after this many "
                      "consecutive steps."),
    click.option("--strict-windows/--lenient-windows", default=True,
                 show_default=True,
                 help="Incomplete pre/post windows fail (strict) or become "
                      "not_applicable (lenient)."),
    click.option("--worst-case-speeds/--measured-speeds", default=False,
                 show_default=True,
                 help="Danger spaces use per-class speed limits instead of "
                      "measured speeds."),
]


def _with_shared(fn):
    for opt in reversed(_shared_options):
        fn = opt(fn)
    return fn


@main.command()
@_with_shared
@click.option("--trace", "trace_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out-jsonl", type=click.Path(dir_okay=False),
              help="Write the verdict stream here.")
@click.option("--out-csv", type=click.Path(dir_okay=False),
              help="Write the per-assertion summary CSV here.")
@click.option("--print-verdicts", is_flag=True,
              help="Also print every verdict to stdout.")
def check(map_path, rules_paths, profiles_path, profile_name, active_odd,
          debounce_n, strict_windows, worst_case_speeds, trace_path,
          out_jsonl, out_csv, print_verdicts):
    """Retrospective analysis of a recorded trace."""
    ctx, assertions = _load_inputs(map_path, rules_paths, profiles_path,
                                   profile_name, active_odd, strict_windows,
                                   worst_case_speeds)
    trace = _load_trace(trace_path, read_set(assertions))
    try:
        verdicts = evaluate_document(assertions, trace, ctx)
    except (EvalError, StreamError) as exc:
        _die(str(exc))
    verdicts = debounce(verdicts, debounce_n)
    rows = summary_rows(verdicts)
    if out_jsonl:
        with _writing(out_jsonl), open(out_jsonl, "w", encoding="utf-8") as fh:
            verdicts_to_jsonl(verdicts, fh)
    if out_csv:
        with _writing(out_csv):
            Path(out_csv).write_text(summary_csv(rows), "utf-8")
    if print_verdicts:
        for v in verdicts:
            click.echo(v.to_json())
    for row in rows:
        if not row["pass_count"] and not row["fail_count"]:
            reasons = ", ".join(sorted(row["na_reasons"]))
            click.echo(f"{row['assertion_id']}: N/A ({reasons})")
            continue
        status = "FAIL" if row["fail_count"] else "PASS"
        first = ("" if row["first_fail_t"] is None
                 else f" first_fail_t={row['first_fail_t']:g}")
        click.echo(f"{row['assertion_id']}: {status} "
                   f"({row['pass_count']} pass, {row['fail_count']} fail)"
                   f"{first}")
    sys.exit(_exit_code(rows, assertions))


@main.command()
@_with_shared
def monitor(map_path, rules_paths, profiles_path, profile_name, active_odd,
            debounce_n, strict_windows, worst_case_speeds):
    """Streaming evaluation of records arriving on stdin (JSON lines)."""
    ctx, assertions = _load_inputs(map_path, rules_paths, profiles_path,
                                   profile_name, active_odd, strict_windows,
                                   worst_case_speeds)
    stream = StreamingEngine(assertions, ctx)
    debouncer = DebounceFilter(debounce_n)
    # the bytes of stdin are decoded as a trace file's, whatever the locale
    lines = (read_lines(sys.stdin.buffer) if hasattr(sys.stdin, "buffer")
             else sys.stdin)

    def publish(verdicts, last=False):
        # one write per verdict line, one flush per step so that downstream
        # pipeline stages see each step's verdicts together
        out = sys.stdout
        for v in verdicts:
            for d in debouncer.feed(v):
                out.write(d.to_json() + "\n")
        for d in debouncer.finish() if last else ():
            out.write(d.to_json() + "\n")
        out.flush()

    try:
        for t, step in iter_steps(lines, read_set(assertions)):
            publish(stream.feed(t, step))
        publish(stream.finish(), last=True)
    except (TraceError, StreamError, EvalError) as exc:
        _die(str(exc))
    sys.exit(0)


@main.command()
@click.argument("preset_name")
@click.option("--out-dir", default=".", show_default=True,
              type=click.Path(file_okay=False))
def gen(preset_name, out_dir):
    """Write a preset scenario's map and trace (plus detections when the
    preset exercises the estimator path)."""
    import json
    from . import perception, scenarios
    from .perception import CameraCalibration
    try:
        spec = scenarios.preset(preset_name)
    except scenarios.InvalidSpecError as exc:
        _die(str(exc))
    road, trace = scenarios.generate(spec)
    files = {f"{preset_name}_map.json": serialise_map(road),
             f"{preset_name}_trace.jsonl": serialise_trace(trace)}
    if spec.occlusion is not None:
        cal = CameraCalibration.from_json(json.dumps(
            {"c": 1200.0, "lane_width_real": spec.lane_width}))
        files[f"{preset_name}_detections.jsonl"] = (
            perception.trace_to_detections(trace, cal))
        files[f"{preset_name}_calibration.json"] = cal.to_json()
    out = Path(out_dir)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        with _writing(out / name):
            (out / name).write_text(text, "utf-8")
    for name in files:
        click.echo(f"wrote {out / name}")


@main.command()
@click.option("--detections", "detections_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--calibration", "calibration_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True,
              type=click.Path(dir_okay=False))
@click.option("--av-speed-mph", default=60.0, show_default=True)
def estimate(detections_path, calibration_path, out_path, av_speed_mph):
    """Convert detection JSONL into a world-frame trace."""
    from . import perception
    from .perception import CameraCalibration, PerceptionError
    try:
        with open(calibration_path, "rb") as fh:
            cal = CameraCalibration.from_json(fh)
        with open(detections_path, "rb") as fh:
            detections, lines = perception.load_detections(fh)
        trace = perception.boxes_to_trace(detections, lines, cal,
                                          av_speed_mph)
    except (OSError, PerceptionError, TraceError) as exc:
        _die(str(exc))
    with _writing(out_path):
        Path(out_path).write_text(serialise_trace(trace), "utf-8")
    click.echo(f"wrote {out_path} ({len(trace)} steps)")


@main.command(name="zones")
@click.option("--map", "map_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--trace", "trace_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--profiles", "profiles_path", default=None,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--profile", "profile_name", default="nominal",
              show_default=True)
@click.option("--margin", default=0.1, show_default=True,
              help="Zone B width as a fraction of SDA.")
@click.option("--ttc-limit", default=2.5, show_default=True,
              help="Zone D boundary in seconds.")
@click.option("--out", "out_path", default=None,
              type=click.Path(dir_okay=False))
def zones_cmd(map_path, trace_path, profiles_path, profile_name, margin,
              ttc_limit, out_path):
    """Zone classification at the overtake decision point."""
    from . import zones as zones_mod
    road = _load_map(map_path)
    rule162 = [rulepack.rule162_sda_assertion()]
    trace = _load_trace(trace_path, read_set(rule162))
    config = _load_config(profiles_path, profile_name)
    ctx = EvaluationContext(road=road, config=config,
                            profile_name=profile_name)
    try:
        verdicts = evaluate_document(rule162, trace, ctx)
    except EvalError as exc:
        _die(str(exc))
    # every rule 162 verdict but reference-never-fired is stamped at a
    # reference time; its measured value is the distance ahead
    decisions = [v for v in verdicts
                 if v.detail.get("reason") != "reference-never-fired"]
    if not decisions:
        _die("the ego never crosses the centre line")
    observations = []
    try:
        for v in decisions:
            t = v.t
            if "measured" not in v.detail:
                if v.detail["reason"] == "actor-not-found":
                    _die(f"no {v.detail['actor'].upper()} at the decision "
                         f"step at t={t}")
                _die(f"decision step at t={t}: {v.detail['error']}")
            # the overtake that the verdict's sda() sized, so it resolves
            geom = manoeuvre_at(trace, trace.times.index(t), ctx)
            observations.append((t, v.detail["measured"], geom))
        thresholds = zones_mod.ZoneThresholds(safety_margin_fraction=margin,
                                              ttc_conservative=ttc_limit)
        rows = zones_mod.zone_report_rows(
            observations, config.profile(profile_name), thresholds)
    except ModelError as exc:
        _die(str(exc))
    text = zones_mod.zone_report_csv(rows)
    if out_path:
        with _writing(out_path):
            Path(out_path).write_text(text, "utf-8")
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text, nl=False)
    sys.exit(0)


if __name__ == "__main__":
    main()
