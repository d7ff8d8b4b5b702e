"""Write the outputs of roadcheck's commands over a fixed matrix of inputs.

    python tools/outputs.py --src DIR OUT

runs ``python -m roadcheck.cli`` in subprocesses with ``PYTHONPATH=DIR``,
so DIR may be the ``src`` directory of any checkout, and writes into OUT:

* ``gen/``: the files of ``gen`` for the four presets, and ``estimate``'s
  trace from the occlusion preset's detections, with both commands'
  console output and exit codes in ``console/``;
* ``runs/``: for each preset x profile x flag set, ``check``'s JSONL, CSV,
  console and exit code, and ``monitor``'s stdout and exit code, each
  command's stderr too, and ``zones`` for each preset x profile;
* ``rejections/``: malformed inputs made from the ``safe`` and
  ``occlusion_abort`` files in ``inputs/``, one or more per reader, with
  two well-formed traces that only the stdlib decoder of a trace record
  reads, a trace with an integer in a float field of every record, two
  traces with no records (zero bytes and blank lines), two traces with a
  vehicle box that the polygon checks refuse, a map nested as deep as a
  document may and one a level deeper, and, for each reader, an input
  that is well-formed but for one key that it does not read, and the
  stdout, stderr and exit code of every command that reads each one;
* ``workloads/``: the same ``check`` and ``monitor`` outputs, and
  ``zones``, on the four benchmark workloads at seed 7 (nominal profile),
  and ``check`` and ``monitor`` on the ``crowded`` trace with
  ``OTHER_RULES``, which read its ``other`` vehicles by role and one of
  them by id, when ``bench/gen.py`` exists next to this directory.

Two checkouts give the same behaviour on this matrix when ``diff -r`` of
their OUT directories is empty.  Each command runs in the directory of its
inputs and names them by relative paths, so that its output holds no path
that differs between two OUT directories.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRESETS = ("safe", "near_miss", "collision", "occlusion_abort")
PROFILES = ("aggressive", "nominal", "relaxed")
FLAGS = {"plain": (), "worst-case": ("--worst-case-speeds",),
         "debounce-lenient": ("--debounce", "3", "--lenient-windows")}
WORKLOAD_SEED = 7
# rules that read the vehicles that the benchmark's shipped rules do not
OTHER_RULES = """\
assertion other_near_av {
  odd: single_carriageway
  type: invariant
  condition: min_distance(box_of("other"), box_of("av")) < 1665
}

assertion other_speed {
  odd: single_carriageway
  type: invariant
  condition: speed_of("Other") > 11
}

assertion car004_ahead_of_av {
  odd: single_carriageway
  type: invariant
  condition: distance_ahead("av", "car004") > 430
}
"""
# workload case -> (the workload whose map and trace it reads, its rules)
RULE_CASES = {"crowded-other-rules": ("crowded", OTHER_RULES)}


class Runner:
    """Runs the CLI of one source tree and writes what each run gives."""

    def __init__(self, src: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src),
                        PYTHONDONTWRITEBYTECODE="1")

    def run(self, cwd: Path, args, out: Path, stdin: Path | None = None):
        """Run ``roadcheck ARGS`` in ``cwd``; write its stdout, stderr and
        exit code to ``out`` plus ``.out``, ``.err`` and ``.exit``."""
        with open(stdin, "rb") if stdin else open(os.devnull, "rb") as fh:
            res = subprocess.run([sys.executable, "-m", "roadcheck.cli",
                                  *args], cwd=cwd, env=self.env, stdin=fh,
                                 capture_output=True, check=False)
        out.parent.mkdir(parents=True, exist_ok=True)
        for suffix, data in ((".out", res.stdout), (".err", res.stderr),
                             (".exit", b"%d\n" % res.returncode)):
            out.with_name(out.name + suffix).write_bytes(data)

    def check_and_monitor(self, cwd: Path, inputs, out: Path):
        """``check`` and ``monitor`` on ``inputs`` (relative to ``cwd``:
        map, trace and the extra arguments) for each flag set."""
        map_path, trace_path, extra = inputs
        common = ["--map", map_path, *extra]
        for flag_name, flags in FLAGS.items():
            case = out / flag_name
            case.parent.mkdir(parents=True, exist_ok=True)
            self.run(cwd, ["check", *common, *flags, "--trace", trace_path,
                           "--out-jsonl", str(case) + ".jsonl",
                           "--out-csv", str(case) + ".csv"],
                     case.with_name(case.name + ".check"))
            self.run(cwd, ["monitor", *common, *flags],
                     case.with_name(case.name + ".monitor"),
                     stdin=cwd / trace_path)


def _record(index: int, field: str, value=None, text: str | None = None):
    """An edit of JSON-lines text: record ``index``'s ``field`` set to
    ``value``, or to the JSON ``text`` when one is given."""
    def edit(source: str) -> str:
        lines = source.splitlines(keepends=True)
        record = json.loads(lines[index])
        record[field] = None if text is not None else value
        line = json.dumps(record)
        if text is not None:
            line = line.replace(f'"{field}": null', f'"{field}": {text}')
        lines[index] = line + "\n"
        return "".join(lines)
    return edit


def _each_record(field: str, value):
    """An edit of JSON-lines text: every record's ``field`` set."""
    def edit(source: str) -> str:
        return "".join(json.dumps({**json.loads(line), field: value}) + "\n"
                       for line in source.splitlines())
    return edit


def _nested_key(depth: int):
    """An edit of a JSON document: an unknown key whose value nests the
    document ``depth`` deep."""
    def edit(source: str) -> str:
        doc = json.dumps({**json.loads(source), "note": None})
        inner = "[" * (depth - 1) + "]" * (depth - 1)
        return doc.replace('"note": null', f'"note": {inner}')
    return edit


def _swap(i: int, j: int):
    """An edit of JSON-lines text: lines ``i`` and ``j`` swapped."""
    def edit(text: str) -> str:
        lines = text.splitlines(keepends=True)
        lines[i], lines[j] = lines[j], lines[i]
        return "".join(lines)
    return edit


def _document(*path, value, text: str | None = None):
    """An edit of a JSON document, or of ``text`` in place of it: the value
    at ``path`` set."""
    def edit(source: str) -> str:
        doc = json.loads(text or source)
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        return json.dumps(doc)
    return edit


# a profile config with the one profile that the commands use
PROFILE_CONFIG = json.dumps({"profiles": {"nominal": {
    "pull_out_clearance_m": 2.7, "pull_out_angle_rad": 0.4,
    "cut_in_clearance_m": 2.7, "cut_in_angle_rad": 0.4}}})


def _indexed(vertices, pairs: int = 20):
    """An edit of a two-lanelet map along the x axis: each lanelet cut
    across into ``pairs`` pieces and the centre line into as many
    segments, so that the map has more of each than one index node holds,
    and then the fifth piece's vertices set to ``vertices``."""
    def edit(text: str) -> str:
        doc = json.loads(text)
        (x0, _), (x1, _) = doc["centreline"]
        xs = [x0 + (x1 - x0) * j / pairs for j in range(pairs + 1)]
        lanelets = []
        for lanelet in doc["lanelets"]:
            y0, y1 = sorted({y for _, y in lanelet["vertices"]})
            lanelets += [dict(lanelet, id=f"{lanelet['id']}-{j:02d}",
                              vertices=[[a, y0], [b, y0], [b, y1], [a, y1]])
                         for j, (a, b) in enumerate(zip(xs, xs[1:]))]
        lanelets[4]["vertices"] = vertices
        doc["lanelets"] = lanelets
        doc["centreline"] = [[x, 0.0] for x in xs]
        return json.dumps(doc)
    return edit


# (case, file name, the gen/ file it is made from, the edit); a case
# names the kind of input it is first
REJECTIONS = (
    ("trace-text-x", "trace.jsonl", "safe_trace.jsonl",
     _record(4, "x", "12.5")),
    ("trace-out-of-order", "trace.jsonl", "safe_trace.jsonl", _swap(3, 9)),
    # where the two JSON decoders of a trace record part
    ("trace-big-integer-x", "trace.jsonl", "safe_trace.jsonl",
     _record(4, "x", 2 ** 64)),
    ("trace-big-integer-actor-id", "trace.jsonl", "safe_trace.jsonl",
     _record(4, "actor_id", 2 ** 64)),
    ("trace-nan-x", "trace.jsonl", "safe_trace.jsonl",
     _record(4, "x", math.nan)),
    ("trace-nested-unknown-key", "trace.jsonl", "safe_trace.jsonl",
     _record(4, "note", {"a": [1, {"b": None}]})),
    ("trace-deep-actor-id", "trace.jsonl", "safe_trace.jsonl",
     _record(1, "actor_id", text="[" * 982 + "]" * 982)),
    # integers in float fields, which both decoders read alike
    ("trace-integer-heading", "trace.jsonl", "safe_trace.jsonl",
     _each_record("heading_rad", 0)),
    # traces with no records, which check and monitor read alike
    ("trace-empty", "trace.jsonl", None, lambda _: ""),
    ("trace-blank-lines", "trace.jsonl", None, lambda _: "\n  \n\n"),
    # vehicle boxes that the polygon checks refuse: a box too far out for
    # its corners to stay convex, and one too thin for the unchecked build
    ("trace-far-x", "trace.jsonl", "safe_trace.jsonl",
     _record(4, "x", 1e17)),
    ("trace-thin-width", "trace.jsonl", "safe_trace.jsonl",
     _each_record("width_m", 1e-120)),
    ("map-number-direction", "map.json", "safe_map.json",
     _document("lanelets", 0, "direction", value=5)),
    ("map-nan-vertex", "map.json", "safe_map.json",
     _document("lanelets", 0, "vertices",
               value=[[0.0, 0.0], [math.nan, 0.0], [150.0, 3.65],
                      [0.0, 3.65]])),
    # maps that would build both indexes
    ("map-indexed-non-convex", "map.json", "safe_map.json",
     _indexed([[30.0, 0.0], [37.5, 0.0], [32.0, 1.0], [30.0, 3.65]])),
    ("map-indexed-nan-vertex", "map.json", "safe_map.json",
     _indexed([[30.0, 0.0], [math.nan, 0.0], [37.5, 3.65], [30.0, 3.65]])),
    ("map-indexed-string-vertex", "map.json", "safe_map.json",
     _indexed([[30.0, 0.0], ["37.5", 0.0], [37.5, 3.65], [30.0, 3.65]])),
    ("map-int-vertices", "map.json", "safe_map.json",
     _document("lanelets", 0, "vertices", value=5)),
    ("map-unknown-key-513-deep", "map.json", "safe_map.json",
     _nested_key(513)),
    ("profiles-not-json", "profiles.json", None, lambda _: "{profiles\n"),
    ("profiles-list-speeds", "profiles.json", None,
     _document("worst_case_speed_mph", value=[1], text=PROFILE_CONFIG)),
    ("rules-unparsable", "rules.rdl", None, lambda _: "assertion {\n"),
    ("detections-fractional-frame", "detections.jsonl",
     "occlusion_abort_detections.jsonl", _record(318, "frame", 180.7)),
    ("detections-null-class", "detections.jsonl",
     "occlusion_abort_detections.jsonl", _record(319, "class", None)),
    ("calibration-no-c", "calibration.json",
     "occlusion_abort_calibration.json",
     lambda text: json.dumps({k: v for k, v in json.loads(text).items()
                              if k != "c"})),
    # well-formed but for one key that no reader reads
    ("trace-unknown-key", "trace.jsonl", "safe_trace.jsonl",
     _each_record("note", "unread")),
    ("map-unknown-key", "map.json", "safe_map.json",
     _document("note", value="unread")),
    ("map-512-deep-unknown-key", "map.json", "safe_map.json",
     _nested_key(512)),
    ("map-lanelet-unknown-key", "map.json", "safe_map.json",
     _document("lanelets", 0, "note", value="unread")),
    ("profiles-unknown-key", "profiles.json", None,
     _document("note", value="unread", text=PROFILE_CONFIG)),
    ("detections-unknown-key", "detections.jsonl",
     "occlusion_abort_detections.jsonl", _record(319, "note", "unread")),
    ("calibration-unknown-key", "calibration.json",
     "occlusion_abort_calibration.json", _document("note", value="unread")),
)
# the commands that read each kind of input, with the good inputs they need
TRACE_READERS = ("check", "monitor", "zones")
READERS = {"trace": TRACE_READERS, "map": TRACE_READERS,
           "profiles": TRACE_READERS, "rules": ("check", "monitor"),
           "detections": ("estimate",), "calibration": ("estimate",)}


def _reader_args(command: str, kind: str, path: str):
    """``command``'s arguments with ``path`` as its ``kind`` input and the
    good ``gen/`` files as the others, and the file for its stdin."""
    if command == "estimate":
        inputs = {"detections": "gen/occlusion_abort_detections.jsonl",
                  "calibration": "gen/occlusion_abort_calibration.json",
                  kind: path}
        return (["estimate", "--detections", inputs["detections"],
                 "--calibration", inputs["calibration"], "--out", os.devnull],
                None)
    inputs = {"map": "gen/safe_map.json", "trace": "gen/safe_trace.jsonl",
              kind: path}
    args = [command, "--map", inputs["map"]]
    if kind in ("profiles", "rules"):
        args += [f"--{kind}", path]
    if command == "monitor":
        return args, inputs["trace"]
    return args + ["--trace", inputs["trace"]], None


def write_rejections(runner: "Runner", out: Path) -> None:
    """Each of ``REJECTIONS`` through each command that reads it."""
    inputs = out / "rejections" / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for case, name, source, edit in REJECTIONS:
        text = (out / "gen" / source).read_text("utf-8") if source else ""
        path = inputs / f"{case}.{name}"
        path.write_text(edit(text), "utf-8")
        kind = case.split("-", 1)[0]
        for command in READERS[kind]:
            args, stdin = _reader_args(command, kind,
                                       str(path.relative_to(out)))
            runner.run(out, args, out / "rejections" / f"{case}.{command}",
                       stdin=stdin and out / stdin)


def _bench_gen():
    """``bench/gen.py`` loaded by path, or None where there is none."""
    path = ROOT / "bench" / "gen.py"
    if not path.is_file():
        return None
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def write_outputs(src: Path, out: Path, presets=PRESETS, profiles=PROFILES,
                  workloads=None) -> None:
    """The matrix of the roadcheck package in ``src``, written into
    ``out``; ``presets``, ``profiles`` and ``workloads`` (None: the four
    workloads and ``RULE_CASES``) narrow it."""
    runner = Runner(src.resolve())
    out = out.resolve()
    gen_dir = out / "gen"
    gen_dir.mkdir(parents=True, exist_ok=True)
    for preset in PRESETS:
        runner.run(gen_dir, ["gen", preset], out / "console" / f"gen-{preset}")
    runner.run(gen_dir, ["estimate", "--detections",
                         "occlusion_abort_detections.jsonl", "--calibration",
                         "occlusion_abort_calibration.json",
                         "--out", "estimate_trace.jsonl"],
               out / "console" / "estimate")
    for preset in presets:
        for profile in profiles:
            case = out / "runs" / preset / profile
            inputs = (f"{preset}_map.json", f"{preset}_trace.jsonl",
                      ["--profile", profile])
            runner.check_and_monitor(gen_dir, inputs, case)
            runner.run(gen_dir, ["zones", "--map", inputs[0],
                                 "--trace", inputs[1], "--profile", profile],
                       case / "zones")
    write_rejections(runner, out)
    gen = _bench_gen()
    if gen is None:
        return
    if workloads is None:
        workloads = sorted(gen.WORKLOADS) + sorted(RULE_CASES)
    for name in workloads:
        workload, rules_text = RULE_CASES.get(name, (name, None))
        with tempfile.TemporaryDirectory() as tmp:
            made = gen.generate(workload, WORKLOAD_SEED, Path(tmp))
            rules = made.rules_path and ["--rules", made.rules_path.name]
            if rules_text is not None:
                (Path(tmp) / f"{name}.rules").write_text(rules_text, "utf-8")
                rules = ["--rules", f"{name}.rules"]
            runner.check_and_monitor(
                Path(tmp), (made.map_path.name, made.trace_path.name,
                            rules or []), out / "workloads" / name)
            if rules_text is None:
                runner.run(Path(tmp), ["zones", "--map", made.map_path.name,
                                       "--trace", made.trace_path.name],
                           out / "workloads" / name / "zones")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="directory holding the roadcheck package")
    parser.add_argument("out", type=Path, help="directory to write into")
    args = parser.parse_args(argv)
    if not (args.src / "roadcheck" / "cli.py").is_file():
        parser.error(f"no roadcheck package under {args.src}")
    write_outputs(args.src, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
