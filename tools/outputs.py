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
* ``workloads/``: the same ``check`` and ``monitor`` outputs on the four
  benchmark workloads at seed 7 (nominal profile), when ``bench/gen.py``
  exists next to this directory.

Two checkouts give the same behaviour on this matrix when ``diff -r`` of
their OUT directories is empty.  Each command runs in the directory of its
inputs and names them by relative paths, so that its output holds no path
that differs between two OUT directories.
"""

from __future__ import annotations

import argparse
import importlib.util
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
    ``out``; ``presets``, ``profiles`` and ``workloads`` (None: all four)
    narrow it."""
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
    gen = _bench_gen()
    if gen is None:
        return
    for name in sorted(gen.WORKLOADS) if workloads is None else workloads:
        with tempfile.TemporaryDirectory() as tmp:
            made = gen.generate(name, WORKLOAD_SEED, Path(tmp))
            rules = made.rules_path and ["--rules", made.rules_path.name]
            runner.check_and_monitor(
                Path(tmp), (made.map_path.name, made.trace_path.name,
                            rules or []), out / "workloads" / name)


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
