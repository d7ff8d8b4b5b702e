"""The benchmark's per-layer tracer still sees every layer.

``bench/tracing.py`` times the layers of ``check`` and ``monitor`` by
rebinding module-level names of ``roadcheck`` (its ``HOOKS``).  A hooked
function that is renamed, or that the program stops calling through such a
name, leaves the metrics resting on it missing.  This runs both commands
in-process under the tracer and requires every hook to be present and every
per-layer metric to be set.  Both modules are loaded by path, so the
benchmark directory stays as is.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from roadcheck.cli import main

ROOT = Path(__file__).resolve().parent.parent
STEPS = 300


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


gen = _load("gen")
tracing = _load("tracing")
runner = CliRunner()


@pytest.mark.parametrize("pairs", [1, 20])
def test_every_hook_and_layer_metric_present(tmp_path, pairs):
    trace = gen.trace_text(gen.build_drive(1, STEPS), STEPS)
    road = gen.map_text(gen.ROAD_X0,
                        gen.ROAD_TAIL + STEPS * gen.DT * gen.V_EGO, pairs)
    for name, text in (("trace.jsonl", trace), ("map.json", road),
                       ("drive.rules", gen.SHIPPED_RULES + gen.WINDOW_RULES)):
        (tmp_path / name).write_text(text)
    common = ["--map", str(tmp_path / "map.json"),
              "--rules", str(tmp_path / "drive.rules")]
    runs = {
        "check": (["check", *common, "--trace", str(tmp_path / "trace.jsonl"),
                   "--out-jsonl", str(tmp_path / "verdicts.jsonl"),
                   "--out-csv", str(tmp_path / "summary.csv")], None),
        "monitor": (["monitor", *common], trace),
    }
    tracer = tracing.Tracer()
    for path, (args, stdin) in runs.items():
        tracer.reset()
        tracer.install()
        try:
            res = runner.invoke(main, args, input=stdin)
        finally:
            tracer.uninstall()
        assert res.exit_code in (0, 1), (path, res.output)
        assert tracer.absent == [], (path, tracer.absent)
        metrics = tracing.layer_metrics(tracer, path, STEPS, 1, 1.0)
        missing = [name for name, value in metrics.items() if value is None]
        assert missing == [], (path, missing)
