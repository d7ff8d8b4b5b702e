"""The benchmark's independent oracle as an untimed differential test.

``bench/gen.py`` builds a seeded drive and ``bench/oracle.py`` computes
every verdict it should produce without any code from ``roadcheck``.  Batch
and streaming runs share one evaluator, so comparing them with each other
no longer guards the verdicts; this test compares both with the oracle.
Both modules are loaded by path, so the benchmark directory stays as is.
"""

import importlib.util
import json
import sys
from collections import Counter
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
oracle = _load("oracle")
runner = CliRunner()


def verdict_lines(text):
    return [line for line in text.splitlines() if line.startswith("{")]


@pytest.mark.parametrize("pairs", [1, 20])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_check_and_monitor_match_oracle(tmp_path, seed, pairs):
    trace = gen.trace_text(gen.build_drive(seed, STEPS), STEPS)
    road = gen.map_text(gen.ROAD_X0,
                        gen.ROAD_TAIL + STEPS * gen.DT * gen.V_EGO, pairs)
    rules = gen.SHIPPED_RULES + gen.WINDOW_RULES
    for name, text in (("trace.jsonl", trace), ("map.json", road),
                       ("drive.rules", rules)):
        (tmp_path / name).write_text(text)
    profiles = json.loads((ROOT / "src" / "roadcheck" / "data" /
                           "profiles.json").read_text("utf-8"))
    exp = oracle.Oracle(trace, road, profiles, True).expected()

    common = ["--map", str(tmp_path / "map.json"),
              "--rules", str(tmp_path / "drive.rules")]
    out = tmp_path / "verdicts.jsonl"
    chk = runner.invoke(main, ["check", *common,
                               "--trace", str(tmp_path / "trace.jsonl"),
                               "--out-jsonl", str(out)])
    assert chk.exception is None or isinstance(chk.exception, SystemExit), \
        chk.exception
    if exp.exit_code is not None:
        assert chk.exit_code == exp.exit_code
    lines = verdict_lines(out.read_text())
    got = {}
    for line in lines:
        v = json.loads(line)
        key = (v["assertion_id"], v["t"])
        assert key not in got, f"two verdicts for {key}"
        got[key] = v

    # the benchmark's rules: skipped assertions and verdicts within 1e-6
    # of flipping are not compared
    compared = 0
    for key in set(got) | set(exp.results):
        if key[0] in exp.skipped_ids or key in exp.uncertain:
            continue
        assert key in got, f"missing verdict {key}"
        assert got[key]["result"] == exp.results.get(key), key
        compared += 1
    assert compared > 0.9 * len(exp.results)
    for key, numbers in exp.numbers.items():
        if key in exp.uncertain:
            continue
        detail = got[key]["detail"]
        for shown, want in zip((detail["measured"], detail["threshold"]),
                               numbers):
            assert abs(shown - want) <= 1e-6 * max(1.0, abs(want)), key

    mon = runner.invoke(main, ["monitor", *common], input=trace)
    assert mon.exception is None, mon.exception
    assert Counter(verdict_lines(mon.output)) == Counter(lines)


def test_check_and_monitor_debounced_alike(tmp_path):
    # the windows workload's rules, debounced: check debounces the sorted
    # verdicts, monitor each verdict as the engine emits it; 600 steps of
    # seed 7 hold a post-physical verdict run shorter than 3
    steps = 600
    trace = gen.trace_text(gen.build_drive(7, steps), steps)
    road = gen.map_text(gen.ROAD_X0,
                        gen.ROAD_TAIL + steps * gen.DT * gen.V_EGO, 1)
    for name, text in (("trace.jsonl", trace), ("map.json", road),
                       ("drive.rules", gen.WORKLOADS["windows"][3])):
        (tmp_path / name).write_text(text)
    common = ["--map", str(tmp_path / "map.json"),
              "--rules", str(tmp_path / "drive.rules"), "--debounce", "3"]
    out = tmp_path / "verdicts.jsonl"
    chk = runner.invoke(main, ["check", *common,
                               "--trace", str(tmp_path / "trace.jsonl"),
                               "--out-jsonl", str(out)])
    assert chk.exception is None or isinstance(chk.exception, SystemExit), \
        chk.exception
    lines = verdict_lines(out.read_text())
    assert any('"debounced_from"' in line for line in lines)
    mon = runner.invoke(main, ["monitor", *common], input=trace)
    assert mon.exception is None, mon.exception
    assert Counter(verdict_lines(mon.output)) == Counter(lines)
