"""Metamorphic relations of ``roadcheck check``: the program is compared
with itself on two related inputs, so no second implementation is needed
(Chen et al., "Metamorphic Testing: A Review of Challenges and
Opportunities", ACM CSUR 2018).  Each relation is exact on the sorted
verdict JSONL, on the four presets under two profiles and three flag sets.

1. Shuffling the records within each step changes nothing.
4. Checking two rule sets with distinct ids together gives the union of
   checking each alone.  The sets are the shipped rulepack's execution
   rules and its danger-space invariants, and the benchmark's copy of the
   shipped rules and its windowed rules (``bench/gen.py``, loaded by path
   so that the benchmark directory stays as is).  This covers the
   references and shapes that assertions share within a step, and the
   lookback that the longest ``pre_`` window sets for pruning.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from roadcheck.cli import main
from roadcheck.rulepack import DANGER_SPACE_RULES, RULE162_SDA, RULE163_PULL_OUT
from roadcheck.scenarios import PRESET_NAMES

ROOT = Path(__file__).resolve().parent.parent
FLAGS = {"plain": [], "worst-case": ["--worst-case-speeds"],
         "debounce": ["--debounce", "3", "--lenient-windows"]}
runner = CliRunner()


def _load_gen():
    spec = importlib.util.spec_from_file_location(
        "bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


gen = _load_gen()

# name -> rule text; None is the shipped rulepack
RULE_SETS = {
    "shipped": None,
    "execution": RULE162_SDA + RULE163_PULL_OUT,
    "danger_spaces": DANGER_SPACE_RULES,
    "bench": gen.SHIPPED_RULES + gen.WINDOW_RULES,
    "bench_shipped": gen.SHIPPED_RULES,
    "bench_windows": gen.WINDOW_RULES,
}
# a rule set checked whole, and the two parts it is split into
SPLITS = [("shipped", "execution", "danger_spaces"),
          ("bench", "bench_shipped", "bench_windows")]


def _shuffled(text: str, seed: int) -> str:
    """The trace ``text`` with the records of each step in a new order."""
    steps: dict = {}
    for line in text.splitlines():
        steps.setdefault(json.loads(line)["t"], []).append(line)
    rng = random.Random(seed)
    out = []
    for lines in steps.values():
        order = lines[:]
        while len(lines) > 1 and order == lines:   # a new order, always
            rng.shuffle(order)
        out.extend(order)
    return "".join(line + "\n" for line in out)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("metamorphic")
    for name in PRESET_NAMES:
        res = runner.invoke(main, ["gen", name, "--out-dir", str(root)])
        assert res.exit_code == 0, res.output
        trace = (root / f"{name}_trace.jsonl").read_text()
        shuffled = _shuffled(trace, seed=len(name))
        assert shuffled != trace
        (root / f"{name}_shuffled.jsonl").write_text(shuffled)
    for name, text in RULE_SETS.items():
        if text is not None:
            (root / f"{name}.rules").write_text(text)
    return root


@pytest.fixture(scope="module")
def check(inputs):
    """``check(preset, profile, flags, rules, trace)``: the sorted verdict
    lines of one run, cached across the relations."""
    cache: dict = {}

    def run(preset, profile, flags, rules="shipped", trace="trace"):
        key = (preset, profile, flags, rules, trace)
        if key not in cache:
            out = inputs / "verdicts.jsonl"
            args = ["check", "--map", str(inputs / f"{preset}_map.json"),
                    "--trace", str(inputs / f"{preset}_{trace}.jsonl"),
                    "--profile", profile, *FLAGS[flags],
                    "--out-jsonl", str(out)]
            if RULE_SETS[rules] is not None:
                args += ["--rules", str(inputs / f"{rules}.rules")]
            res = runner.invoke(main, args)
            assert res.exit_code in (0, 1), res.output
            cache[key] = sorted(out.read_text().splitlines())
        return cache[key]
    return run


CASES = [(preset, profile, flags) for preset in PRESET_NAMES
         for profile in ("nominal", "relaxed") for flags in FLAGS]


@pytest.mark.parametrize("preset, profile, flags", CASES)
def test_record_order_within_a_step(check, preset, profile, flags):
    plain = check(preset, profile, flags)
    assert plain
    assert check(preset, profile, flags, trace="shuffled") == plain


@pytest.mark.parametrize("whole, part_a, part_b", SPLITS)
@pytest.mark.parametrize("preset, profile, flags", CASES)
def test_rule_sets_checked_together(check, preset, profile, flags, whole,
                                    part_a, part_b):
    a = check(preset, profile, flags, rules=part_a)
    b = check(preset, profile, flags, rules=part_b)
    assert a and b
    assert check(preset, profile, flags, rules=whole) == sorted(a + b)
