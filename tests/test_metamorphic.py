"""Metamorphic relations of ``roadcheck check``: the program is compared
with itself on two related inputs, so no second implementation is needed
(Chen et al., "Metamorphic Testing: A Review of Challenges and
Opportunities", ACM CSUR 2018).  Each relation is exact on the sorted
verdict JSONL, on the four presets under two profiles and three flag sets.

1. Shuffling the records within each step changes nothing, also when a
   role has two actors (a second VBP whose id sorts first), so that which
   record of the role comes first must not matter.
2. Adding actors of role ``other`` at existing timestamps changes nothing.
   They stand next to and in front of the ego, and half of them are
   low-confidence; their ids differ from every string literal in the
   rules, since ``resolve`` tries an actor id before a role name.
3. Renaming the actor ids, keeping their order within each role, changes
   only the names in ``low_confidence_actors``.  The new ids differ from
   every string literal in the rules, which may name an actor by id.
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
import re
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
# every string literal of the shipped rules: actor ids or role names
RULE_LITERALS = set(re.findall(r'"([^"]*)"', RULE_SETS["execution"]
                               + RULE_SETS["danger_spaces"]))
# a rule set checked whole, and the two parts it is split into
SPLITS = [("shipped", "execution", "danger_spaces"),
          ("bench", "bench_shipped", "bench_windows")]


def _records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines()]


def _text(records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


def _two_vbps(text: str) -> list[dict]:
    """The trace with a second VBP 20 m behind the first, under an id that
    sorts before the first's, and every third record low-confidence."""
    records = []
    for r in _records(text):
        records.append(r)
        if r["role"] == "VBP":
            records.append({**r, "actor_id": "a" + r["actor_id"],
                            "x": r["x"] - 20.0})
            assert records[-1]["actor_id"] < r["actor_id"]
    for r in records[::3]:
        r["low_confidence"] = True
    return records


OTHER_IDS = ("0-other", "other-a", "zz-other")


def _with_others(text: str) -> list[dict]:
    """The trace with three ``other`` actors added at every step: beside,
    ahead of and behind the step's first record, every second one
    low-confidence."""
    records, seen = [], set()
    for r in _records(text):
        records.append(r)
        if r["t"] in seen:
            continue
        seen.add(r["t"])
        for k, aid in enumerate(OTHER_IDS):
            records.append({**r, "actor_id": aid, "role": "other",
                            "x": r["x"] + 6.0 * (k - 1), "y": r["y"] + 3.0,
                            "low_confidence": k % 2 == 0})
    return records


def _new_names(records) -> dict:
    """Old id -> new id, the new ids in the old ones' order within each
    role."""
    names, count = {}, {}
    for role, aid in sorted({(r["role"], r["actor_id"]) for r in records}):
        count[role] = count.get(role, -1) + 1
        names[aid] = f"{role.lower()}-{count[role]:02d}"
    return names


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
        (root / f"{name}_others.jsonl").write_text(_text(_with_others(trace)))
        records = _two_vbps(trace)
        (root / f"{name}_two_vbps.jsonl").write_text(_text(records))
        (root / f"{name}_two_vbps_shuffled.jsonl").write_text(
            _shuffled(_text(records), seed=len(name)))
        names = _new_names(records)
        assert not set(names.values()) & RULE_LITERALS
        (root / f"{name}_renamed.jsonl").write_text(_text(
            {**r, "actor_id": names[r["actor_id"]]} for r in records))
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


@pytest.mark.parametrize("preset, profile, flags", CASES)
def test_unreferenced_actors(check, preset, profile, flags):
    assert not set(OTHER_IDS) & RULE_LITERALS
    plain = check(preset, profile, flags)
    assert check(preset, profile, flags, trace="others") == plain


@pytest.mark.parametrize("preset, profile, flags", CASES)
def test_record_order_with_two_actors_of_a_role(check, preset, profile,
                                                flags):
    plain = check(preset, profile, flags, trace="two_vbps")
    assert plain
    assert check(preset, profile, flags, trace="two_vbps_shuffled") == plain


def _low_confidence_renamed(lines, names=None) -> list[str]:
    """The verdicts with the ids in ``low_confidence_actors`` renamed by
    ``names``, if given."""
    out = []
    for line in lines:
        v = json.loads(line)
        low = v["detail"].get("low_confidence_actors")
        if low is not None:
            v["detail"]["low_confidence_actors"] = sorted(
                names[a] if names else a for a in low)
        out.append(json.dumps(v, sort_keys=True))
    return sorted(out)


@pytest.mark.parametrize("preset, profile, flags", CASES)
def test_actor_names(check, inputs, preset, profile, flags):
    names = _new_names(_records(
        (inputs / f"{preset}_two_vbps.jsonl").read_text()))
    plain = check(preset, profile, flags, trace="two_vbps")
    assert any("low_confidence_actors" in line for line in plain)
    renamed = check(preset, profile, flags, trace="renamed")
    assert (_low_confidence_renamed(renamed)
            == _low_confidence_renamed(plain, names))


@pytest.mark.parametrize("whole, part_a, part_b", SPLITS)
@pytest.mark.parametrize("preset, profile, flags", CASES)
def test_rule_sets_checked_together(check, preset, profile, flags, whole,
                                    part_a, part_b):
    a = check(preset, profile, flags, rules=part_a)
    b = check(preset, profile, flags, rules=part_b)
    assert a and b
    assert check(preset, profile, flags, rules=whole) == sorted(a + b)
