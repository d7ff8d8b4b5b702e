"""The paper's rule-162 figures at the precision it prints them.

``check`` with the shipped rules on the three Table 1 presets, under each
profile, must give the measured distance ahead (Table 1: 76.43, 58.33 and
35.63 m) and the safe distance ahead (101.39, 63.73 and 40.02 m) to two
decimals, that is within 0.005 m.
"""

import json

import pytest
from click.testing import CliRunner

from roadcheck.cli import main as cli_main

MEASURED = {"safe": 76.43, "near_miss": 58.33, "collision": 35.63}
THRESHOLD = {"relaxed": 101.39, "nominal": 63.73, "aggressive": 40.02}
HALF_CENTIMETRE = 0.005


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("presets")
    runner = CliRunner()
    for preset in MEASURED:
        res = runner.invoke(cli_main, ["gen", preset, "--out-dir", str(out)])
        assert res.exit_code == 0, res.output
    return out


@pytest.mark.parametrize("profile", THRESHOLD)
@pytest.mark.parametrize("preset", MEASURED)
def test_rule162_to_two_decimals(generated, tmp_path, preset, profile):
    out = tmp_path / "verdicts.jsonl"
    res = CliRunner().invoke(cli_main, [
        "check", "--map", str(generated / f"{preset}_map.json"),
        "--trace", str(generated / f"{preset}_trace.jsonl"),
        "--profile", profile, "--out-jsonl", str(out)])
    assert res.exit_code in (0, 1), res.output
    verdicts = [json.loads(line) for line in out.read_text().splitlines()]
    (rule162,) = [v for v in verdicts
                  if v["assertion_id"] == "rule162_safe_distance_ahead"]
    detail = rule162["detail"]
    assert abs(detail["measured"] - MEASURED[preset]) <= HALF_CENTIMETRE
    assert abs(detail["threshold"] - THRESHOLD[profile]) <= HALF_CENTIMETRE
