"""``tools/outputs.py`` writes the command outputs that two checkouts are
compared on; this runs it on one preset and one profile.  The tool is
loaded by path, as the benchmark's modules are."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "tools_outputs", ROOT / "tools" / "outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outputs_of_one_preset_and_profile(tmp_path):
    out = tmp_path / "out"
    tool = _load_tool()
    tool.write_outputs(ROOT / "src", out, presets=("safe",),
                       profiles=("nominal",), workloads=tuple(tool.RULE_CASES))
    assert {p.name for p in (out / "gen").iterdir()} == {
        f"{preset}_{kind}" for preset in tool.PRESETS
        for kind in ("map.json", "trace.jsonl")} | {
        "occlusion_abort_detections.jsonl",
        "occlusion_abort_calibration.json", "estimate_trace.jsonl"}
    assert (out / "console" / "estimate.exit").read_text() == "0\n"
    case = out / "runs" / "safe" / "nominal"
    assert {p.name for p in case.iterdir()} == {
        f"{flags}.{name}" for flags in tool.FLAGS
        for name in ("jsonl", "csv", "check.out", "check.err", "check.exit",
                     "monitor.out", "monitor.err", "monitor.exit")} | {
        "zones.out", "zones.err", "zones.exit"}
    assert (case / "plain.check.exit").read_text() == "1\n"
    assert (case / "plain.monitor.exit").read_text() == "0\n"
    assert (case / "zones.exit").read_text() == "0\n"
    # batch and streaming give one verdict multiset
    verdicts = (case / "plain.jsonl").read_text().splitlines()
    assert verdicts
    assert sorted(verdicts) == sorted(
        (case / "plain.monitor.out").read_text().splitlines())
    # the crowded trace with rules that read its other vehicles: check
    # and monitor, each with three flag sets
    workloads = out / "workloads"
    assert [p.name for p in workloads.iterdir()] == ["crowded-other-rules"]
    case = workloads / "crowded-other-rules"
    assert len(list(case.glob("*.exit"))) == 6
    verdicts = (case / "plain.jsonl").read_text().splitlines()
    assert len(verdicts) == 1500
    assert sorted(verdicts) == sorted(
        (case / "plain.monitor.out").read_text().splitlines())
    assert (case / "plain.check.exit").read_text() == "1\n"
    # every malformed input exits 2 with one error line from each reader;
    # a trace with no records is read as one without verdicts; a
    # well-formed one is read without a word (a box too far out to build
    # fails its assertions as evaluation errors), or with one warning line
    # for its unknown key
    rejections = out / "rejections"
    runs = [(case, command) for case, *_ in tool.REJECTIONS
            for command in tool.READERS[case.split("-", 1)[0]]]
    assert len(runs) == len(list(rejections.glob("*.exit"))) == 85
    for case, command in runs:
        run = f"{case}.{command}"
        err = (rejections / f"{run}.err").read_text().splitlines()
        code = (rejections / f"{run}.exit").read_text()
        if case in ("trace-big-integer-x", "trace-integer-heading",
                    "trace-far-x"):
            assert err == [] and code != "2\n", run
        elif case in ("trace-empty", "trace-blank-lines"):
            # no records: no verdicts, and no decision point for zones
            assert (rejections / f"{run}.out").read_text() == "", run
            assert (err, code) == (
                (["error: the ego never crosses the centre line"], "2\n")
                if command == "zones" else ([], "0\n")), run
        elif case.endswith("unknown-key"):
            assert len(err) == 1 and err[0].startswith("warning: ") and \
                err[0].endswith(": unknown keys ['note']"), (run, err)
            assert code != "2\n", run
        else:
            assert code == "2\n", run
            assert len(err) == 1 and err[0].startswith("error: "), (run, err)
    assert "polygon is not strictly convex" in (
        rejections / "trace-far-x.monitor.out").read_text()
