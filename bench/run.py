"""Benchmark of ``roadcheck check`` and ``roadcheck monitor``.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark generates the
workload's inputs from the seed (``gen.py``), computes every verdict they
should produce with its own oracle (``oracle.py``), and then runs both
commands in this process through the CLI entry point, one thread, closed
loop: the monitor's stdin hands over the next line as soon as the command
asks for it.  Every verdict, exit code and cross-command property is
checked; an operation is one trace step taken through one command, and it
fails when any check on that step fails.

With ``--trace 0`` it prints the end-to-end metrics, each measured with
tracing off and scaled to reference speed by the calibration loop run
next to every timed invocation (``calib.py``).  With ``--trace 1`` it runs
the per-layer tracer (``tracing.py``) instead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from collections import Counter
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

import calib  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

SETUP_PROBES = 5
LAYER_PROBES = 5
END_TO_END_UNITS = {
    "setup_s": "s", "check_steps_per_s": "steps/s",
    "monitor_steps_per_s": "steps/s", "monitor_latency_p50_ms": "ms",
    "monitor_latency_p95_ms": "ms", "check_peak_mb": "MB",
    "monitor_peak_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot go on."""


def verdict(line: str):
    """A verdict line as a dict, or None when the line is not one."""
    try:
        v = json.loads(line)
        return v if isinstance(v, dict) and {"assertion_id", "t", "result"} <= v.keys() else None
    except ValueError:
        return None


def verdict_t(line: str):
    v = verdict(line)
    return None if v is None else v["t"]


# --- the instrumented standard streams --------------------------------------

class Feeder:
    """Stands in for stdin: hands over one line per request and stamps the
    moment it does so; the end of input is stamped too."""

    def __init__(self, lines):
        self.lines = lines
        self.pos = 0
        self.handed = [0.0] * (len(lines) + 1)

    def __iter__(self):
        return self

    def __next__(self):
        i = self.pos
        self.handed[i] = time.perf_counter()
        if i == len(self.lines):
            raise StopIteration
        self.pos = i + 1
        return self.lines[i]


class Sink(io.TextIOBase):
    """Stands in for stdout: keeps each write with its time and the number
    of input lines handed over so far (or only counts, with keep=False)."""

    def __init__(self, feeder=None, keep=True):
        super().__init__()
        self.feeder = feeder
        self.keep = keep
        self.parts: list[str] = []
        self.stamps: list[tuple[float, int]] = []

    def writable(self):
        return True

    def write(self, s):
        if not isinstance(s, str):
            raise TypeError("text only")   # keeps click from wrapping us
        if self.keep and s:
            self.parts.append(s)
            self.stamps.append((time.perf_counter(),
                                self.feeder.pos if self.feeder else 0))
        return len(s)


class Result:
    def __init__(self, code, start, elapsed, sink, feeder, stderr):
        self.code = code
        self.start = start
        self.elapsed = elapsed
        self.sink = sink
        self.feeder = feeder
        self.stderr = stderr
        self.text = ""


def invoke(entry, args, lines=None, keep=True) -> Result:
    """Run one CLI command in this process; the program's crash is an exit
    code of 1, as it would be for the installed command."""
    feeder = Feeder(lines) if lines is not None else None
    sink, err = Sink(feeder, keep), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = feeder if feeder is not None else io.StringIO("")
    sys.stdout, sys.stderr = sink, err
    code = 0
    start = time.perf_counter()
    try:
        entry(args=args, prog_name="roadcheck", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:  # noqa: BLE001 - a crash of the program under test
        code = 1
        err.write(traceback.format_exc())
    finally:
        elapsed = time.perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    return Result(code, start, elapsed, sink, feeder, err.getvalue())


# --- workload ---------------------------------------------------------------

class Workload:
    """Generated inputs, the oracle's verdicts and the checks on outputs."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.dir = OUT / f"{name}-seed{seed}"
        self.inputs = gen.generate(name, seed, self.dir)
        profiles = json.loads((SRC / "roadcheck" / "data" / "profiles.json")
                              .read_text("utf-8"))
        self.problems = oracle.self_check(profiles)
        self.expected = oracle.Oracle(
            self.inputs.trace_text, self.inputs.map_path.read_text("utf-8"),
            profiles, self.inputs.rules_path is not None).expected()
        self.lines = self.inputs.trace_text.splitlines(keepends=True)
        self.times, self.first_record = [], []
        for i, line in enumerate(self.lines):
            t = json.loads(line)["t"]
            if not self.times or t != self.times[-1]:
                self.times.append(t)
                self.first_record.append(i)
        self.steps = len(self.times)
        self.step_set = set(self.times)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._verified: dict = {}

    def rule_args(self):
        return ["--rules", str(self.inputs.rules_path)] if self.inputs.rules_path else []

    def check_args(self, map_path=None, trace_path=None):
        return ["check", "--map", str(map_path or self.inputs.map_path),
                "--trace", str(trace_path or self.inputs.trace_path),
                "--out-jsonl", str(self.dir / "verdicts.jsonl"),
                "--out-csv", str(self.dir / "summary.csv")] + self.rule_args()

    def monitor_args(self):
        return ["monitor", "--map", str(self.inputs.map_path)] + self.rule_args()

    # -- checks --

    def _bad_steps(self, text: str) -> set:
        """Steps whose verdicts disagree with the oracle."""
        exp, bad, got = self.expected, set(), {}
        for line in text.splitlines():
            v = verdict(line)
            if v is None:
                bad.add(None)
                continue
            key = (v["assertion_id"], v["t"])
            if key in got:
                bad.add(v["t"])
            got[key] = v
        for key in set(got) | set(exp.results):
            if key[0] in exp.skipped_ids or key in exp.uncertain:
                continue
            v = got.get(key)
            if v is None or v["result"] != exp.results.get(key):
                bad.add(key[1])
        for key, numbers in exp.numbers.items():
            v = got.get(key)
            if v is None or key in exp.uncertain:
                continue
            detail = v.get("detail") or {}
            shown = (detail.get("measured"), detail.get("threshold"))
            if any(s is None or abs(s - n) > 1e-6 * max(1.0, abs(n))
                   for s, n in zip(shown, numbers)):
                bad.add(key[1])
        return bad

    def account(self, command: str, code: int, text: str, extra_bad=()):
        """Count one invocation's operations and the failed ones."""
        want = self.expected.exit_code if command == "check" else 0
        if (text, command) not in self._verified:
            self._verified[(text, command)] = self._bad_steps(text)
        bad = set(self._verified[(text, command)]) | set(extra_bad)
        if want is not None and code != want:
            bad = self.step_set
            self.notes.append(f"{command} exited {code}, expected {want}")
        self.attempted += self.steps
        self.failed += min(len(bad), self.steps)

    def run_check(self, entry, **kw) -> Result:
        res = invoke(entry, self.check_args(**kw))
        path = self.dir / "verdicts.jsonl"
        res.text = path.read_text("utf-8") if path.exists() else ""
        path.unlink(missing_ok=True)
        return res

    def run_monitor(self, entry, keep=True) -> Result:
        res = invoke(entry, self.monitor_args(), self.lines, keep)
        res.text = "".join(res.sink.parts)
        return res

    def differing_steps(self, a: str, b: str) -> set:
        ca, cb = Counter(a.splitlines()), Counter(b.splitlines())
        return {verdict_t(line) for line in (ca - cb) + (cb - ca)}

    def verify_first(self, entry):
        """Warm-up invocations plus the reference drives of the properties."""
        chk = self.run_check(entry)
        self.account("check", chk.code, chk.text)
        mon = self.run_monitor(entry)
        self.account("monitor", mon.code, mon.text,
                     self.differing_steps(chk.text, mon.text))
        for prop, (map_path, trace_path) in self.inputs.reference.items():
            ref = self.run_check(entry, map_path=map_path, trace_path=trace_path)
            diff = self.differing_steps(chk.text, ref.text)
            if diff:
                self.notes.append(f"property {prop}: {len(diff)} steps differ")
            self.account("check", ref.code, ref.text, diff)
        for res, cmd in ((chk, "check"), (mon, "monitor")):
            if res.stderr.strip():
                self.notes.append(f"{cmd} stderr: {res.stderr.strip()[-300:]}")
        self.check_text, self.monitor_text = chk.text, mon.text
        self._line_times = [verdict_t(p) for p in mon.sink.parts]

    def account_timed(self, command, res):
        base = self.check_text if command == "check" else self.monitor_text
        extra = () if command == "check" or res.text == base else \
            self.differing_steps(self.check_text, res.text)
        self.account(command, res.code, res.text, extra)

    def latencies(self, res) -> list[tuple[int, float, float]]:
        """Per-step service latency of one monitor run: (step index,
        seconds, share of the run that had passed when the step was framed)."""
        parts = res.sink.parts
        line_times = (self._line_times if res.text == self.monitor_text
                      else [verdict_t(p) for p in parts])
        written: dict = {}
        for t, (stamp, pos) in zip(line_times, res.sink.stamps):
            seen = written.get(t)
            if seen is None:
                written[t] = [pos, stamp]
            elif seen[0] == pos:
                seen[1] = stamp
        handed = res.feeder.handed
        out = []
        for k, t in enumerate(self.times):
            done = written.get(t)
            if done is None:
                continue
            frame = (self.first_record[k + 1] if k + 1 < self.steps
                     else len(self.lines))
            out.append((k, done[1] - handed[frame],
                        (handed[frame] - res.start) / res.elapsed))
        return out


# --- set-up probes ----------------------------------------------------------

def probe(work: Workload, layers: bool = False) -> dict:
    """One fresh interpreter measuring set-up (see probe.py)."""
    cmd = [sys.executable, str(BENCH / "probe.py")]
    cmd += ["--layers"] if layers else []
    cmd += ["--", "--map", str(work.inputs.map_path)] + work.rule_args()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT, env=env)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if res["code"] != 0:
        raise BenchError(f"set-up probe exited {res['code']}")
    return res


def scaled_probes(work: Workload, count: int, layers: bool):
    """Probe results, each with the reference-speed scale of its neighbours."""
    probe(work, layers)                      # warm the file cache and .pyc
    out = []
    before = calib.run()
    for _ in range(count):
        res = probe(work, layers)
        after = calib.run()
        out.append((res, calib.REFERENCE_S / ((before + after) / 2.0)))
        before = after
    return out


def peak_mb(run) -> float:
    """tracemalloc peak above the baseline taken just before ``run``."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 1e6


# --- the two modes ----------------------------------------------------------

def timed_run(work: Workload, entry, seconds: float) -> dict:
    setup = [(r["setup_s"], s) for r, s in scaled_probes(work, SETUP_PROBES, False)]
    work.verify_first(entry)
    check_mb = peak_mb(lambda: work.run_check(entry))
    monitor_mb = peak_mb(lambda: work.run_monitor(entry, keep=False))
    rates = {"check": [], "monitor": []}
    raw_rates = {"check": [], "monitor": []}
    lat = [[] for _ in range(work.steps)]
    raw_lat = [[] for _ in range(work.steps)]
    cals, log = [], []
    gc.collect()
    before = calib.run()
    deadline = time.perf_counter() + seconds
    while True:
        for command in ("check", "monitor"):
            gc.collect()
            res = (work.run_check(entry) if command == "check"
                   else work.run_monitor(entry))
            gc.collect()
            after = calib.run()
            work.account_timed(command, res)
            samples = work.latencies(res) if command == "monitor" else []
            log.append({"command": command, "elapsed": res.elapsed,
                        "calibration": [before, after], "latency": samples})
            cal = (before + after) / 2.0
            cals.append(cal)
            raw_rates[command].append(work.steps / res.elapsed)
            rates[command].append(work.steps * cal
                                  / (res.elapsed * calib.REFERENCE_S))
            # the host's speed is taken as drifting linearly between the
            # calibration runs before and after the invocation
            for k, x, share in samples:
                raw_lat[k].append(x)
                lat[k].append(x * calib.REFERENCE_S
                              / (before + (after - before) * share))
            before = after
        if time.perf_counter() >= deadline:
            break
    (work.dir / "timed_rounds.json").write_text(json.dumps(log))

    def pct(values, q):
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

    # a step's latency is its median over the timed invocations, which
    # keeps the host's short slow-downs out of the percentiles over steps
    step_lat = [median(v) for v in lat if v]
    raw_step_lat = [median(v) for v in raw_lat if v]

    metrics = {
        "setup_s": median([v * s for v, s in setup]),
        "check_steps_per_s": median(rates["check"]),
        "monitor_steps_per_s": median(rates["monitor"]),
        "monitor_latency_p50_ms": median(step_lat) * 1e3,
        "monitor_latency_p95_ms": pct(step_lat, 95) * 1e3,
        "check_peak_mb": check_mb,
        "monitor_peak_mb": monitor_mb,
    }
    print(f"rounds: {len(rates['check'])}, latency samples: "
          f"{sum(map(len, lat))} over {len(step_lat)} steps, "
          f"calibration loop median {median(cals) * 1e3:.2f} ms "
          f"(reference {calib.REFERENCE_S * 1e3:.2f} ms)")
    print("raw (not calibrated): "
          f"setup_s={median([v for v, _ in setup]):.5f} "
          f"check_steps_per_s={median(raw_rates['check']):.1f} "
          f"monitor_steps_per_s={median(raw_rates['monitor']):.1f} "
          f"monitor_latency_p50_ms={median(raw_step_lat) * 1e3:.4f} "
          f"monitor_latency_p95_ms={pct(raw_step_lat, 95) * 1e3:.4f}")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()}


def traced_run(work: Workload, entry, seconds: float) -> dict:
    setup = scaled_probes(work, LAYER_PROBES, True)
    work.verify_first(entry)
    tracer = tracing.Tracer()
    per_round = {"check": [], "monitor": []}
    overhead = {"check": [], "monitor": []}
    gc.collect()
    before = calib.run()

    def timed(command, traced):
        nonlocal before
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wrapped = (tracer.span("cli", "invocation", entry) if traced
                       else entry)
            res = (work.run_check(wrapped) if command == "check"
                   else work.run_monitor(wrapped))
        finally:
            if traced:
                tracer.uninstall()
        gc.collect()
        after = calib.run()
        scale = calib.REFERENCE_S / ((before + after) / 2.0)
        before = after
        work.account_timed(command, res)
        return res, scale

    deadline = time.perf_counter() + seconds
    while True:
        for command in ("check", "monitor"):
            plain, s_plain = timed(command, False)
            traced, s_traced = timed(command, True)
            verdicts = len(traced.text.splitlines())
            per_round[command].append(tracing.layer_metrics(
                tracer, command, work.steps, verdicts, s_traced))
            tracing.write_spans(tracer, work.dir / f"spans_{command}.jsonl")
            base = plain.elapsed * s_plain
            overhead[command].append(
                100.0 * (traced.elapsed * s_traced - base) / base)
        if time.perf_counter() >= deadline:
            break
    tracer.absent = sorted(set(tracer.absent))

    metrics, missing = {}, list(tracer.absent)
    for command in ("check", "monitor"):
        for name, key in tracing.SETUP_METRICS:
            values = [r[key] for r, _ in setup]
            value = (None if any(v is None for v in values)
                     else median([v * s * 1e3 for (r, s), v in zip(setup, values)]))
            metrics[f"{command}.{name}"] = value
        for name in per_round[command][0]:
            values = [r[name] for r in per_round[command]]
            metrics[f"{command}.{name}"] = (None if any(v is None for v in values)
                                            else median(values))
        metrics[f"{command}.tracing.overhead_pct"] = median(overhead[command])
    missing += [name for name, v in metrics.items() if v is None]
    print(f"traced rounds: {len(per_round['check'])}; spans written to "
          f"{work.dir.relative_to(ROOT)}/spans_*.jsonl")
    print("missing hooks or metrics: " + (", ".join(missing) if missing else "none"))
    return {name: {"value": value, "unit": tracing.unit_of(name)}
            for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "roadcheck" / "cli.py").is_file():
        print(f"bench: no roadcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        from roadcheck.cli import main as cli_main
    except ImportError as exc:
        print(f"bench: cannot import roadcheck: {exc}", file=sys.stderr)
        return 2

    work = Workload(args.workload, args.seed)
    inp = work.inputs
    print(f"workload {work.name}, seed {args.seed}: {work.steps} steps, "
          f"{inp.records} records, {inp.lanelets} lanelets, rules: "
          f"{inp.rules_path.name if inp.rules_path else 'shipped rulepack'}")
    for name, digest in sorted(inp.sha256.items()):
        print(f"sha256 {digest}  {name}")
    print(f"oracle: {len(work.expected.results)} verdicts, "
          f"{len(work.expected.uncertain)} within 1e-6 of flipping skipped, "
          f"expected check exit code {work.expected.exit_code}")
    try:
        run = traced_run if args.trace else timed_run
        metrics = run(work, cli_main.main, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for note in work.notes:
        print(f"note: {note}")
    for problem in work.problems:
        print(f"oracle self-check: {problem}")
    print(json.dumps({"correct": not work.problems, "attempted": work.attempted,
                      "failed": work.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
