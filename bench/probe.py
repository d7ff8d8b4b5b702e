"""Set-up probe, run in a fresh interpreter by ``run.py``.

Usage: python3 bench/probe.py [--layers] -- <roadcheck monitor arguments>

Times, from just before ``import roadcheck.cli`` until ``roadcheck
monitor`` has loaded the map, the profiles and the rules and built its
streaming engine, by running the command on an empty input stream.
Interpreter start is excluded.  With ``--layers`` it also times the calls
into ``load_map`` and the rule compiler.  Prints one JSON object.
"""

import io
import json
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    layers = argv[:1] == ["--layers"]
    monitor_args = argv[argv.index("--") + 1:]
    start = time.perf_counter()
    import roadcheck.cli as cli
    imported = time.perf_counter()
    spans: dict = {}
    if layers:
        from tracing import wrap_everywhere
        from roadcheck import checker, rulepack, worldmap

        depth: dict = {}

        def timed(name):
            def make(fn, _module):
                def wrapper(*args, **kwargs):
                    # load_rulepack calls compile_text: count the outer call
                    depth[name] = depth.get(name, 0) + 1
                    t0 = time.perf_counter()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        depth[name] -= 1
                        if not depth[name]:
                            spans[name] = (spans.get(name, 0.0)
                                           + time.perf_counter() - t0)
                return wrapper
            return make

        for module, name, label in ((worldmap, "load_map", "load_map"),
                                    (checker, "compile_text", "compile"),
                                    (rulepack, "load_rulepack", "compile")):
            wrap_everywhere(module, name, timed(label))
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(""), io.StringIO()
    try:
        cli.main.main(args=["monitor", *monitor_args], prog_name="roadcheck",
                      standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin, sys.stdout = saved
    done = time.perf_counter()
    print(json.dumps({"code": code, "setup_s": done - start,
                      "import_s": imported - start,
                      "load_map_s": spans.get("load_map"),
                      "compile_s": spans.get("compile")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
