#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at a tiny size.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

Builds the perfbench binary like run.py, then for every workload of
BENCHMARK.json, untraced and traced:
  - the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics, and the run is correct;
  - the metrics are exactly BENCHMARK.json's end_to_end (untraced) or
    per_layer (traced) names, each with its unit;
  - a traced run writes a Chrome trace whose root spans cover the
    layer self-times.
Then it checks that a deliberately wrong expected digest makes the
correctness check fail, and that --census prints one line per paper
program plus a total. Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY = ["--tiny"]
SECONDS = 0.5


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    binary = run.build()
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)
            print("FAIL: " + what, file=sys.stderr)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            what = "%s --trace %d" % (workload, trace)
            cmd = run.bench_command(binary, workload, 0, SECONDS, trace, TINY)
            code, _, result = run.run_bench(cmd, SECONDS)
            check(code == 0 and result is not None, what + ": no result")
            if result is None:
                continue
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"], what + ": result keys")
            check(result["correct"] is True and result["failed"] == 0,
                  what + ": correctness check failed")
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  what + ": metrics differ from BENCHMARK.json: %s" %
                  sorted(set(got.items()) ^ set(expected[trace].items())))
            if trace:
                path = os.path.join(run.out_dir(),
                                    "perfbench-trace-%s.json" % workload)
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                roots = [e for e in events if e["args"]["parent"] < 0]
                check(roots and all(e["name"] == "pass" for e in roots),
                      what + ": trace roots are not passes")
                m = result["metrics"]
                layers = sum(v["value"] for k, v in m.items()
                             if k.endswith(".self_s"))
                root_s = sorted(e["dur"] for e in roots)[len(roots) // 2] / 1e6
                check(layers > 0 and abs(layers / root_s - 1) < 0.2,
                      what + ": layer self-times %.4f s vs traced pass %.4f s"
                      % (layers, root_s))

    cmd = run.bench_command(binary, "shard-report", 0, SECONDS, 0,
                             TINY + ["--expect-digest=00000000-0"])
    code, _, result = run.run_bench(cmd, SECONDS)
    check(code == 0 and result is not None and result["correct"] is False
          and result["failed"] > 0,
          "a wrong expected digest did not fail the correctness check")

    census = subprocess.run([binary, "--census", "--tiny"],
                            stdout=subprocess.PIPE, text=True)
    lines = census.stdout.splitlines()
    check(census.returncode == 0 and len(lines) == 8
          and lines[-1].startswith("all: "), "--census output")

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures
                            else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
