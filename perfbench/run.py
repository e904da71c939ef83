#!/usr/bin/env python3
"""Builds and runs the StructSlim end-to-end benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every run configures and builds perfbench/ (the repository's libraries
from src/ plus the perfbench binary, Release) under $CARGO_TARGET_DIR,
default .bench_build; only the first run compiles everything. Build
output goes to stderr. The binary's standard output is passed through,
so its last line is the JSON result. Everything the benchmark writes
stays under the build directory.

Exit status: the binary's, or 1 when the build fails or the binary does
not produce a result in time.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-closed-loop", "default-profile", "shard-report")
# Besides --seconds of passes, the binary spends about 1 s on set-up,
# finishes its last pass (up to about 6 s) and runs the untimed golden
# check; 145 s covers all three.
RUN_SLACK_S = 145


def out_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the perfbench binary; returns its path."""
    build_dir = os.path.join(out_dir(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs,
              "--target", "perfbench"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def bench_command(binary, workload, seed, seconds, trace, extra=()):
    work = os.path.join(out_dir(), "perfbench-work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--work-dir=" + work]
    if workload == "paper-closed-loop":
        cmd.append("--golden=" + os.path.join(ROOT, "tests", "data",
                                              "golden_verify.json"))
    if trace:
        cmd.append("--trace-file=" + os.path.join(
            out_dir(), "perfbench-trace-%s.json" % workload))
    return cmd + list(extra)


def run_bench(cmd, seconds):
    """Runs the binary; returns (exit code, stdout, parsed last line)."""
    timeout = seconds + RUN_SLACK_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: binary exceeded %d s" % timeout, file=sys.stderr)
        return 1, "", None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, proc.stdout, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (OSError, RuntimeError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    code, stdout, result = run_bench(bench_command(
        binary, args.workload, args.seed, args.seconds, args.trace),
        args.seconds)
    if code != 0 or result is None:
        print("perfbench: binary failed (exit %d)" % code, file=sys.stderr)
        return code or 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
