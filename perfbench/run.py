#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
`perfbench` binary (and the library sources it links) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls rebuild
incrementally. Build output goes to stderr, so the last line of stdout is
the binary's JSON result. See perfbench/README.md for the workloads and
metrics.

--self-test runs every workload of BENCHMARK.json at tiny size, untraced
and traced, and checks that each prints every named metric with its unit,
reports no failed operation, and counts nonzero work.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
COUNT_UNITS = {"count", "tuples", "tasks", "B"}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds the binary; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return None
    return os.path.join(out, "perfbench")


def run_binary(binary, args, capture):
    """Runs the binary; returns (exit code, stdout or None)."""
    try:
        proc = subprocess.run(
            [binary] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1, None
    return proc.returncode, proc.stdout


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, expected in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            code, out = run_binary(
                binary, ["--workload", name, "--seed", "7", "--seconds", "1",
                         "--trace", trace, "--size", "tiny"], capture=True)
            where = "%s --trace %s" % (name, trace)
            before = len(problems)
            if code != 0 or not out:
                problems.append("%s: exit code %d" % (where, code))
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: %d of %d operations failed" %
                                (where, result["failed"], result["attempted"]))
            if result["attempted"] < 1:
                problems.append("%s: no operation attempted" % where)
            metrics = result["metrics"]
            if set(metrics) != {m["name"] for m in expected}:
                problems.append("%s: metric names differ from BENCHMARK.json"
                                % where)
            for m in expected:
                got = metrics.get(m["name"])
                if got is None:
                    continue
                if got["unit"] != m["unit"]:
                    problems.append("%s: %s has unit %s, expected %s" %
                                    (where, m["name"], got["unit"], m["unit"]))
                value = got["value"]
                if not math.isfinite(value):
                    problems.append("%s: %s is not finite" % (where, m["name"]))
                # End-to-end metrics are never 0; work counts must be.
                if (trace == "0" or m["unit"] in COUNT_UNITS) and value <= 0:
                    problems.append("%s: %s is %r" % (where, m["name"], value))
            if len(problems) == before:
                print("self-test: %s ok (%d metrics)" % (where, len(metrics)),
                      file=sys.stderr)
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)
    code, _ = run_binary(binary, ["--workload", args.workload,
                                  "--seed", args.seed,
                                  "--seconds", args.seconds,
                                  "--trace", args.trace], capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
