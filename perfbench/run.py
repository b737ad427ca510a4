#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md next to this file).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The first form configures and builds perfbench/ (which compiles the bsched
library from the enclosing checkout's sources) into .bench_build/perfbench,
then runs the benchmark binary; its last stdout line is the JSON result.
Build output goes to stderr. --self-test runs every workload at tiny size
and checks the result format against BENCHMARK.json, then checks that a
deliberately corrupted reference trips each workload's output check.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170  # the binary itself finishes well within this
WORKLOADS = ("table5_exact", "random_sweep", "fleet_loopback")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no bsched sources (CMakeLists.txt, src/) next to perfbench/")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(args, capture):
    try:
        proc = subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s: %s" % (RUN_TIMEOUT_S, " ".join(args)))
    return proc


def result_of(args):
    proc = run_binary(args, capture=True)
    if proc.returncode != 0:
        fail("exit code %d: %s" % (proc.returncode, " ".join(args)))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1",
                "--tiny"]
        for trace, want in expected.items():
            res, text = result_of(base + ["--trace", trace])
            where = "%s --trace %s" % (workload, trace)
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(where + ": result keys " + str(sorted(res)))
                continue
            if res["correct"] is not True or res["failed"] != 0:
                problems.append(where + ": not correct\n" + text)
            if not res["attempted"] >= 1:
                problems.append(where + ": nothing attempted")
            got = res["metrics"]
            if sorted(got) != sorted(want):
                problems.append(where + ": metric names differ: missing %s, "
                                "extra %s" % (sorted(set(want) - set(got)),
                                              sorted(set(got) - set(want))))
            for name, m in got.items():
                if name in want and m.get("unit") != want[name]:
                    problems.append("%s: %s unit %r, want %r"
                                    % (where, name, m.get("unit"), want[name]))
                if not isinstance(m.get("value"), (int, float)) or \
                        not math.isfinite(m["value"]):
                    problems.append("%s: %s value %r"
                                    % (where, name, m.get("value")))
            # sched.sim_self_ms is item time minus the policy calls timed
            # inside it, so the breakdown sums to engine.item_ms by
            # definition. What can fail is the nesting: policy calls that
            # add up to more than the items they ran in.
            if trace == "1" and got.get("sched.sim_self_ms", {}).get(
                    "value", 0) < 0:
                problems.append("%s: policy calls took longer than the items "
                                "they ran in (sched.sim_self_ms %r)"
                                % (where, got["sched.sim_self_ms"]["value"]))
        res, _ = result_of(base + ["--trace", "0", "--corrupt-reference"])
        if res["correct"] is not False or res["failed"] == 0:
            problems.append(workload + ": corrupted reference not detected")
        print("self-test: %s checked" % workload, file=sys.stderr)
    if problems:
        for p in problems:
            print("self-test FAIL: " + p, file=sys.stderr)
        sys.exit(1)
    print("self-test: ok (%d workloads, %d end-to-end and %d per-layer "
          "metrics)" % (len(WORKLOADS), len(expected["0"]),
                        len(expected["1"])), file=sys.stderr)


def main():
    args = sys.argv[1:]
    build()
    if args == ["--self-test"]:
        self_test()
        return
    sys.stdout.flush()
    sys.exit(run_binary(args, capture=False).returncode)


if __name__ == "__main__":
    main()
