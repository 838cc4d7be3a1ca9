#!/usr/bin/env python3
"""Builds the perfbench driver from this checkout and runs it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The driver is configured and built (the
first time; incrementally afterwards) into .bench_build/perfbench; build
output goes to stderr so that the last line of stdout stays the driver's
JSON result. A traced run also writes its Chrome trace-event JSON to
.bench_build/perfbench/trace-<workload>-<seed>.json.

--self-test runs every workload at its smallest size, checks every metric
name and unit against BENCHMARK.json, checks that sim_cycles_speedup repeats
exactly, and checks that an injected miscompile is counted as a failed op.
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
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no compiler sources next to perfbench/; run from a "
              "full checkout", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def arg_value(args, flag):
    if flag in args and args.index(flag) + 1 < len(args):
        return args[args.index(flag) + 1]
    return None


def run_driver(args, capture):
    if arg_value(args, "--trace") == "1" and "--trace-file" not in args:
        name = "trace-%s-%s.json" % (arg_value(args, "--workload"),
                                     arg_value(args, "--seed"))
        args = args + ["--trace-file", os.path.join(BUILD, name)]
    return subprocess.run([BINARY] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE if capture else None,
                          text=True)


def result_of(args):
    proc = run_driver(args, capture=True)
    if proc.returncode != 0:
        raise SystemExit("perfbench self-test: driver exited %d for %s"
                         % (proc.returncode, " ".join(args)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        base = ["--workload", w, "--seed", "7", "--seconds", "1", "--tiny"]
        speedups = []
        for trace in ("0", "1", "0"):
            res = result_of(base + ["--trace", trace])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expect[trace]:
                problems.append("%s trace %s: metrics/units %s, expected %s"
                                % (w, trace, got, expect[trace]))
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append("%s trace %s: %d of %d ops failed"
                                % (w, trace, res["failed"], res["attempted"]))
            for k, v in res["metrics"].items():
                if not math.isfinite(v["value"]) or (
                        trace == "0" and v["value"] <= 0):
                    problems.append("%s: %s = %r" % (w, k, v["value"]))
            if trace == "0":
                speedups.append(res["metrics"]["sim_cycles_speedup"]["value"])
        if speedups[0] != speedups[1]:
            problems.append("%s: sim_cycles_speedup differs between runs: %r"
                            % (w, speedups))
        res = result_of(base + ["--trace", "0", "--inject-miscompile"])
        if res["correct"] or res["failed"] < 1:
            problems.append("%s: injected miscompile not counted as failed "
                            "(%d of %d failed)" % (w, res["failed"],
                                                   res["attempted"]))
        print("perfbench self-test: %s checked" % w)
    for p in problems:
        print("perfbench self-test: FAIL: " + p, file=sys.stderr)
    print("perfbench self-test: %s" % ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main():
    if not build():
        return 1
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    return run_driver(sys.argv[1:], capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
