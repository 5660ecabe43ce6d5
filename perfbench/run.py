#!/usr/bin/env python3
"""Builds and runs the benchmark of the Orion runtime.

    python3 perfbench/run.py --workload mf_rotation --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout. It builds perfbench/ (which
builds the runtime from src/) in Release mode into .bench_build/, runs one
workload in one process and relays its report. The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The metric names are checked against BENCHMARK.json. The exit status is
non-zero when the build fails, a correctness check fails or the report is
malformed. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("mf_rotation", "slr_ps", "slr_serve_ckpt")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds the benchmark binary (a no-op when fresh)."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error message, or None when the result line is well formed."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "unexpected keys %s" % sorted(result)
    want = expected_metrics(trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        return "metrics differ from BENCHMARK.json: missing %s, extra or mis-united %s" % (
            sorted(set(want.items()) - set(got.items())),
            sorted(set(got.items()) - set(want.items())))
    if result["attempted"] < 1:
        return "no operation attempted"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    scratch = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scratch", scratch]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload,
                                                                        args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    error = check_result(lines[-1], args.trace) if lines and lines[-1] else "no result line"
    if error is not None:
        print("\n".join(lines[:-1]))
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    print(proc.stdout, end="")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
