#!/usr/bin/env python3
"""Build and run the lmrbench benchmark driver.

Run from the repository root:

    python3 lmrbench/run.py --workload mega_route|paper_route|edit_stream \\
        --seed N --seconds S --trace 0|1

The routing library (src/) and the driver (lmrbench/src/) are compiled from
source with CMake into $CARGO_TARGET_DIR/lmrbench (default
.bench_build/lmrbench); the first run builds, later runs reuse the build.
Build output goes to stderr. One workload runs in its own process; its
report goes to stdout, and the last line is the JSON result. Before that line
is printed it is checked against BENCHMARK.json: the metric names must be
exactly its end_to_end names (--trace 0) or per_layer names (--trace 1). A
traced run also writes its spans, as Chrome trace-event JSON, under
<build dir>/traces/.

Exit code: the driver's (0 only when every correctness gate held); 1 when
the build, the run or the result line fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mega_route", "paper_route", "edit_stream")
# A run must finish within 180 s; stop a hung one before that.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def die(msg):
    print(f"lmrbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "pipeline", "router.hpp")):
        die("the routing library sources (src/) are missing; nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build step {' '.join(cmd)} failed: {e}")
        if r.returncode != 0:
            die(f"build step {' '.join(cmd)} exited with {r.returncode}")
    binary = os.path.join(build_dir, "lmrbench")
    if not os.path.isfile(binary):
        die("the build produced no lmrbench binary")
    return binary


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    """Why the result line breaks the result format, or None."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        return f"result line is not JSON: {e}"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result line must hold exactly correct, attempted, failed, metrics"
    if not isinstance(res["correct"], bool):
        return "correct must be a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool) or res[key] < 0:
            return f"{key} must be a non-negative whole number"
    if res["attempted"] < 1:
        return "attempted must be at least 1"
    want = expected_metrics(trace)
    got = res["metrics"]
    if not isinstance(got, dict) or set(got) != set(want):
        return f"metrics {sorted(got)} do not match BENCHMARK.json {sorted(want)}"
    for name, m in got.items():
        if m.get("unit") != want[name] or not isinstance(m.get("value"), (int, float)):
            return f"metric {name} must carry a number and unit {want[name]}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "lmrbench")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, cwd=ROOT,
                           timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = r.stdout.rstrip("\n").split("\n")
    why = check_result(lines[-1], args.trace) if lines and lines[-1] else "no result line"
    if why is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die(f"{why} (driver exit code {r.returncode})")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
