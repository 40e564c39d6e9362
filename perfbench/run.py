#!/usr/bin/env python3
"""Full-stack benchmark of the Snooze simulator.

Builds perfbench/ (which compiles the simulator sources under src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics (the traced run also writes its spans to
<build>/spans/<workload>-seed<N>.jsonl).

    python3 perfbench/run.py --workload churn-1k --seed 7 --seconds 10 --trace 0

--smoke shrinks every workload to a few dozen nodes, for the benchmark's own
tests (perfbench/test_smoke.py). Run from the root of the repository.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
SMOKE_SCALE = 0.02


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    """Configure and build the benchmark; its output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "perfbench_e2e")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to a few dozen nodes")
    parser.add_argument("--corrupt-fingerprint", action="store_true",
                        help="self-test: the determinism check must then fail")
    args = parser.parse_args()

    for needed in ("BENCHMARK.json", os.path.join("src", "core", "system.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found; run from a full checkout of the repository")
    expected = expected_metrics(args.trace)

    out = build_dir()
    binary = build(out)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd += ["--scale", str(SMOKE_SCALE)]
    if args.corrupt_fingerprint:
        cmd += ["--corrupt-fingerprint", "1"]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl")]

    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.decode(errors="replace").splitlines()
    if not lines:
        fail(f"workload {args.workload} printed nothing (exit code {done.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"workload {args.workload} did not end with a JSON result")
    for line in lines[:-1]:
        print(line)

    correct = bool(result["correct"]) and done.returncode == 0
    metrics = {}
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            print(f"CHECK FAILED: metric {m['name']} missing or without unit {m['unit']}")
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
