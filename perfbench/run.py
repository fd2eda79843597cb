#!/usr/bin/env python3
"""Builds and runs the tabsketch end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and builds
the library, the `perfbench` driver and its statistics tests in
`.bench_build/` (or in $CARGO_TARGET_DIR when set); later runs only re-check
the build. Every run executes the statistics tests first. Build and test
output goes to stderr. The driver's output is passed through; its last line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`, whose
metric names and units are checked against BENCHMARK.json. The exit code is
the driver's (nonzero when an output check failed).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pool_build", "kmeans", "serve_knn", "serve_ingest")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def source_identity():
    """The git commit of the source tree, or 'unknown' outside a git checkout."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return commit.stdout.strip() if commit.returncode == 0 else "unknown"


def build(build_dir):
    """Configures (once), builds the driver and its statistics tests, and
    runs the tests; all of their output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    compiled = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "perfbench_stats_test", "-j", jobs], stdout=sys.stderr)
    if compiled.returncode != 0:
        fail("build failed")
    tests = subprocess.run(
        [os.path.join(build_dir, "perfbench_stats_test"), "--gtest_brief=1"],
        stdout=sys.stderr, timeout=60)
    if tests.returncode != 0:
        fail("the benchmark's statistics tests failed")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    sys.stdout.flush()
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", work_dir, "--commit", source_identity()],
        stdout=subprocess.PIPE, text=True, timeout=175)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print(lines[-1] if lines else "")
        fail("the driver printed no result (exit code %d)" % run.returncode)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    want = expected_metrics(args.trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    print(lines[-1])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
