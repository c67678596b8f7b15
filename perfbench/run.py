#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the perfbench program (perfbench/
CMakeLists.txt, which compiles the repository's src/ libraries) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
measured workload. The program's human-readable lines are passed through; the
last line printed is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). A traced run also writes its spans as Chrome
trace-event JSON to <build>/traces/<workload>-seed<n>.trace.json.

Exits non-zero without a result line when the build or the run fails, or
when the program's metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("coupled_day", "ooc_replay", "server_mix")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out_dir, target="perfbench"):
    """Configures (once) and builds `target`; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out_dir, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out_dir, target)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, expected):
    """Problems with a result object, as strings (empty when it is valid)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    metrics = result["metrics"]
    for name in sorted(set(expected) - set(metrics)):
        problems.append("metric %s missing" % name)
    for name in sorted(set(metrics) - set(expected)):
        problems.append("metric %s is not in BENCHMARK.json" % name)
    for name in sorted(set(expected) & set(metrics)):
        entry = metrics[name]
        if entry.get("unit") != expected[name]:
            problems.append("metric %s has unit %r, expected %r" % (name, entry.get("unit"),
                                                                    expected[name]))
        if not isinstance(entry.get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    work_dir = os.path.join(out_dir, "work-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print("perfbench: program exited with %d" % proc.returncode, file=sys.stderr)
        return 3
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("perfbench: last line is not a result object: %s" % lines[-1], file=sys.stderr)
        return 3
    problems = validate(result, expected_metrics(args.trace))
    if problems:
        for p in problems:
            print("perfbench: %s" % p, file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
