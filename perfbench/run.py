#!/usr/bin/env python3
"""Builds and runs the dsg benchmark (the command BENCHMARK.json names).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first call configures and builds
perfbench/ (the repository's src/ plus the benchmark sources) with CMake into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls rebuild incrementally. The binary's last stdout line, one JSON
object with the keys correct, attempted, failed and metrics, is checked
against the metric names BENCHMARK.json declares and printed as this
script's last line. Any failure exits non-zero without printing a result.

--smoke runs every workload at tiny size in both modes and asserts that every
declared metric is present and that nothing failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "dsg.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    if os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def run_once(binary, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; returns (stdout lines, parsed result)."""
    workdir = os.path.join(build_dir(), f"work-{os.getpid()}-{workload}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{workload} exited with code {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail(f"{workload} printed no result line")
    return lines, result


def check(result, workload, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    got = set(result["metrics"])
    if got != expected:
        fail(f"{workload}: metrics missing {sorted(expected - got)}, "
             f"unexpected {sorted(got - expected)}")


def smoke(binary):
    e2e, layers, workloads = declared_metrics()
    for workload in workloads:
        for trace, expected in ((0, e2e), (1, layers)):
            _, result = run_once(binary, workload, 1, 1, trace, tiny=True)
            check(result, workload, expected)
            if not result["correct"] or result["failed"] != 0:
                fail(f"{workload} (trace {trace}): correct={result['correct']} "
                     f"failed={result['failed']}/{result['attempted']}")
            print(f"smoke {workload} trace={trace}: ok "
                  f"({len(result['metrics'])} metrics, "
                  f"{result['attempted']} attempted, 0 failed)")
    print("smoke: all workloads passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("run from the root of the checkout (BENCHMARK.json not found)")
    binary = build()
    if args.smoke:
        smoke(binary)
        return
    if not args.workload:
        fail("--workload is required")
    e2e, layers, workloads = declared_metrics()
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}")
    lines, result = run_once(binary, args.workload, args.seed, args.seconds,
                             args.trace)
    check(result, args.workload, layers if args.trace else e2e)
    print("\n".join(lines))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
