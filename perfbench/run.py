#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark program (perfbench/CMakeLists.txt compiles the engine
from ../src) into the build directory, runs one workload, checks that every
metric BENCHMARK.json names for the chosen mode is present, finite and in
its unit, and prints the program's JSON result as the last stdout line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--size full|tiny] [--corrupt-expected]

Run from the repository root. Exits non-zero, printing no result, when the
build, the run or the correctness gate fails.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "engine", "store.h")):
        fail("engine sources (src/) not found next to perfbench/")
    cmake_dir = os.path.join(build_dir, "cmake")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", src, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
            + gen, stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            fail("cmake configure failed")
    b = subprocess.run(["cmake", "--build", cmake_dir, "--target", "perfbench",
                        "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    if b.returncode != 0:
        fail("build failed")
    return os.path.join(cmake_dir, "perfbench")


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--corrupt-expected", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        fail("run from the repository root (BENCHMARK.json not found)")
    wanted = expected_metrics(root, args.trace)
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)

    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--size", args.size]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    # glibc's malloc asks for transparent huge pages: with 4 KiB pages the
    # page-fault cost of a shared host varied run to run by more than the
    # bounds allow.
    env = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.hugetlb=1")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        # Keep the latest trace files of each workload (one Chrome trace can
        # be tens of MB); drop everything else.
        if args.trace:
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            for name in os.listdir(work_dir):
                if name.startswith("trace-"):
                    kept = name.replace("-%d." % args.seed, ".", 1)
                    os.replace(os.path.join(work_dir, name),
                               os.path.join(traces, kept))
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark program exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("metric %s missing" % m["name"])
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, expected %s"
                 % (m["name"], got["unit"], m["unit"]))
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            fail("metric %s is not a finite number" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
