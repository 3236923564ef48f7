#!/usr/bin/env python3
"""Builds and runs the deterministic-work benchmark; prints one JSON line.

    python3 perfbench/run.py --workload table3_solve --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark binary (wnet_perfbench) into .bench_build/ (CMake,
RelWithDebInfo); later runs rebuild incrementally. The work fingerprint of
every run is kept in .bench_build/fingerprints/, keyed by the binary's hash,
workload, seed, --seconds and --trace: a run whose fingerprint differs from the first
run of the same binary and inputs is reported as incorrect.
"""

import argparse
import difflib
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("table3_solve", "encode_table3", "service_mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "wnet_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "wnet_perfbench")


def gate(state_dir, binary, args, fingerprint_path):
    """True if this run's fingerprint equals the first run's (or is the first)."""
    with open(binary, "rb") as f:
        code = hashlib.sha256(f.read()).hexdigest()[:16]
    with open(fingerprint_path) as f:
        mine = f.read()
    first_path = os.path.join(
        state_dir,
        f"{code}-{args.workload}-seed{args.seed}-s{args.seconds}-trace{args.trace}.txt")
    if not os.path.exists(first_path):
        os.replace(fingerprint_path, first_path)
        return True
    with open(first_path) as f:
        first = f.read()
    if mine == first:
        return True
    diff = difflib.unified_diff(first.splitlines(), mine.splitlines(), "first run", "this run",
                                lineterm="", n=0)
    print("perfbench: work fingerprint differs from the first run:", file=sys.stderr)
    for line in list(diff)[:20]:
        print("  " + line, file=sys.stderr)
    return False


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {root}/src; run from a full checkout")
    build_dir = os.path.join(root, ".bench_build", "cmake")
    state_dir = os.path.join(root, ".bench_build", "fingerprints")
    os.makedirs(state_dir, exist_ok=True)
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    tag = f"{args.workload}-seed{args.seed}-s{args.seconds}-trace{args.trace}"
    fingerprint_path = os.path.join(state_dir, f"last-{tag}.txt")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fingerprint-out", fingerprint_path]
    if args.trace:
        cmd += ["--trace-out", os.path.join(root, ".bench_build", f"spans-{tag}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"wnet_perfbench exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"wnet_perfbench exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])

    same_work = gate(state_dir, binary, args, fingerprint_path)
    print(json.dumps({
        "correct": bool(report["correct"]) and same_work,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))


if __name__ == "__main__":
    main()
