#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper_steady, crash_recover, real_commit (see perfbench/README.md).
The program and the libraries under src/ are compiled (Release) into
.bench_build/perfbench on first use; later runs only re-check the build.
Build output goes to stderr. Standard output carries the program's lines,
the last of which is the JSON result. A traced run (--trace 1) also writes
its spans as Chrome trace_event JSON to
.bench_build/perfbench/trace_<workload>.json.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

WORKLOADS = ("paper_steady", "crash_recover", "real_commit")
RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    """Configures and builds the program; returns its path or None."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        # Serialises concurrent runs in one checkout around the build.
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = [
            ["cmake", "-S", source_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        ]
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            except OSError as error:
                print(f"cannot run {step[0]}: {error}", file=sys.stderr)
                return None
            if done.returncode != 0:
                print(f"build step failed: {' '.join(step)}", file=sys.stderr)
                return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    binary = build(source_dir, build_dir)
    if binary is None:
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace_out",
                    os.path.join(build_dir, f"trace_{args.workload}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        print(f"{args.workload} failed with exit code {done.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        print("the program's last line is not a JSON result", file=sys.stderr)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("the program's result has unexpected keys", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
