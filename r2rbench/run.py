#!/usr/bin/env python3
"""Build and run one r2r benchmark workload.

    python3 r2rbench/run.py --workload pairs --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the library, the r2rd daemon and the
workload binary from source with CMake (Release) into $CARGO_TARGET_DIR or
.bench_build, then runs that binary and relays its output; the last line of
stdout is the JSON result. With --trace 0 set-up is measured three times, in
three processes, and setup_s is their median. --daemon-pool and --daemon-cache
shrink the daemon workload's spec pool and result cache (for the self-test).
See r2rbench/NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("pairs", "ladder", "rewrite", "daemon")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170


def fail(message):
    print("r2rbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root):
    bench_dir = os.path.join(root, "r2rbench")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "r2rbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=root).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr,
                      cwd=root).returncode != 0:
        fail("build failed")
    return build_dir


def run_workload(root, build_dir, args, extra):
    """Runs the workload binary once; returns (stdout lines, parsed last line)."""
    command = [os.path.join(build_dir, "r2rbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--r2rd", os.path.relpath(os.path.join(build_dir, "r2rd"), root)] + extra
    for flag in ("daemon_pool", "daemon_cache"):
        if getattr(args, flag) is not None:
            command += ["--" + flag.replace("_", "-"), str(getattr(args, flag))]
    # The binary measures set-up from this instant (CLOCK_MONOTONIC, the
    # clock behind both time.monotonic_ns and std::chrono::steady_clock).
    command += ["--spawn-ns", str(time.monotonic_ns())]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=root,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload binary timed out")
    if done.returncode != 0:
        fail("workload binary exited with code %d" % done.returncode)
    lines = done.stdout.splitlines()
    if not lines:
        fail("workload binary printed nothing")
    return lines, json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--daemon-pool", type=int, help="fresh specs available to a daemon run")
    parser.add_argument("--daemon-cache", type=int, help="r2rd result-cache entries")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("src/fault/campaign.h", "tools/r2rd.cpp"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("no r2r sources at %s (missing %s)" % (root, needed))
    build_dir = build(root)

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(run_workload(root, build_dir, args, ["--setup-only"])[1]["setup_s"])
    lines, result = run_workload(root, build_dir, args, [])
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("setup_s samples: " + " ".join("%.4f" % s for s in setups))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
