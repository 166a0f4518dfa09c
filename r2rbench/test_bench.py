#!/usr/bin/env python3
"""Self-test of the r2r benchmark: short runs of every workload.

    python3 r2rbench/test_bench.py [workload ...]

Run from the root of a checkout (it builds through run.py). For each
workload it checks that:
  * a --trace 0 run prints exactly the end_to_end names and units of
    BENCHMARK.json, and a --trace 1 run exactly the per_layer ones;
  * every run is correct, attempted at least one op and failed none;
  * end-to-end values are positive;
  * two traced runs with the same seed agree exactly on the deterministic
    figures (fault sets per op, overhead_pct, residual_fault_sets,
    svc.cache_hit_ratio).
For the daemon it also runs with a pool of 24 fresh specs and a result cache
of 12 entries: the run must end early when the pool is used up, and every
repeat must still come back cached although the cache evicts (hit ratio
exactly 0.75, no failed request).
Exits 1 on the first failed check. Takes a few minutes (pairs dominates).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETERMINISTIC = {
    "pairs": ["fault_sets_per_op", "residual_fault_sets"],
    "ladder": ["fault_sets_per_op", "overhead_pct", "residual_fault_sets",
               "patch.iterations", "patch.unpatchable_sites"],
    "rewrite": ["overhead_pct", "harden.ir_ops_after"],
    "daemon": ["svc.cache_hit_ratio"],
}


def run(workload, trace, seed=7, seconds=1, extra=()):
    command = [sys.executable, os.path.join(ROOT, "r2rbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    check(done.returncode == 0, "%s trace %d: exit code %d" % (workload, trace, done.returncode))
    return json.loads(done.stdout.splitlines()[-1])


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in workloads:
        traced = []
        for trace in (0, 1, 1):
            result = run(workload, trace)
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  "%s: result keys %s" % (workload, sorted(result)))
            check(result["correct"] is True, "%s trace %d: not correct" % (workload, trace))
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  "%s trace %d: attempted %d failed %d"
                  % (workload, trace, result["attempted"], result["failed"]))
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == expected[trace],
                  "%s trace %d: metric names/units differ from BENCHMARK.json" % (workload, trace))
            if trace == 0:
                for name, metric in result["metrics"].items():
                    check(metric["value"] > 0, "%s: %s is not positive" % (workload, name))
            else:
                traced.append(result["metrics"])
        for name in DETERMINISTIC[workload]:
            first, second = traced[0][name]["value"], traced[1][name]["value"]
            check(first == second and first != 0,
                  "%s: %s differs across runs (%r vs %r)" % (workload, name, first, second))
        print("ok %s: %s" % (workload, ", ".join(
            "%s=%s" % (n, traced[0][n]["value"]) for n in DETERMINISTIC[workload])))
        if workload == "daemon":
            check_small_daemon()


def check_small_daemon():
    """A pool of 24 specs runs out long before 30 s; a 12-entry cache evicts."""
    result = run("daemon", 1, seconds=30, extra=["--daemon-pool", "24", "--daemon-cache", "12"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    check(result["correct"] is True and result["failed"] == 0,
          "small daemon: correct %s failed %d" % (result["correct"], result["failed"]))
    check(result["attempted"] == 24 * 4,
          "small daemon: %d requests, expected 24 rounds of 4" % result["attempted"])
    check(metrics["svc.cache_hit_ratio"] == 0.75,
          "small daemon: hit ratio %r" % metrics["svc.cache_hit_ratio"])
    print("ok daemon: pool of 24 used up, 12-entry cache evicting, all repeats cached")


if __name__ == "__main__":
    main()
