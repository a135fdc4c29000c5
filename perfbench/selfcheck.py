#!/usr/bin/env python3
"""Checks that the traced run's deterministic counts repeat exactly.

    python3 perfbench/selfcheck.py

Runs `perfbench/run.py --trace 1` twice per workload with one seed and
compares the counts that depend only on the seeded tasks, never on timing.
Also checks that serve-fresh never hits the result cache. Run from the root
of a checkout. Exits nonzero on any difference.
"""

import json
import os
import subprocess
import sys

SEED = 7
WORKLOADS = ("serve-hot", "serve-fresh", "batch-exact")
DETERMINISTIC = (
    "checkpoint.saves_per_job",
    "checkpoint.bytes_per_job",
    "warm_pool.frames_per_job",
    "guarded_run.steps_per_job",
    "numeric.bigint_allocs",
    "numeric.bigint_limbs",
    "parallel.pool_tasks",
    "matrix.sparse_fill_ins",
    "result_cache.fills",
    "result_cache.evictions",
)


def traced(workload):
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    proc = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(SEED),
         "--seconds", "5", "--trace", "1"],
        capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: traced run failed ({proc.returncode})")
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def main():
    bad = 0
    for workload in WORKLOADS:
        first, second = traced(workload), traced(workload)
        for name in DETERMINISTIC:
            same = first[name] == second[name]
            bad += not same
            print(f"{workload:12s} {name:28s} {first[name]!r:>14} "
                  f"{second[name]!r:>14} {'ok' if same else 'DIFFERS'}")
        if workload == "serve-fresh":
            for run in (first, second):
                zero = run["result_cache.hit_share"] == 0
                bad += not zero
                print(f"{workload:12s} {'result_cache.hit_share':28s} "
                      f"{run['result_cache.hit_share']!r:>14} "
                      f"{'ok' if zero else 'NOT ZERO'}")
    print("self-check", "passed" if bad == 0 else f"failed ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
