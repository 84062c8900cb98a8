#!/usr/bin/env python3
"""Checks that the benchmark's counts repeat exactly.

    python3 perfbench/determinism.py [--seconds S]

Run from the repository root. Makes two traced runs on each of two seeds
(a traced run reports every per-layer metric of every workload) and
compares every count below across all four. Counts may back a later
performance claim only if this passes. Exits 1 on any difference.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Counts that must not depend on the seed, on timing or on the run. Counts
# that depend on how many ops fit in the run (serve.batches, api.disk_hits,
# ...) are not listed.
COUNTS = [
    "ir.ops",
    "core.propagate_changes",
    "pass.fuse-gather-slice_runs",
    "pass.form-reduce-scatter_runs",
    "pass.dce_runs",
    "spmd.ops",
    "spmd.all_gather",
    "spmd.all_reduce",
    "spmd.reduce_scatter",
    "spmd.all_to_all",
    "persist.entry_bytes",
    "api.disk_misses",
    "api.disk_corrupt",
    "exec.allocations_per_run",
    "exec.peak_arena_bytes",
    "exec.fused_chains",
    "sim.comm_bytes",
    "serve.compiles",
    "serve.failed",
    "serve.expired",
    "api.cache_misses",
]


def traced_run(seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", "partition_warm", "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         cwd=os.path.dirname(HERE), check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"determinism.py: seed {seed}: run reported incorrect output")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()

    runs = []
    for seed in (1, 2):
        for repeat in (1, 2):
            runs.append((f"seed {seed} run {repeat}",
                         traced_run(seed, args.seconds)))
    differing = 0
    for name in COUNTS:
        values = [metrics.get(name) for _, metrics in runs]
        same = values[0] is not None and all(v == values[0] for v in values)
        differing += not same
        print(f"{'ok  ' if same else 'DIFF'} {name:32s} "
              + " ".join(str(v) for v in values))
    if differing:
        print(f"determinism.py: {differing} count(s) differ across "
              + ", ".join(label for label, _ in runs), file=sys.stderr)
        return 1
    print(f"determinism.py: all {len(COUNTS)} counts repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
