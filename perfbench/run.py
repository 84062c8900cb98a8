#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the library sources plus
the benchmark binary, optimized, with NDEBUG) into $CARGO_TARGET_DIR
(default .bench_build) and runs one workload. Build output goes to stderr;
the binary's stdout is passed through, so the last stdout line is the
result JSON. Exits non-zero without a result when the build or the run
fails.
"""
import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

# The benchmark drives only the stable facade: none of its sources may name
# an entry point the roadmap deletes.
UNSTABLE = ["ExecBackend", "use_pool", "PartirJit", "ApplyManualTactic",
            "MeasureOnHardwareModel"]


def facade_violations():
    pattern = re.compile(r"\b(" + "|".join(UNSTABLE) + r")\b")
    found = []
    src = os.path.join(HERE, "src")
    for name in sorted(os.listdir(src)):
        with open(os.path.join(src, name), encoding="utf-8") as f:
            for number, line in enumerate(f, 1):
                for match in pattern.findall(line):
                    found.append(f"perfbench/src/{name}:{number}: {match}")
    return found


def run(cmd, timeout):
    """Runs cmd with stdout sent to stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout,
                              cwd=ROOT).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out after {timeout}s: {' '.join(cmd)}",
              file=sys.stderr)
        return 124


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        code = run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if code != 0:
            return code
    jobs = str(min(4, os.cpu_count() or 1))
    return run(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    violations = facade_violations()
    if violations:
        print("run.py: benchmark sources reference unstable entry points:\n  "
              + "\n  ".join(violations), file=sys.stderr)
        return 2

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    code = build(build_dir)
    if code != 0:
        print(f"run.py: build failed ({code})", file=sys.stderr)
        return code

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(target, "perfbench-out")]
    # A cache directory from the caller's environment would turn on the
    # disk tier of every default-options Partition and make the figures
    # depend on entries left by earlier runs.
    env = dict(os.environ)
    env.pop("PARTIR_CACHE_DIR", None)
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark timed out after {RUN_TIMEOUT_S}s",
              file=sys.stderr)
        return 124
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
