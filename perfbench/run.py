#!/usr/bin/env python3
"""Build and run the nAdroid repository benchmark.

    python3 perfbench/run.py --workload corpus-batch --seed 99 --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (a CMake project over ../src, Release) under .bench_build/;
later calls only rebuild what changed. The benchmark binary's standard
output is passed through, so its last line is the result JSON. Build
output goes to standard error. Everything the run writes stays under
.bench_build/ in the checkout.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("corpus-batch", "giant-app", "serve-edit")
RUN_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=99)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed not negative")

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("perfbench: the analyzer sources (src/) are missing from this "
              "checkout; nothing to build", file=sys.stderr)
        return 2

    out = root / ".bench_build"
    build = out / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build / "build.ninja").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build),
                      "-G", "Ninja", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build), "--target",
                  "nadroid_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=root).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 2

    (out / "traces").mkdir(parents=True, exist_ok=True)
    # Work paths are relative to the checkout root: serve responses embed
    # the .air path, and the recorded digests must not depend on where
    # the checkout lives.
    cmd = [str(build / "nadroid_perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", f".bench_build/work/{args.workload}",
           "--trace-out",
           f".bench_build/traces/{args.workload}-seed{args.seed}.json"]
    sys.stdout.flush()
    try:
        # run() kills the child on timeout and waits for it to exit.
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
