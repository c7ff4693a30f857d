#!/usr/bin/env python3
"""Builds the vmsv engine from this checkout and runs one benchmark workload.

    python3 perfbench/run.py --workload adapt --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of the source tree. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
--self-test builds and runs the unit tests of the benchmark's helpers.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, targets):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target"] +
                   targets, stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    try:
        if args.self_test:
            build(build_dir, ["perfbench_test"])
            return subprocess.run(
                [os.path.join(build_dir, "perfbench_test")]).returncode
        if not args.workload:
            parser.error("--workload is required")
        build(build_dir, ["perfbench"])
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1

    scratch = os.path.join(build_dir, "scratch")
    os.makedirs(scratch, exist_ok=True)
    return subprocess.run([
        os.path.join(build_dir, "perfbench"), "--workload", args.workload,
        "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace,
        "--scratch-dir", scratch]).returncode


if __name__ == "__main__":
    sys.exit(main())
