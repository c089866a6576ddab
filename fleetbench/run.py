#!/usr/bin/env python3
"""Builds the fleet benchmark from source and runs one workload.

    python3 fleetbench/run.py --workload keyed100 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default: .bench_build in the working directory) and its output to stderr,
so the last line of standard output is the benchmark's JSON result. Exits
non-zero without a result if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(os.getcwd(), ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("fleetbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "fleetbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
