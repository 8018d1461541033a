#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

The release build goes to $CARGO_TARGET_DIR (default `.bench_build`);
cargo's output goes to stderr, so the benchmark's JSON result stays the
last line of stdout. Exits non-zero without a result when the build or
the run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
