#!/usr/bin/env python3
"""Builds the benchmark from source and runs it.

    python3 perfbench/run.py --workload <batch_cold|lineup_warm|serve_closed> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default: .bench_build); cargo's output goes to standard error, so the
last line of standard output is the benchmark's result object.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(build.returncode or 1)
    binary = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    sys.stdout.flush()
    os.execv(binary, [binary, *sys.argv[1:], "--work-dir", work])


if __name__ == "__main__":
    main()
