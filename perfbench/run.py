#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <planet|overload|codesign|pod> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build under the current
directory); the build's output goes to stderr so that the last line of
stdout is the benchmark's JSON result. The process then becomes the
benchmark binary, so there is no child process left to wait for.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])
    return 1  # unreachable: execv replaces the process or raises


if __name__ == "__main__":
    sys.exit(main())
