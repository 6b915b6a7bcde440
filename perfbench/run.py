#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

The benchmark binary is built in release mode, offline, into
$CARGO_TARGET_DIR (default: .bench_build in the checkout). Cargo's output
goes to standard error, so the last line of standard output is the
benchmark's result document. Runs are single-threaded (TDFM_THREADS=1).
Exits non-zero without a result when the build fails, e.g. when the
repository's crates are not next to this directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    env["TDFM_THREADS"] = "1"
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
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "tdfm-perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
