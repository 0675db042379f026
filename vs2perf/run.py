#!/usr/bin/env python3
"""Builds vs2d and the benchmark from source, then runs one benchmark run.

Usage (from the root of a checkout):

    python3 vs2perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Both binaries are built in release mode into $CARGO_TARGET_DIR (default
`.bench_build` at the checkout root); the first run builds, later runs
reuse the build. The run's last stdout line is the result JSON; build
output and progress go to stderr, and the full report is written under
`.bench_out/`. Exits non-zero without a result when the repository
sources are missing or a build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args, env):
    """Runs one cargo build at the checkout root; build output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main():
    for needed in ("Cargo.toml", "Cargo.lock", os.path.join("crates", "serve", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"vs2perf: {needed} not found: run from a full checkout", file=sys.stderr)
            return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(["-p", "vs2-serve", "--bin", "vs2d"], env):
        print("vs2perf: building vs2d failed", file=sys.stderr)
        return 2
    if not build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env):
        print("vs2perf: building the benchmark failed", file=sys.stderr)
        return 2
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "vs2perf"),
        "run",
        *sys.argv[1:],
        "--vs2d",
        os.path.join(release, "vs2d"),
        "--out",
        os.path.join(ROOT, ".bench_out"),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
