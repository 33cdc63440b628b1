#!/usr/bin/env python3
"""Builds and runs the fxrz end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload snapshot-sz --seed 1 --seconds 10 --trace 0

Builds the `fxrz-perfbench` package in release mode (into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs it with the given
arguments. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Run records are written
to `<target dir>/records/`.
"""

import os
import subprocess
import sys


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    manifest = os.path.join(bench_dir, "Cargo.toml")
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates")
    ):
        print("error: the fxrz sources are not next to perfbench/", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(os.getcwd(), target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode or 1

    try:
        commit = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    env["FXRZ_BENCH_COMMIT"] = commit
    exe = os.path.join(target, "release", "fxrz-perfbench")
    args = sys.argv[1:]
    if "--record-dir" not in args:
        args += ["--record-dir", os.path.join(target, "records")]
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
