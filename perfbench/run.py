#!/usr/bin/env python3
"""Build the BERRY benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <train_step|deploy_rollout> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo package (perfbench/Cargo.toml) with path
dependencies on the repository's crates.  This script builds it in release
mode (into $CARGO_TARGET_DIR, default .bench_build/), runs the binary with
the same arguments and prints the binary's result object as the last line
of standard output.  Everything else the run prints (build output, log
lines of the in-process server) goes to standard error.  The exit code is
non-zero, and no result is printed, if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def run(cmd, timeout, env=None):
    """Run cmd from the repository root; stdout is captured, stderr passes."""
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: {cmd[0]} exceeded {timeout} s", file=sys.stderr)
        return None


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = run(["cargo", "build", "--release", "--offline", "--quiet",
                 "--manifest-path", os.path.join(HERE, "Cargo.toml")],
                BUILD_TIMEOUT_S, env)
    if build is None or build.returncode != 0:
        if build is not None:
            sys.stderr.write(build.stdout)
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "berry-perfbench")
    result = run([binary] + sys.argv[1:], RUN_TIMEOUT_S)
    if result is None:
        return 1
    lines = result.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if result.returncode != 0 or not lines:
        print(f"perfbench: benchmark exited with {result.returncode}",
              file=sys.stderr)
        return result.returncode or 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
