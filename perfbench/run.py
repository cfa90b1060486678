#!/usr/bin/env python3
"""Builds the release `ffmr` binary and the benchmark, then runs it.

Run from the repository root:

    python3 perfbench/run.py --workload serve_unique --seed 1 --seconds 10 --trace 0

Both builds go to $CARGO_TARGET_DIR (default: `target`). The last line
of standard output is the benchmark's JSON result; build output and
progress go to standard error.
"""

import os
import subprocess
import sys


def build(args, env):
    done = subprocess.run(["cargo", "build", "--release", "--quiet", *args],
                          env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: cargo build {' '.join(args)} failed")


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or "target")
    env["CARGO_TARGET_DIR"] = target
    build(["--bin", "ffmr"], env)
    build(["--manifest-path", os.path.join("perfbench", "Cargo.toml")], env)
    release = os.path.join(target, "release")
    bench = os.path.join(release, "ffmr-perfbench")
    done = subprocess.run([bench, "--ffmr", os.path.join(release, "ffmr"), *sys.argv[1:]])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
