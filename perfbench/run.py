#!/usr/bin/env python3
"""Build and run the time-to-estimate benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload table1_scalar --seed 1 --seconds 20 --trace 0

The script builds the `perfbench` package (its own Cargo workspace, linking
the repository's crates by path) in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), then runs the binary with the given arguments.
Build output goes to stderr, so the binary's last stdout line — one JSON
object with `correct`, `attempted`, `failed` and `metrics` — is also the
last line of this script's stdout. Any build or run failure exits non-zero.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(here, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    scratch = os.path.join(target, "perfbench-scratch")
    run = subprocess.run(
        [binary, *sys.argv[1:], "--scratch", scratch], env=env, check=False
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
