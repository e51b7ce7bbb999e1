#!/usr/bin/env python3
"""Build the benchmark and ccdpd from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload tables|rivals|jobs --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Build output goes to $CARGO_TARGET_DIR (default: .bench_build). The last
line of stdout is the result object printed by the benchmark binary.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target_dir):
    """Build ccdpd with the repository's own release profile and the
    benchmark package with the same settings. Returns the two binaries."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "ccdp-serve", "--bin", "ccdpd"],
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "ccdpd"), os.path.join(release, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no repository at " + ROOT)
    target_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    ccdpd, bench = build(target_dir)
    cmd = [bench, *sys.argv[1:], "--ccdpd", ccdpd]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
