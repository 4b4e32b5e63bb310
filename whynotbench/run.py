#!/usr/bin/env python3
"""Build and run the why-not benchmark.

    python3 whynotbench/run.py --workload cardb_memory [--seed 20130408] [--seconds 15] [--trace 0|1]

Run from the repository root. Builds two release binaries of the
benchmark package in `whynotbench/` against the repository's crates: a
plain one for timed runs and one with the `trace` feature (the
program's own `obs` counters) for traced runs. Builds go under
$CARGO_TARGET_DIR (default `.bench_build`). Cargo's output goes to
stderr; the benchmark's result is the last line of stdout.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
VARIANTS = {"plain": [], "traced": ["--features", "trace"]}


def build(variant, target_root):
    target = os.path.join(target_root, "whynotbench-" + variant)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target,
    ] + VARIANTS[variant]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    if done.returncode != 0:
        return None
    return os.path.join(target, "release", "whynotbench")


def main():
    # The benchmark builds the program from the repository's sources;
    # without them there is nothing to measure.
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        print("whynotbench: the repository's sources are not next to whynotbench/", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    traced = False
    for i, a in enumerate(args[:-1]):
        if a == "--trace":
            traced = args[i + 1] == "1"
    target_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    # Build both variants on every run (a no-op once built), so the
    # first run of a checkout pays for all compilation.
    binaries = {v: build(v, target_root) for v in VARIANTS}
    if None in binaries.values():
        print("whynotbench: build failed", file=sys.stderr)
        return 3
    exe = binaries["traced" if traced else "plain"]
    return subprocess.run([exe] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
