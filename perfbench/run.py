#!/usr/bin/env python3
"""Builds the benchmark and the `repro` binary from source, then runs one
workload of the cestim benchmark.

    python3 perfbench/run.py --workload paper-suite|sim-sweep|serve-mix \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. `--workload all` runs the
three workloads one after another and prints each one's result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-suite", "sim-sweep", "serve-mix"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args, cwd):
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=cwd,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0:
        fail(f"build failed: cargo build {' '.join(args)}")


def main(argv):
    for needed in ["Cargo.toml", "crates", "vendor"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to perfbench/: run from a full checkout")
    target = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    )
    os.environ["CARGO_TARGET_DIR"] = target
    cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], ROOT)
    cargo_build(["-p", "cestim-bench", "--bin", "repro"], ROOT)
    binary = os.path.join(target, "release", "perfbench")
    fixed = [
        "--repro", os.path.join(target, "release", "repro"),
        "--pins", os.path.join(HERE, "pinned.json"),
        "--spec", os.path.join(ROOT, "BENCHMARK.json"),
    ]
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == ["all"]:
        i = argv.index("--workload")
        rest = argv[:i] + argv[i + 2:]
        codes = [
            subprocess.run([binary, "--workload", w, *rest, *fixed], cwd=ROOT).returncode
            for w in WORKLOADS
        ]
        return max(codes)
    return subprocess.run([binary, *argv, *fixed], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
