#!/usr/bin/env python3
"""Builds and runs the repository benchmark, one workload per call.

Usage, from the repository root:

    python3 perfbench/run.py --workload <table4-msed|fleet-lifetime|service-spool> \
        --seed <n> --seconds <s> --trace <0|1>

The Rust package beside this file is built in release mode, offline, into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then run
with the same arguments. Its report goes to stdout; the last line is the
JSON result. Scratch files (spools, checkpoints, span dumps) live under
.bench_build/perfbench-work. A failed build or run exits non-zero without
printing a result.
"""

import os
import subprocess
import sys

# Each run must end within 180 s; the binary itself stops adding rounds
# well before this.
RUN_TIMEOUT_S = 175


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")
    work = os.path.join(root, ".bench_build", "perfbench-work")
    try:
        run = subprocess.run(
            [exe, *sys.argv[1:], "--work-dir", work], timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
