#!/usr/bin/env python3
"""Build stacksim from source and run one workload of its benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload offchip-hv --seed 1 --seconds 20 --trace 0

Builds the benchmark package (perfbench/Cargo.toml) and the
`stacksim-serve` daemon in release mode into $CARGO_TARGET_DIR
(default `.bench_build`), then runs the benchmark with the given
arguments, pinned to one CPU. Build output goes to standard error; the
benchmark's last line of standard output is its JSON result. The exit
code is the benchmark's, or the failing build's.
"""

import os
import subprocess
import sys


def pin_to_one_cpu():
    """Run the benchmark, and the daemon it starts, on one CPU.

    Every workload is single-threaded or a closed loop of one client and
    one daemon, so one CPU costs no throughput; it removes migrations and
    cross-CPU wake-ups, the noisiest part of a sub-millisecond request on a
    virtual machine.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def main():
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--bin", "stacksim-serve"],
    ]
    for cmd in builds:
        code = subprocess.call(cmd, cwd=root, env=env, stdout=sys.stderr)
        if code != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return code if code > 0 else 1
    pin_to_one_cpu()
    bench = os.path.join(target, "release", "perfbench")
    serve = os.path.join(target, "release", "stacksim-serve")
    sys.stdout.flush()
    return subprocess.call([bench, *sys.argv[1:], "--serve-bin", serve], cwd=root)


if __name__ == "__main__":
    sys.exit(main())
