#!/usr/bin/env python3
"""Builds the benchmark (engine + `faure` CLI + driver) and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload table4|whatif|serve|verify \
        --seed N --seconds S --trace 0|1

The first call configures and builds into .bench_build/ (CMake, the
project in perfbench/CMakeLists.txt); later calls only rebuild what
changed. Build output goes to stderr. perfbench_driver's stdout is passed
through unchanged: its last line is the JSON result. Options after the
four above (e.g. --size N, --op-log FILE) are handed to perfbench_driver.
"""
import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"no engine sources here ({need} is missing)")
    build_dir = os.path.join(ROOT, BUILD_DIR)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench_driver", "faure"])
    # Keep the compiler's temporary files inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["table4", "whatif", "serve", "verify"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = ap.parse_known_args()

    build_dir = build()
    io_dir = os.path.join(build_dir, "io")
    os.makedirs(io_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--expected", os.path.join(HERE, "expected", "table4.txt"),
           "--faure", os.path.join(build_dir, "tools", "faure"),
           "--io-dir", io_dir]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            io_dir, f"trace-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd + extra).returncode)


if __name__ == "__main__":
    main()
