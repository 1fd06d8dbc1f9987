#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census|classify|warm-store \
        --seed N --seconds S --trace 0|1

The first run configures and builds the libraries and the rdv_perfbench
binary into .bench_build (RelWithDebInfo, the repository's default build
type); later runs rebuild only what changed. Build output goes to
stderr. The binary's stdout is printed only when it exits with 0, so its
last line, the JSON result, never appears for a failed run. A SIGTERM or
SIGINT stops the running child and waits for it before exiting.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SCRATCH = os.path.join(BUILD, "perfbench-scratch")
BINARY = os.path.join(BUILD, "rdv_perfbench")
REFERENCE = os.path.join(HERE, "census_reference.txt")
RUN_TIMEOUT_S = 170

child = None


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def stop_child(signum, _frame):
    if child is not None and child.poll() is None:
        child.kill()
        child.wait()
    sys.exit(128 + signum)


def run_child(command, timeout=None, capture=False):
    """Runs command to completion; returns (exit code, stdout or None).

    Without capture the child's stdout goes to stderr, keeping this
    script's stdout for the result alone.
    """
    global child
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE if capture else sys.stderr,
        text=True)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        out, _ = child.communicate()
        sys.stderr.write(out or "")
        fail(f"{os.path.basename(command[0])} exceeded {timeout} s")
    code = child.returncode
    child = None
    return code, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not (
        os.path.isdir(os.path.join(ROOT, "src"))
    ):
        fail("no repository sources next to perfbench/; nothing to build")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run_child(configure)[0] != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run_child(["cmake", "--build", BUILD, "--target", "rdv_perfbench",
                  "-j", jobs])[0] != 0:
        fail("build failed")


def main():
    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["census", "classify", "warm-store"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    shutil.rmtree(SCRATCH, ignore_errors=True)  # left by a killed run
    os.makedirs(SCRATCH)
    code, out = run_child(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--scratch", SCRATCH, "--reference", REFERENCE,
         "--spawn-ns", str(time.time_ns())],
        timeout=RUN_TIMEOUT_S, capture=True)
    if code != 0:
        sys.stderr.write(out)
        fail(f"rdv_perfbench exited with {code}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
