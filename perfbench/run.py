#!/usr/bin/env python3
"""Builds and runs the replication benchmark for one workload and seed.

    python3 perfbench/run.py --workload tree_updates --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark and the library it measures (Release) under .bench_build/; later
runs rebuild only what changed. Sockets, span dumps and node work
directories go under .bench_out/. The last line of standard output is the
JSON result; everything before it is the report (every metric by name, with
unit and sample count, and the run context). The exit code is non-zero when
a correctness gate fails or the run cannot be made.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = ".bench_out"
WORKLOADS = ("tree_updates", "many_replicas", "replica_reads")
RUN_TIMEOUT_S = 160


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("no library sources under src/ in " + ROOT)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "fbdr_node", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def run(args):
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--node-bin", os.path.join(BUILD_DIR, "fbdr", "netio", "fbdr_node"),
               "--out-dir", OUT_DIR]
    sys.stdout.flush()
    # A session of its own, so every fbdr_node the run spawns can be stopped
    # with it, whatever state the run ends in.
    process = subprocess.Popen(command, start_new_session=True)
    try:
        process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s; stopping it" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    # A run stopped at the timeout reports -SIGKILL, never 0.
    return process.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    started = time.monotonic()
    if not build():
        return 2
    log("build ready in %.1f s" % (time.monotonic() - started))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
