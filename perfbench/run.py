#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mine_census --seed 1 --seconds 25 --trace 0

The first run configures and builds perfbench/ (the frapp library sources
plus the benchmark program) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when it is unset; later runs only re-check the build. The last
line of standard output is the benchmark's result object; build logs and
diagnostics go to standard error. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("mine_census", "append_window", "serve_zipf", "dist_warm")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170
WORK_DIR = ".bench_work"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds frapp_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "frapp", "pipeline", "privacy_pipeline.h")):
        fail("frapp library sources not found under %s/src: run from a full checkout" % ROOT)
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", build_dir, "--target", "frapp_perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "frapp_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    finally:
        try:
            os.rmdir(WORK_DIR)  # only when the run left it empty
        except OSError:
            pass
    if run.returncode != 0:
        fail("workload %s exited with code %d" % (args.workload, run.returncode))

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("workload %s printed no result line" % args.workload)
    if set(result) != RESULT_KEYS:
        fail("result keys %s, expected %s" % (sorted(result), sorted(RESULT_KEYS)))
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
