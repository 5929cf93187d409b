#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload warehouse --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The library is compiled from ../src into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Every file a run
writes goes to a fresh directory under .bench_out/, removed at exit; a traced
run also leaves .bench_out/<workload>-seed<n>.trace.json. The last line of
standard output is the result object; a failed build, output check or program
error exits non-zero without it.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per checkout; concurrent runs wait here.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "--target", target,
                      "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr[-4000:])
                fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s; run from a full checkout" % ROOT)

    out_root = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_root)
    try:
        if args.selftest:
            binary = build("perfbench_test")
            # The tests write their scratch files under TMPDIR.
            env = dict(os.environ, TMPDIR=workdir)
            sys.exit(subprocess.run([binary], env=env).returncode)
        run(args, out_root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, out_root, workdir):
    binary = build("perfbench")
    command = [binary, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace, "--workdir=" + workdir]
    if args.trace:
        command.append("--trace-out=" + os.path.join(
            out_root, "%s-seed%d.trace.json" % (args.workload, args.seed)))
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("benchmark exited with status %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result")
    if result.get("correct") is not True:
        fail("output checks failed")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
