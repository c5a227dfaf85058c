#!/usr/bin/env python3
"""Build and run the entrace benchmark.

    python3 perfbench/run.py --workload batch|daemon|fleet --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list

Run from the root of a checkout.  The first call builds perfbench/ (a CMake
package of its own that compiles ../src) into .bench_build/perfbench; later
calls only rebuild what changed.  The benchmark binary then runs the workload and
prints a table of its metrics followed by one JSON result line, the last
line of standard output.  Build output and progress go to standard error.

Exit codes: 0 every report matched the reference; 1 a report did not;
2 usage or run error; 3 the build failed or there are no sources to build;
4 the run overran its time limit.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no entrace sources at {os.path.join(ROOT, 'src')}; nothing to build")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("build timed out")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def main(argv):
    if not build():
        return 3
    if "--list" in argv:
        return subprocess.run([BINARY, "--list"]).returncode
    work_dir = os.path.join(ROOT, ".bench_build", f"perfbench-work-{os.getpid()}")
    cmd = [BINARY, *argv, "--work-dir", work_dir, "--out-dir", OUT_DIR]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 4
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
