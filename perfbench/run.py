#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
`perfbench/` (a CMake project over the library sources in `src/`) in
Release mode under `.bench_build/`; later runs only re-check the build.
Build output goes to stderr, so the last line on stdout is the benchmark's
JSON result. Workloads: mlp_compute, bert_ckpt, mlp_tiny.

Exit status: the benchmark's own (0 only when every output check passed),
or non-zero without a result line when the build is impossible or fails.
"""

import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found under " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", BUILD, "--target", "avgbench", "-j", "4"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "avgbench")


def main():
    try:
        binary = build()
    except (subprocess.SubprocessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    workdir = os.path.join(ROOT, ".bench_build", "work-%d" % os.getpid())
    try:
        result = subprocess.run([binary] + sys.argv[1:] + ["--workdir", workdir],
                                cwd=ROOT, timeout=RUN_TIMEOUT_S)
        return result.returncode
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
