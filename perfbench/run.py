#!/usr/bin/env python3
"""Builds and runs the weblint++ end-to-end benchmark.

    python3 perfbench/run.py --workload site_lint --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds the weblint++ libraries from ../src and the benchmark in Release
under .bench_build/ at the repository root (incrementally after the first
time), then runs one workload. The last line of standard output is the
run's JSON result; the lines before it record the git SHA, nproc, the
compiler, the build type and the SIMD level. Build output goes to standard
error only when the build fails. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("site_lint", "crawl_recheck", "gateway_serve")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_quietly(command):
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("command failed: " + " ".join(command), 1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("weblint++ sources not found at %s; run from a full checkout"
             % os.path.join(ROOT, "src"))
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) not in f.read():
                # A build tree configured for another checkout: start over.
                run_quietly(["cmake", "-E", "rm", "-rf", BUILD])
    if not os.path.isfile(cache):
        run_quietly(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, os.cpu_count() or 1))
    run_quietly(["cmake", "--build", BUILD, "-j", jobs,
                 "--target", "perfbench", "perfbench_selftest"])


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=False)
    except OSError:
        return "unknown"
    sha = done.stdout.strip()
    return sha if done.returncode == 0 and sha else "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own checks against tampered results")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    os.makedirs(OUT, exist_ok=True)
    if args.self_test:
        command = [os.path.join(BUILD, "perfbench_selftest"), "--work-dir", OUT]
    else:
        command = [os.path.join(BUILD, "perfbench"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--work-dir", OUT, "--git-sha", git_sha()]
    sys.stdout.flush()
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
