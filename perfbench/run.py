#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The benchmark is built from source as
its own CMake project (perfbench/CMakeLists.txt) into .bench_build/
at the root, then run once; its last line of standard output is the
JSON result. Flags may be written "--flag value" or "--flag=value";
anything else, including an unknown workload, exits 2.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("fig6_flash_contended", "shard8_readmostly", "fig7_ptp_replicated")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="End-to-end benchmark of the MILANA/SEMEL simulator.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the sampler self-test only")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be in 1..3600")
    return args


def build():
    """Configure (once) and build; all tool output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def git_commit():
    # Never look above the checkout for a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    args = parse_args(argv)
    if not build():
        return 1
    if args.self_test:
        return subprocess.run(["ctest", "--test-dir", BUILD,
                               "--output-on-failure"], cwd=ROOT).returncode
    print("provenance: git=%s" % git_commit(), flush=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload=%s" % args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
