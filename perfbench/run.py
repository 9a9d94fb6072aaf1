#!/usr/bin/env python3
"""SparkScore benchmark: build the benchmark program from source, run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale full|toy]

Builds perfbench/ (and the program's libraries from src/) into
.bench_build/perfbench on first use, then runs it. The program's
standard output is passed through; its last line is the result JSON
({"correct", "attempted", "failed", "metrics"}). Exits non-zero, without
printing a result, when the build or the run fails.

Workloads: mc-resident, mc-spill, perm, hybrid (see perfbench/README.md).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_ROOT = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
BUILD_DIR = os.path.join(ROOT, BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "sparkscore_perfbench")


def build():
    """Configures (once) and builds the benchmark program; build output goes to stderr."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def main(argv):
    if not build():
        return 2
    work = os.path.join(ROOT, BUILD_ROOT)
    command = [BINARY] + argv + [
        "--workdir", os.path.join(work, "perfbench-work"),
        "--outdir", os.path.join(work, "perfbench-out"),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write("perfbench: benchmark program exited with %d\n" % done.returncode)
        return done.returncode or 2
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
