#!/usr/bin/env python3
"""Reduced-size self-check of the SparkScore benchmark.

Runs every workload named in BENCHMARK.json at toy size (--scale toy),
untraced and traced, and asserts for each run that it exits 0, passes its
correctness check with no failed operation, and prints exactly the metrics
(names and units) BENCHMARK.json declares. Then checks that the benchmark
fails cleanly - non-zero exit, no result line - in a directory that holds
only BENCHMARK.json and perfbench/.

Run from the repository root (takes about a minute after the build):

    python3 perfbench/selftest.py
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-selftest")


def run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)


def check_run(workload, trace, expected):
    done = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--scale", "toy"], ROOT)
    label = "%s trace=%d" % (workload, trace)
    if done.returncode != 0:
        return ["%s: exit %d\n%s" % (label, done.returncode, done.stderr[-3000:])]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (label, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("%s: correct=%s failed=%s\n%s" % (
            label, result.get("correct"), result.get("failed"),
            done.stderr[-3000:]))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted=%s" % (label, result.get("attempted")))
    metrics = result.get("metrics", {})
    printed = {name: value.get("unit") for name, value in metrics.items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        wrong = sorted(n for n in set(expected) & set(printed)
                       if expected[n] != printed[n])
        errors.append("%s: missing %s, unexpected %s, wrong units %s" % (
            label, missing, extra, wrong))
    for name, value in metrics.items():
        if not isinstance(value.get("value"), (int, float)):
            errors.append("%s: %s is not a number" % (label, name))
    print("%-22s %s" % (label, "ok" if not errors else "FAILED"), flush=True)
    return errors


def check_bare_directory(workload):
    """Without the program's sources the benchmark must fail, not report."""
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), SCRATCH)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(SCRATCH, "perfbench"))
    done = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", "0"], SCRATCH)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    label = "bare directory"
    if done.returncode == 0 or '"correct"' in done.stdout:
        print("%-22s FAILED" % label)
        return ["%s: exit %d, stdout %r" % (label, done.returncode,
                                            done.stdout[-500:])]
    print("%-22s ok (exit %d)" % (label, done.returncode))
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            errors += check_run(workload["name"], trace, declared[trace])
    errors += check_bare_directory(bench["workloads"][0]["name"])
    for error in errors:
        sys.stderr.write(error + "\n")
    print("selftest: %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
