#!/usr/bin/env python3
"""Gates a bench datapoint, or run-metrics files that must reach one result.

Usage:
  check_bench.py <BENCH_*.json> [--min-ratio=R]
      Gates one datapoint by its own `bench` field (bench_kernels,
      bench_pvalue or bench_scale; see the gate functions below).
      --min-ratio is bench_scale's throughput floor: the tightest budget's
      scores/s over the unlimited run's (default 0.5, "within 2x").
  check_bench.py <metrics.json> <metrics.json>... [--analyzer-active=0|1]
      Same-result mode over `sparkscore-run-metrics` files: every file's
      resampling.result_hash and resampling.replicates equal the first
      file's, and replicates > 0. The resampling drivers fold every
      result (observed statistic bits and exceedance counts) into the
      hash, so equal hashes mean bitwise-identical p-values. With
      --analyzer-active the first file is the run with the lock-order
      analyzer in its default mode, and its lock.* counters are gated too.

Exit codes: 0 every gate holds, 1 a gate failed, 2 unreadable or
incomplete input. A key that a gate reads is never defaulted: its absence
is exit 2. Stdlib only.
"""
import argparse
import json
import operator
import sys

OPS = {">=": operator.ge, ">": operator.gt, "==": operator.eq,
       "<=": operator.le}
HASH, REPLICATES = "resampling.result_hash", "resampling.replicates"


class Incomplete(Exception):
    """The input cannot be gated: unreadable, or a gated key is missing."""


def load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        raise Incomplete(f"cannot read {path}: {error}") from error


def need(obj, *keys):
    """obj[keys[0]][keys[1]]...; a missing key fails closed."""
    for key in keys:
        if not isinstance(obj, dict) or key not in obj:
            raise Incomplete(f"missing key '{'.'.join(keys)}'")
        obj = obj[key]
    return obj


def times_honestly(doc):
    """The one rule that skips timing gates: only an optimized, unsanitized
    build times its kernels honestly."""
    optimized, sanitized = need(doc, "optimized"), need(doc, "sanitized")
    if optimized and not sanitized:
        return True
    print(f"check_bench: timing gates skipped (optimized={optimized}, "
          f"sanitized={sanitized})")
    return False


# Each gate function yields (label, value, op, bound) rows; `report` holds
# value `op` bound.

def kernel_gates(doc, _args):
    yield ("cross-level outputs bitwise identical",
           need(doc, "bitwise_identical"), "==", True)
    yield ("sparse MAC bitwise identical to dense",
           need(doc, "sparse_bitwise_identical"), "==", True)
    # Not 4x: each block rounds its payload up to ceil(n/4) bytes.
    yield "2-bit genotype packing ratio", need(doc, "pack", "ratio"), ">=", 3.5
    levels = need(doc, "levels")
    for name, level in levels.items():
        if "decode_snp_seconds" in level:
            print(f"check_bench: {name}: decode "
                  f"{level['decode_snp_seconds']:.3g} s of sparse "
                  f"{level.get('sparse_snp_seconds', 0.0):.3g} s per SNP "
                  "(information only)")
        for shape, screen in level.get("screen", {}).items():
            print(f"check_bench: {name}: screen {shape}: Gram "
                  f"{screen['gram_seconds']:.3g} s, eigensolve "
                  f"{screen['eigen_seconds']:.3g} s (information only)")
    if not times_honestly(doc):
        return
    yield ("scalar sparse (row_sum) vs dense MAC speedup",
           need(levels, "scalar", "sparse_speedup"), ">=", 1.4)
    if "avx2" not in levels:
        print("check_bench: AVX2 unavailable on this host; SIMD gate skipped")
        return
    yield ("AVX2 row_sum vs scalar row_sum speedup",
           need(levels, "avx2", "row_sum_speedup"), ">=", 1.5)


def pvalue_gates(doc, _args):
    # Replicate counts are deterministic for a fixed seed: no host-speed
    # exemption applies.
    yield ("set-replicate savings vs exhaustive",
           need(doc, "savings_ratio"), ">=", 10.0)
    yield ("alpha=0.05 classification disagreements outside the exemption "
           "band", need(doc, "disagreements"), "==", 0)
    yield ("per-set tolerance violations",
           need(doc, "tolerance_violations"), "==", 0)
    yield ("sets refined (the screen fired)",
           need(doc, "hybrid", "refined_sets"), ">=", 1)
    yield ("early stops (the stopper fired)",
           need(doc, "hybrid", "early_stops"), ">=", 1)


def scale_gates(doc, args):
    runs = need(doc, "runs")
    # Recomputed from the runs, and the bench's own verdict as well.
    hashes = {need(run, "result_hash") for run in runs}
    yield "distinct result hashes across budgets", len(hashes), "==", 1
    yield ("bench verdict hashes_identical",
           need(doc, "hashes_identical"), "==", True)
    partitions = need(doc, "partitions")
    slack_bytes = need(doc, "rss_slack_mb") * 1024 * 1024
    for run in runs:
        budget = need(run, "budget_bytes")
        label = "unlimited" if budget == 0 else f"budget={budget}"
        yield f"{label}: store.corrupt", need(run, "corrupt"), "==", 0
        yield f"{label}: store opens", need(run, "store_opens"), ">=", 1
        # At least one frame per partition: the data streamed off the mmap.
        yield (f"{label}: frame reads",
               need(run, "frame_reads"), ">=", partitions)
        # peak_rss_bytes is 0 where /proc is unavailable: nothing measured.
        if budget > 0 and need(run, "peak_rss_bytes") > 0:
            yield (f"{label}: RSS delta bytes (budget + slack)",
                   need(run, "rss_delta_bytes"), "<=", budget + slack_bytes)
    unlimited = [run for run in runs if run["budget_bytes"] == 0]
    constrained = [run for run in runs if run["budget_bytes"] > 0]
    # One of each, so at least two runs.
    yield "unlimited (budget=0) runs", len(unlimited), ">=", 1
    yield "constrained (budget>0) runs", len(constrained), ">=", 1
    if unlimited and constrained:
        tightest = min(constrained, key=lambda run: run["budget_bytes"])
        base = need(unlimited[-1], "scores_per_sec")
        ratio = need(tightest, "scores_per_sec") / base if base > 0 else 0.0
        yield (f"tightest budget ({tightest['budget_bytes']} bytes) "
               "throughput / unlimited", ratio, ">=", args.min_ratio)


DATAPOINT_GATES = {"bench_kernels": kernel_gates, "bench_pvalue": pvalue_gates,
                   "bench_scale": scale_gates}


def same_result_gates(docs, args):
    first = need(docs[0], "counters")
    yield (f"{REPLICATES} (0 makes the comparison vacuous)",
           need(first, REPLICATES), ">", 0)
    for path, doc in zip(args.files[1:], docs[1:]):
        counters = need(doc, "counters")
        for key in (HASH, REPLICATES):
            yield (f"{key} of {path}",
                   need(counters, key), "==", need(first, key))
    if args.analyzer_active is None:
        return
    yield ("lock.cycles (the graph is acyclic)",
           need(first, "lock.cycles"), "==", 0)
    yield "lock.rank_violations", need(first, "lock.rank_violations"), "==", 0
    if args.analyzer_active == "1":
        yield ("lock.acquisitions (the analyzer observed the run)",
               need(first, "lock.acquisitions"), ">", 0)
        yield "lock.graph_nodes", need(first, "lock.graph_nodes"), ">", 0
    else:
        yield ("lock.acquisitions (the analyzer is inactive)",
               need(first, "lock.acquisitions"), "==", 0)


def report(label, value, op, bound):
    try:
        held = OPS[op](value, bound)
    except TypeError as error:
        raise Incomplete(f"{label}: {value!r} is not a number") from error
    shown = [f"{x:.4g}" if isinstance(x, float) else str(x)
             for x in (value, bound)]
    print(f"check_bench: {'ok' if held else 'FAIL'}: {label}: "
          f"{shown[0]} {op} {shown[1]}",
          file=sys.stdout if held else sys.stderr)
    return held


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+")
    parser.add_argument("--min-ratio", type=float, default=0.5)
    parser.add_argument("--analyzer-active", choices=("0", "1"))
    args = parser.parse_args(argv)
    if args.analyzer_active is not None and len(args.files) < 2:
        parser.error("--analyzer-active gates two or more run-metrics files")
    try:
        docs = [load(path) for path in args.files]
        if len(docs) == 1:
            bench = need(docs[0], "bench")
            if bench not in DATAPOINT_GATES:
                raise Incomplete(f"no gates for bench {bench!r}")
            gates = DATAPOINT_GATES[bench](docs[0], args)
        else:
            gates = same_result_gates(docs, args)
        # Every gated key is read before any verdict: a missing one is
        # exit 2 whatever the other gates say.
        failed = sum(not report(*gate) for gate in list(gates))
    except Incomplete as error:
        print(f"check_bench: {' '.join(args.files)}: {error}", file=sys.stderr)
        return 2
    if failed:
        print(f"check_bench: {failed} gate(s) failed", file=sys.stderr)
        return 1
    print("check_bench: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
