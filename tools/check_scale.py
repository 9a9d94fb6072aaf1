#!/usr/bin/env python3
"""Gate on a bench_scale datapoint (stdlib only).

bench_scale streams a packed-genotype store through budget-constrained
Monte Carlo runs; this checker holds it to the out-of-core contract:

  * bitwise determinism — every budget produced the same
    resampling.result_hash (recomputed from the runs, not just the
    bench's own `hashes_identical` verdict);
  * zero store corruption (`corrupt == 0` in every run);
  * store evidence — every run opened the store and read at least one
    frame per partition (the data really streamed off the mmap);
  * the flat-RSS assertion — for every constrained run that could
    measure RSS (peak_rss_bytes > 0), rss_delta_bytes stays within
    budget_bytes + rss_slack_mb;
  * throughput — the tightest budget sustains at least --min-ratio
    (default 0.5, i.e. "within 2x") of the unlimited run's
    scores_per_sec. Timing-based, so the ratio is deliberately loose;
    tighten or relax per host with --min-ratio.

Usage: check_scale.py <BENCH_scale.json> [--min-ratio=0.5]
Exit codes: 0 ok, 1 gate failed, 2 unreadable input.
"""
import json
import sys


def main(argv):
    path = None
    min_ratio = 0.5
    for arg in argv[1:]:
        if arg.startswith("--min-ratio="):
            try:
                min_ratio = float(arg.split("=", 1)[1])
            except ValueError:
                print(f"check_scale: bad --min-ratio: {arg}", file=sys.stderr)
                return 2
        elif path is None:
            path = arg
        else:
            print(__doc__, file=sys.stderr)
            return 2
    if path is None:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"check_scale: cannot read {path}: {error}", file=sys.stderr)
        return 2
    if doc.get("bench") != "bench_scale":
        print(f"check_scale: not a bench_scale datapoint: "
              f"{doc.get('bench')!r}", file=sys.stderr)
        return 2

    runs = doc.get("runs", [])
    if len(runs) < 2:
        print(f"check_scale: need >= 2 runs (got {len(runs)})", file=sys.stderr)
        return 1

    failures = []

    hashes = {run.get("result_hash") for run in runs}
    if len(hashes) != 1 or not doc.get("hashes_identical"):
        failures.append(f"result hashes differ across budgets: {sorted(hashes)}")

    partitions = doc.get("partitions", 0)
    slack_bytes = doc.get("rss_slack_mb", 0) * 1024 * 1024
    unlimited = None
    tightest = None
    for run in runs:
        budget = run.get("budget_bytes", 0)
        label = "unlimited" if budget == 0 else f"budget={budget}"
        if run.get("corrupt", 0) != 0:
            failures.append(f"{label}: store.corrupt = {run['corrupt']}")
        if run.get("store_opens", 0) < 1:
            failures.append(f"{label}: store was never opened")
        if run.get("frame_reads", 0) < partitions:
            failures.append(
                f"{label}: only {run.get('frame_reads', 0)} frame reads for "
                f"{partitions} partitions — data did not stream off the store"
            )
        if budget == 0:
            unlimited = run
        else:
            if tightest is None or budget < tightest["budget_bytes"]:
                tightest = run
            if run.get("peak_rss_bytes", 0) > 0:
                delta = run.get("rss_delta_bytes", 0)
                if delta > budget + slack_bytes:
                    failures.append(
                        f"{label}: RSS grew {delta} bytes > budget + "
                        f"{doc.get('rss_slack_mb', 0)} MiB slack"
                    )

    if unlimited is None:
        failures.append("no unlimited (budget=0) baseline run")
    if tightest is None:
        failures.append("no constrained (budget>0) run")

    ratio = None
    if unlimited is not None and tightest is not None:
        base = unlimited.get("scores_per_sec", 0.0)
        tight = tightest.get("scores_per_sec", 0.0)
        ratio = (tight / base) if base > 0 else 0.0
        if ratio < min_ratio:
            failures.append(
                f"tightest budget ({tightest['budget_bytes']} bytes) runs at "
                f"{ratio:.2f}x unlimited throughput, below the {min_ratio}x "
                "floor"
            )

    if tightest is not None:
        print(
            f"check_scale: {len(runs)} runs, tightest budget "
            f"{tightest['budget_bytes']} bytes: "
            f"dRSS {tightest.get('rss_delta_bytes', 0) / 2**20:.1f} MiB, "
            f"{tightest.get('frame_reads', 0)} frame reads"
            + (f", {ratio:.2f}x unlimited throughput" if ratio is not None
               else "")
        )
    if failures:
        for failure in failures:
            print(f"check_scale: FAIL: {failure}", file=sys.stderr)
        return 1
    print("check_scale: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
