#!/usr/bin/env python3
"""Gate on a bench_executor datapoint (stdlib only).

Hard requirements — these hold on any host, sanitized or not, because
they are structural, not timing-based:
  * the synchronous and overlapped runs produced bitwise-identical
    resampling results (`hashes_identical`);
  * the overlapped run actually exercised the I/O lane (exec.io_jobs > 0);
  * with more than one resampling batch, Z-block staging happened
    (exec.zblock_prefetches > 0).

Timing (overlapped vs synchronous seconds) is printed but NOT gated:
wall-clock comparisons at smoke scale on shared or sanitized hosts are
noise. tools/ss_prof.py --compare is the right tool for real runs.

Usage: check_executor_overlap.py <BENCH_executor.json>
Exit codes: 0 ok, 1 gate failed, 2 unreadable input.
"""
import json
import sys


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(argv[1], encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"check_executor_overlap: cannot read {argv[1]}: {error}",
              file=sys.stderr)
        return 2
    if doc.get("bench") != "bench_executor":
        print(f"check_executor_overlap: not a bench_executor datapoint: "
              f"{doc.get('bench')!r}", file=sys.stderr)
        return 2

    failures = []
    if not doc.get("hashes_identical"):
        hashes = doc.get("result_hash", {})
        failures.append(
            "result hashes differ between sync and overlapped runs: "
            f"{hashes.get('sync')} vs {hashes.get('overlap')}"
        )
    exec_counters = doc.get("exec", {})
    if exec_counters.get("io_jobs", 0) <= 0:
        failures.append("overlapped run enqueued no I/O lane jobs")
    batches = (doc.get("iters", 0) + doc.get("batch", 1) - 1) // max(
        1, doc.get("batch", 1))
    if batches > 1 and exec_counters.get("zblock_prefetches", 0) <= 0:
        failures.append(
            f"{batches} batches but no Z-blocks were staged on the lane"
        )

    seconds = doc.get("seconds", {})
    print(
        f"check_executor_overlap: sync {seconds.get('sync', 0):.3f}s vs "
        f"overlapped {seconds.get('overlap', 0):.3f}s (informational); "
        f"{exec_counters.get('io_jobs', 0)} lane jobs, "
        f"{exec_counters.get('zblock_prefetches', 0)} z-blocks, "
        f"{doc.get('evictions', {}).get('overlap', 0)} evictions"
    )
    if failures:
        for failure in failures:
            print(f"check_executor_overlap: FAIL: {failure}", file=sys.stderr)
        return 1
    print("check_executor_overlap: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
