#!/usr/bin/env python3
"""Validates a SparkScore Chrome-trace JSON (and optionally the run-metrics
JSON) produced by `sparkscore ... trace=<file> metrics=<file>`.

Checks, stdlib only:
  * the trace parses as JSON and has the trace_event envelope;
  * every event carries name/ph/ts/pid/tid, with a known phase and a known
    category (`cat`) — an unknown category means a producer emitted a new
    event family without registering it here and in docs/OBSERVABILITY.md;
  * B/E spans balance per thread and nest (LIFO) with matching names;
  * timestamps are non-decreasing (events are driver-sorted);
  * the metrics JSON (if given) matches schema sparkscore-run-metrics-v3,
    its per-stage histogram counts sum to the stage's task count, its
    cache object carries exactly the cache key set (no spill keys), its
    kernel object names a known SIMD dispatch level and carries the
    genotype packing byte counters, its store object carries the
    genotype-store counter set (opens/frame I/O/prefetch/corrupt), and
    its timeline section (v2) is
    internally consistent: known phase names, per-stage phase_seconds
    arrays of the right arity, stage task counts matching the v1 stage
    list, critical-path spans summing to the advertised total, and the
    critical path bounded by the measured wall-clock.

Exit code 0 and a one-line summary on success; 1 with a diagnostic on the
first violation. Used by the `trace_smoke` ctest; see docs/OBSERVABILITY.md.

Usage: check_trace.py <trace.json> [metrics.json]
"""
import json
import sys

KNOWN_PHASES = {"B", "E", "i"}

# Every event family the engine emits; see docs/OBSERVABILITY.md. `phase`
# is the timeline profiler's nested per-task phase spans (fetch/decode/
# handoff); `prefetch` is the async executor's I/O-lane spans (cache
# prefetches and Monte Carlo Z-block staging).
KNOWN_CATEGORIES = {
    "stage", "task", "algo", "batch", "replicate",
    "cache", "dfs", "broadcast", "fault", "phase", "prefetch", "store",
}

# The timeline profiler's phase vocabulary, in TaskPhase enum order.
TIMELINE_PHASES = (
    "queue_wait", "fetch", "decode", "compute", "spill_write", "handoff",
    "prefetch", "io_wait",
)

# The cache section: the v1 keys. v3 removed the spill-tier keys (spills,
# spill_bytes, reloads, reload_nanos, spill_corrupt, bytes_spilled).
# Consumers key on these names.
CACHE_KEYS = (
    "hits", "misses", "insertions", "evictions", "dropped_by_failure",
    "bytes_cached",
)

# The kernel section: the SIMD dispatch level in effect (numeric + name)
# and the 2-bit genotype packing byte counters.
KERNEL_KEYS = ("dispatch", "dispatch_name", "packed_bytes", "unpacked_bytes")
KERNEL_DISPATCH_NAMES = {"scalar", "avx2", "unknown"}

# The adaptive p-value engine section: mirrors the pvalue.* counters
# (all zeros for legacy pure-resampling runs).
PVALUE_KEYS = (
    "analytic_screens", "refined_sets", "early_stops", "replicates_saved",
)

# The memory-mapped genotype store section: mirrors the store.* counters
# (all zeros for runs that never open or stage a store file).
STORE_KEYS = (
    "opens", "frame_reads", "read_bytes", "frame_writes", "write_bytes",
    "prefetch_frames", "corrupt",
)


def fail(message):
    print(f"check_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    """Loads a JSON artifact ('-' = stdin, pairing with the producers'
    metrics=-/trace=- streaming mode), failing cleanly on the shapes a
    crashed or sanitizer-killed producer leaves behind: missing file,
    empty file, or a partially written (truncated) document."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
    except OSError as error:
        fail(f"cannot read {path}: {error} (did the producer crash?)")
    if not text.strip():
        fail(f"{path} is empty — producer was likely killed before writing "
             "(e.g. by a sanitizer abort)")
    if path == "-":
        # Streamed mode shares the pipe with the producer's human-readable
        # output; the document starts at the first '{'.
        start = text.find("{")
        if start < 0:
            fail("stdin carries no JSON document")
        try:
            doc, _ = json.JSONDecoder().raw_decode(text[start:])
            return doc
        except json.JSONDecodeError as error:
            fail(f"stdin is not valid JSON (truncated write?): {error}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        fail(f"{path} is not valid JSON (truncated write?): {error}")


def check_trace(path):
    doc = load_json(path)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path} has no traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"{path} has an empty traceEvents array")

    stacks = {}  # tid -> stack of open span names
    last_ts = None
    counts = {"B": 0, "E": 0, "i": 0}
    for n, event in enumerate(events):
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                fail(f"event #{n} is missing '{key}': {event}")
        phase = event["ph"]
        if phase not in KNOWN_PHASES:
            fail(f"event #{n} has unknown phase '{phase}'")
        category = event.get("cat")
        if category not in KNOWN_CATEGORIES:
            fail(f"event #{n} has unknown category '{category}'")
        counts[phase] += 1
        ts = event["ts"]
        if last_ts is not None and ts < last_ts:
            fail(f"event #{n} goes back in time ({ts} < {last_ts})")
        last_ts = ts
        stack = stacks.setdefault(event["tid"], [])
        if phase == "B":
            stack.append(event["name"])
        elif phase == "E":
            if not stack:
                fail(f"event #{n}: End with no open span on tid {event['tid']}")
            opened = stack.pop()
            if opened != event["name"]:
                fail(
                    f"event #{n}: End '{event['name']}' does not match "
                    f"open span '{opened}' on tid {event['tid']}"
                )
    for tid, stack in stacks.items():
        if stack:
            fail(f"tid {tid} has unclosed spans: {stack}")
    if counts["B"] == 0:
        fail("trace contains no spans at all")
    return counts


def check_timeline(path, doc):
    """Validates the v2 timeline section against itself and the v1 stage
    list it annotates."""
    timeline = doc["timeline"]
    for key in ("collected", "wall_seconds", "straggler_mad_k", "phases",
                "stages", "critical_path", "workers"):
        if key not in timeline:
            fail(f"{path} timeline section is missing '{key}'")
    if tuple(timeline["phases"]) != TIMELINE_PHASES:
        fail(f"{path} timeline.phases is {timeline['phases']}")
    if not timeline["collected"]:
        if timeline["stages"] or timeline["workers"]:
            fail(f"{path} timeline not collected but carries stages/workers")
        return
    v1_tasks = {stage["id"]: stage["tasks"] for stage in doc["stages"]}
    wall = timeline["wall_seconds"]
    for stage in timeline["stages"]:
        sid = stage["id"]
        if sid not in v1_tasks:
            fail(f"{path} timeline stage {sid} has no v1 stage entry")
        if stage["tasks"] != v1_tasks[sid]:
            fail(
                f"{path} timeline stage {sid} has {stage['tasks']} tasks, "
                f"v1 stage list says {v1_tasks[sid]}"
            )
        for key in ("phase_seconds",):
            if len(stage[key]) != len(TIMELINE_PHASES):
                fail(f"{path} stage {sid} {key} has arity {len(stage[key])}")
        if len(stage["critical"]["phase_seconds"]) != len(TIMELINE_PHASES):
            fail(f"{path} stage {sid} critical phase_seconds arity is wrong")
        if any(value < 0 for value in stage["phase_seconds"]):
            fail(f"{path} stage {sid} has a negative phase duration")
    critical = timeline["critical_path"]
    span_sum = sum(span["seconds"] for span in critical["spans"])
    if abs(span_sum - critical["seconds"]) > 1e-6 + 1e-3 * abs(span_sum):
        fail(
            f"{path} critical-path spans sum to {span_sum}, section "
            f"advertises {critical['seconds']}"
        )
    # The defining invariant: stages run sequentially from the driver, so
    # the per-stage critical chain can never exceed the measured wall.
    if critical["seconds"] > wall * (1 + 1e-6) + 1e-6:
        fail(
            f"{path} critical path {critical['seconds']}s exceeds wall "
            f"{wall}s"
        )
    for worker in timeline["workers"]:
        if worker["busy_seconds"] > wall * (1 + 1e-6) + 1e-6:
            fail(
                f"{path} worker {worker['worker']} busy "
                f"{worker['busy_seconds']}s exceeds wall {wall}s"
            )
        if not (0 <= worker["utilization"] <= 1 + 1e-6):
            fail(
                f"{path} worker {worker['worker']} utilization "
                f"{worker['utilization']} out of range"
            )


def check_metrics(path):
    doc = load_json(path)
    if doc.get("schema") != "sparkscore-run-metrics-v3":
        fail(f"{path} schema is {doc.get('schema')!r}")
    for key in ("totals", "stages", "cache", "broadcast_bytes", "kernel",
                "pvalue", "store", "timeline", "counters"):
        if key not in doc:
            fail(f"{path} is missing '{key}'")
    for key in CACHE_KEYS:
        if key not in doc["cache"]:
            fail(f"{path} cache section is missing '{key}'")
    for key in doc["cache"]:
        if key not in CACHE_KEYS:
            fail(f"{path} cache section has unknown key '{key}'")
    for key in KERNEL_KEYS:
        if key not in doc["kernel"]:
            fail(f"{path} kernel section is missing '{key}'")
    for key in PVALUE_KEYS:
        if key not in doc["pvalue"]:
            fail(f"{path} pvalue section is missing '{key}'")
    for key in STORE_KEYS:
        if key not in doc["store"]:
            fail(f"{path} store section is missing '{key}'")
    if doc["kernel"]["dispatch_name"] not in KERNEL_DISPATCH_NAMES:
        fail(
            f"{path} kernel.dispatch_name is "
            f"{doc['kernel']['dispatch_name']!r}"
        )
    total_tasks = 0
    for stage in doc["stages"]:
        hist = stage["task_seconds_hist"]
        if len(hist["counts"]) != len(hist["le"]) + 1:
            fail(f"stage {stage['id']}: histogram is missing the overflow bucket")
        if sum(hist["counts"]) != stage["tasks"]:
            fail(
                f"stage {stage['id']}: histogram sums to "
                f"{sum(hist['counts'])}, expected {stage['tasks']} tasks"
            )
        total_tasks += stage["tasks"]
    if doc["totals"]["tasks"] != total_tasks:
        fail(
            f"totals.tasks={doc['totals']['tasks']} but stages sum to "
            f"{total_tasks}"
        )
    check_timeline(path, doc)
    return total_tasks


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        return 2
    counts = check_trace(argv[1])
    summary = (
        f"{counts['B']} spans, {counts['i']} instants in {argv[1]}"
    )
    if len(argv) == 3:
        tasks = check_metrics(argv[2])
        summary += f"; {tasks} tasks in {argv[2]}"
    print(f"check_trace: OK: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
