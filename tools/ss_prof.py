#!/usr/bin/env python3
"""Offline profile analysis for SparkScore run artifacts (stdlib only).

Works from the `timeline` section of a sparkscore-run-metrics-v2, -v3 or
-v4 document (the section is the same in all three; produced with
`metrics=<file>`; `-` reads stdin, pairing with the producers'
`metrics=-` streaming mode).

Modes:
  ss_prof.py <metrics.json>
      Render the run profile: critical path, per-stage phase breakdown,
      stragglers, per-worker utilization. A human-readable second opinion
      on the in-process FormatProfileReport.

  ss_prof.py --check <metrics.json> <trace.json>
      Cross-check the in-process analyzer against the raw Chrome trace:
      re-derive each stage's critical task chain from the trace's task
      spans and reconcile the totals with the JSON's critical_path
      section, and assert the analyzer's invariants (critical path <=
      wall-clock; per-stage span sum == advertised total). Exits 1 on
      any discrepancy beyond tolerance. Use artifacts from a single run
      command (the tracer accumulates across selftest sub-runs).

  ss_prof.py --compare <before.json> <after.json> [--threshold T]
      Perf-regression gate: exits 1 when `after`'s critical path exceeds
      `before`'s by more than T (fractional, default 0.10 = 10%), with a
      per-stage breakdown of where the time went. Exits 0 otherwise.

Exit codes: 0 ok, 1 check/regression failure, 2 usage or unreadable input.
Validated structurally by tools/check_trace.py; exercised by the
`profile_smoke` ctest. See docs/OBSERVABILITY.md.
"""
import json
import sys

# Keep in sync with TaskPhase in src/engine/task.hpp.
PHASES = (
    "queue_wait", "fetch", "decode", "compute", "spill_write", "handoff",
    "prefetch", "io_wait",
)

# Reconciliation tolerances between the in-process analyzer (steady
# clock at nanosecond resolution) and the trace-derived recomputation
# (microsecond resolution, events recorded at slightly different
# instants than the timeline's timestamps).
ABS_TOL_S = 0.010
REL_TOL = 0.25


def die(message, code=2):
    print(f"ss_prof: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
    except OSError as error:
        die(f"cannot read {path}: {error}")
    start = text.find("{")
    if start < 0:
        die(f"{path} carries no JSON document")
    try:
        doc, _ = json.JSONDecoder().raw_decode(text[start:])
        return doc
    except json.JSONDecodeError as error:
        die(f"{path} is not valid JSON: {error}")


def load_timeline(path):
    doc = load_json(path)
    schema = doc.get("schema")
    if schema not in ("sparkscore-run-metrics-v2", "sparkscore-run-metrics-v3",
                      "sparkscore-run-metrics-v4"):
        die(f"{path}: schema {schema!r} (need sparkscore-run-metrics-v2 to -v4)")
    timeline = doc.get("timeline")
    if timeline is None:
        die(f"{path}: no timeline section")
    if not timeline.get("collected"):
        die(f"{path}: timeline not collected — rerun with profile=1", 1)
    return doc, timeline


def fmt_seconds(value):
    return f"{value:.4f}"


def report(path):
    _, timeline = load_timeline(path)
    wall = timeline["wall_seconds"]
    critical = timeline["critical_path"]
    share = 100.0 * critical["seconds"] / wall if wall > 0 else 0.0
    print(
        f"run: wall {fmt_seconds(wall)}s, critical path "
        f"{fmt_seconds(critical['seconds'])}s ({share:.1f}%) across "
        f"{len(critical['spans'])} stages"
    )
    print("\ncritical path (stage-binding tasks):")
    for span in critical["spans"]:
        pct = (
            100.0 * span["seconds"] / critical["seconds"]
            if critical["seconds"] > 0
            else 0.0
        )
        print(
            f"  stage {span['stage']:>3}  partition {span['partition']:>3}  "
            f"{fmt_seconds(span['seconds'])}s  {pct:5.1f}%"
        )
    print("\nper-stage phase breakdown (seconds):")
    header = "  id  tasks " + "".join(f"{p:>12}" for p in PHASES)
    print(header + "  stragglers  label")
    for stage in timeline["stages"]:
        cells = "".join(f"{value:12.4f}" for value in stage["phase_seconds"])
        stragglers = stage["stragglers"]
        marker = f"{len(stragglers)}" + (
            f" (p{stragglers[0]}...)" if stragglers else ""
        )
        print(
            f"  {stage['id']:>2}  {stage['tasks']:>5} {cells}  "
            f"{marker:>10}  {stage['label']}"
        )
    print("\nworkers:")
    for worker in timeline["workers"]:
        print(
            f"  w{worker['worker']:<3} {worker['tasks']:>5} tasks  "
            f"busy {fmt_seconds(worker['busy_seconds'])}s  "
            f"util {100.0 * worker['utilization']:5.1f}%  "
            f"idle {worker['idle']['gaps']} gaps "
            f"{fmt_seconds(worker['idle']['total_seconds'])}s "
            f"(max {fmt_seconds(worker['idle']['max_seconds'])}s)"
        )
    return 0


def stages_from_trace(events):
    """Re-derives per-stage task timing from raw trace events.

    Returns {stage_id: {"begin_us": ts, "task_ends": [ts...]}} keeping the
    LAST instance of each stage id (the tracer is process-global; earlier
    sub-runs of the same binary reuse ids from 1)."""
    stages = {}
    # tid -> stack of (category, name, begin_event) mirroring the B/E
    # nesting check_trace.py already enforces.
    open_spans = {}
    for event in events:
        phase = event.get("ph")
        category = event.get("cat")
        if phase == "B":
            open_spans.setdefault(event["tid"], []).append(event)
            if category == "stage":
                sid = int(event["args"]["stage"])
                stages[sid] = {"begin_us": event["ts"], "task_ends": []}
        elif phase == "E":
            stack = open_spans.get(event["tid"])
            if not stack:
                die(f"unbalanced trace: End with no Begin on tid {event['tid']}", 1)
            begun = stack.pop()
            if category == "task":
                outcome = event.get("args", {}).get("outcome")
                if outcome != "ok":
                    continue  # failed attempt; the retry carries the timing
                sid = int(begun["args"]["stage"])
                if sid in stages:
                    stages[sid]["task_ends"].append(event["ts"])
    return stages


def check(metrics_path, trace_path):
    doc, timeline = load_timeline(metrics_path)
    trace = load_json(trace_path)
    events = trace.get("traceEvents")
    if not events:
        die(f"{trace_path}: no traceEvents")

    wall = timeline["wall_seconds"]
    critical = timeline["critical_path"]
    failures = []

    # Invariant 1: the advertised critical path never exceeds wall-clock.
    if critical["seconds"] > wall * (1 + 1e-6) + 1e-6:
        failures.append(
            f"critical path {critical['seconds']}s exceeds wall {wall}s"
        )
    # Invariant 2: the span list sums to the advertised total.
    span_sum = sum(span["seconds"] for span in critical["spans"])
    if abs(span_sum - critical["seconds"]) > 1e-6 + 1e-3 * abs(span_sum):
        failures.append(
            f"critical spans sum to {span_sum}s, section says "
            f"{critical['seconds']}s"
        )

    # Cross-check: recompute each stage's critical contribution from the
    # raw trace (latest stage-span begin -> latest successful task end).
    trace_stages = stages_from_trace(events)
    trace_total = 0.0
    for span in critical["spans"]:
        sid = span["stage"]
        derived = trace_stages.get(sid)
        if derived is None or not derived["task_ends"]:
            failures.append(f"stage {sid}: no task spans in the trace")
            continue
        derived_s = (max(derived["task_ends"]) - derived["begin_us"]) / 1e6
        trace_total += derived_s
        tolerance = ABS_TOL_S + REL_TOL * max(abs(derived_s), abs(span["seconds"]))
        if abs(derived_s - span["seconds"]) > tolerance:
            failures.append(
                f"stage {sid}: trace-derived critical {derived_s:.6f}s vs "
                f"analyzer {span['seconds']:.6f}s (tolerance {tolerance:.6f}s)"
            )
    tolerance = ABS_TOL_S + REL_TOL * max(trace_total, critical["seconds"])
    if abs(trace_total - critical["seconds"]) > tolerance:
        failures.append(
            f"critical-path total from trace {trace_total:.6f}s vs analyzer "
            f"{critical['seconds']:.6f}s (tolerance {tolerance:.6f}s)"
        )

    if failures:
        for failure in failures:
            print(f"ss_prof: CHECK FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"ss_prof: OK: critical path {critical['seconds']:.4f}s <= wall "
        f"{wall:.4f}s; trace recomputation {trace_total:.4f}s agrees "
        f"across {len(critical['spans'])} stages"
    )
    return 0


def compare(before_path, after_path, threshold):
    _, before = load_timeline(before_path)
    _, after = load_timeline(after_path)
    cp_before = before["critical_path"]["seconds"]
    cp_after = after["critical_path"]["seconds"]
    delta = cp_after - cp_before
    pct = 100.0 * delta / cp_before if cp_before > 0 else float("inf")
    print(
        f"critical path: {cp_before:.4f}s -> {cp_after:.4f}s "
        f"({'+' if delta >= 0 else ''}{pct:.1f}%)"
    )
    # Stage-level attribution, matched by label (ids are stable within a
    # binary but labels survive stage-count changes better).
    before_by_label = {}
    for span, stage in zip(
        before["critical_path"]["spans"], before["stages"]
    ):
        before_by_label.setdefault(stage["label"], span["seconds"])
    for span, stage in zip(after["critical_path"]["spans"], after["stages"]):
        old = before_by_label.get(stage["label"])
        if old is None:
            print(f"  {stage['label']}: NEW {span['seconds']:.4f}s")
        else:
            stage_delta = span["seconds"] - old
            print(
                f"  {stage['label']}: {old:.4f}s -> {span['seconds']:.4f}s "
                f"({'+' if stage_delta >= 0 else ''}{stage_delta:.4f}s)"
            )
    if cp_after > cp_before * (1 + threshold):
        print(
            f"ss_prof: REGRESSION: critical path grew {pct:.1f}% "
            f"(threshold {100 * threshold:.0f}%)",
            file=sys.stderr,
        )
        return 1
    print(f"ss_prof: OK: within {100 * threshold:.0f}% threshold")
    return 0


def main(argv):
    args = argv[1:]
    threshold = 0.10
    if "--threshold" in args:
        at = args.index("--threshold")
        try:
            threshold = float(args[at + 1])
        except (IndexError, ValueError):
            die("--threshold needs a number")
        del args[at:at + 2]
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    if args[0] == "--check":
        if len(args) != 3:
            die("--check needs <metrics.json> <trace.json>")
        return check(args[1], args[2])
    if args[0] == "--compare":
        if len(args) != 3:
            die("--compare needs <before.json> <after.json>")
        return compare(args[1], args[2], threshold)
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    return report(args[0])


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv))
    except BrokenPipeError:
        sys.exit(0)  # e.g. report piped into `head`
