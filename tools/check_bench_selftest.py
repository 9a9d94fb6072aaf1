#!/usr/bin/env python3
"""Self-test of check_bench.py: no gate lost, no missing key passing.

Feeds the checker the committed benchmarks/BENCH_{kernels,pvalue,scale}.json
(each must pass), a copy per gate doctored to break it (exit 1), copies
with a gated key dropped and unreadable JSON (exit 2), and run-metrics
files in same-result mode. Runs no bench; stdlib only.

Usage: check_bench_selftest.py   (exit 0 when every case holds)
"""
import contextlib
import copy
import io
import json
import os
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOLS)
import check_bench  # noqa: E402

DROP = object()
METRICS = {"counters": {
    "resampling.result_hash": 2224244114317513646,
    "resampling.replicates": 57, "lock.acquisitions": 4096,
    "lock.cycles": 0, "lock.graph_nodes": 12, "lock.rank_violations": 0}}


def committed(name):
    path = os.path.join(TOOLS, os.pardir, "benchmarks", name)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def doctored(doc, *edits):
    """A deep copy of doc with each (path, value) edit; DROP deletes."""
    doc = copy.deepcopy(doc)
    for path, value in edits:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def cases():
    """Yields (name, documents, flags, expected exit). A str document is
    written verbatim; None names a file that does not exist."""
    kernels = committed("BENCH_kernels.json")
    yield "committed kernels", [kernels], [], 0
    for path, value in ((("bitwise_identical",), False),
                        (("sparse_bitwise_identical",), False),
                        (("pack", "ratio"), 3.4),
                        (("levels", "scalar", "sparse_speedup"), 1.3),
                        (("levels", "avx2", "row_sum_speedup"), 1.4)):
        yield f"kernels {path}={value}", [doctored(
            kernels, (path, value))], [], 1
        yield f"kernels without {path}", [doctored(
            kernels, (path, DROP))], [], 2
    slow = ((("levels", "scalar", "sparse_speedup"), 1.0),
            (("levels", "avx2", "row_sum_speedup"), 1.0))
    yield "kernels unoptimized: timing skipped", [doctored(
        kernels, (("optimized",), False), *slow)], [], 0
    yield "kernels sanitized: timing skipped", [doctored(
        kernels, (("sanitized",), True), *slow)], [], 0
    yield "kernels without AVX2: SIMD gate skipped", [doctored(
        kernels, (("levels", "avx2"), DROP))], [], 0
    for key in ("optimized", "sanitized"):
        yield f"kernels without {key}", [doctored(
            kernels, ((key,), DROP))], [], 2

    pvalue = committed("BENCH_pvalue.json")
    yield "committed pvalue", [pvalue], [], 0
    for path, value in ((("savings_ratio",), 9.9),
                        (("disagreements",), 1),
                        (("tolerance_violations",), 1),
                        (("hybrid", "refined_sets"), 0),
                        (("hybrid", "early_stops"), 0)):
        yield f"pvalue {path}={value}", [doctored(
            pvalue, (path, value))], [], 1
        yield f"pvalue without {path}", [doctored(
            pvalue, (path, DROP))], [], 2

    scale = committed("BENCH_scale.json")
    runs = scale["runs"]
    base = next(i for i, run in enumerate(runs) if run["budget_bytes"] == 0)
    tight = min((i for i, run in enumerate(runs) if run["budget_bytes"] > 0),
                key=lambda i: runs[i]["budget_bytes"])
    over_budget = (runs[tight]["budget_bytes"]
                   + scale["rss_slack_mb"] * 1024 * 1024 + 1)
    crawl = (("runs", tight, "scores_per_sec"),
             runs[base]["scores_per_sec"] * 0.1)
    yield "committed scale", [scale], [], 0
    for name, edits in (
            ("one run", [(("runs",), [runs[tight]])]),
            ("no unlimited run",
             [(("runs",), [r for r in runs if r["budget_bytes"] > 0])]),
            ("no constrained run", [(("runs",), [runs[base], runs[base]])]),
            ("one hash differs", [(("runs", tight, "result_hash"), "0")]),
            ("bench verdict", [(("hashes_identical",), False)]),
            ("corrupt", [(("runs", base, "corrupt"), 1)]),
            ("store never opened", [(("runs", base, "store_opens"), 0)]),
            ("too few frame reads",
             [(("runs", base, "frame_reads"), scale["partitions"] - 1)]),
            ("RSS over budget",
             [(("runs", tight, "rss_delta_bytes"), over_budget)]),
            ("throughput below the floor", [crawl])):
        yield f"scale {name}", [doctored(scale, *edits)], [], 1
    yield "scale unmeasured RSS is not gated", [doctored(
        scale, (("runs", tight, "rss_delta_bytes"), over_budget),
        (("runs", tight, "peak_rss_bytes"), 0))], [], 0
    yield "scale --min-ratio lowers the floor", [doctored(
        scale, crawl)], ["--min-ratio=0.05"], 0
    yield "scale runs without corrupt and result_hash", [doctored(
        scale, *[(("runs", i, key), DROP) for i in range(len(runs))
                 for key in ("corrupt", "result_hash")])], [], 2
    for key in ("runs", "hashes_identical", "partitions", "rss_slack_mb"):
        yield f"scale without {key}", [doctored(scale, ((key,), DROP))], [], 2
    for key in ("budget_bytes", "result_hash", "corrupt", "store_opens",
                "frame_reads", "peak_rss_bytes", "rss_delta_bytes",
                "scores_per_sec"):
        yield f"scale tightest run without {key}", [doctored(
            scale, (("runs", tight, key), DROP))], [], 2
    yield "scale unlimited run without scores_per_sec", [doctored(
        scale, (("runs", base, "scores_per_sec"), DROP))], [], 2

    hash_key, reps_key = check_bench.HASH, check_bench.REPLICATES
    other_hash = doctored(METRICS, (("counters", hash_key), 1))
    yield "same result", [METRICS, METRICS], [], 0
    yield "same result over three runs", [METRICS] * 3, [], 0
    yield "mismatched hashes", [METRICS, other_hash], [], 1
    yield "mismatched replicates", [METRICS, doctored(
        METRICS, (("counters", reps_key), 58))], [], 1
    no_reps = doctored(METRICS, (("counters", reps_key), 0))
    yield "replicates = 0", [no_reps, no_reps], [], 1
    for key in (hash_key, reps_key):
        yield f"second run without {key}", [METRICS, doctored(
            METRICS, (("counters", key), DROP))], [], 2
    yield "no counters", [METRICS, {}], [], 2

    active = ["--analyzer-active=1"]
    yield "analyzer active, clean run", [METRICS, METRICS], active, 0
    for key, value in (("lock.cycles", 1), ("lock.rank_violations", 1),
                       ("lock.acquisitions", 0), ("lock.graph_nodes", 0)):
        yield f"analyzer active, {key}={value}", [doctored(
            METRICS, (("counters", key), value)), METRICS], active, 1
    yield "analyzer perturbed the result", [METRICS, other_hash], active, 1
    for key in ("lock.cycles", "lock.rank_violations"):
        yield f"analyzer active, no {key}", [doctored(
            METRICS, (("counters", key), DROP)), METRICS], active, 2
    inactive = doctored(METRICS, (("counters", "lock.acquisitions"), 0),
                        (("counters", "lock.graph_nodes"), 0))
    yield "analyzer inactive, clean run", [inactive, inactive], [
        "--analyzer-active=0"], 0
    yield "analyzer inactive but acquiring", [METRICS, METRICS], [
        "--analyzer-active=0"], 1
    no_locks = {"counters": {key: value for key, value
                             in METRICS["counters"].items()
                             if not key.startswith("lock.")}}
    yield "analyzer inactive, no lock counters", [no_locks, no_locks], [
        "--analyzer-active=0"], 2

    yield "unreadable JSON", ["{\"bench\": \"bench_scale\", "], [], 2
    yield "no such file", [None], [], 2
    yield "unknown bench", [{"bench": "bench_nope"}], [], 2
    yield "one run-metrics file", [METRICS], [], 2


def write_case(directory, index, docs):
    paths = []
    for j, doc in enumerate(docs):
        path = os.path.join(directory, f"case{index}.{j}.json")
        if doc is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(doc if isinstance(doc, str) else json.dumps(doc))
        paths.append(path)
    return paths


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as directory:
        for index, (name, docs, flags, expected) in enumerate(cases()):
            output = io.StringIO()
            with contextlib.redirect_stdout(output), \
                    contextlib.redirect_stderr(output):
                try:
                    code = check_bench.main(
                        write_case(directory, index, docs) + flags)
                except SystemExit as error:
                    code = error.code
            if code != expected:
                failures += 1
                print(f"FAIL: {name}: exit {code}, expected {expected}\n"
                      f"{output.getvalue()}", file=sys.stderr)
    print(f"check_bench_selftest: {index + 1} cases, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
