// Golden-file regression test for the run-metrics JSON (schema
// "sparkscore-run-metrics-v2"): the key set, key order, and value shapes
// below are a compatibility contract for external consumers
// (tools/check_trace.py, tools/ss_prof.py, scripts parsing metrics=
// artifacts). New telemetry must EXTEND the document — appending keys
// updates this snapshot; renaming or removing keys breaks consumers and
// this test. v2 added the `timeline` section (between `kernel` and
// `counters`); every v1 key kept its name, shape, and relative order.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/dataset.hpp"

namespace ss::engine {
namespace {

/// A context with one completed stage, some cache traffic, and spill
/// activity, so every section of the document is populated.
std::string SampleRunMetricsJson() {
  EngineContext::Options options;
  options.topology = cluster::EmrCluster(2);
  options.physical_threads = 2;
  options.cache_capacity_bytes = 64;  // forces eviction -> spill
  EngineContext ctx(options);
  std::vector<int> data(100);
  auto ds = Parallelize(ctx, data, 4).Map([](const int& x) { return x + 1; });
  ds.Cache();
  ds.Collect();
  ds.Collect();
  return ctx.RunMetricsJson();
}

/// Asserts `keys` occur in `json` in order, each spelled `"key":`.
void ExpectOrderedKeys(const std::string& json,
                       const std::vector<std::string>& keys,
                       const char* where) {
  std::size_t position = 0;
  for (const std::string& key : keys) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t found = json.find(needle, position);
    ASSERT_NE(found, std::string::npos)
        << where << ": key '" << key << "' missing (or out of order) in\n"
        << json;
    position = found + needle.size();
  }
}

TEST(RunMetricsSchemaTest, SchemaTagIsFirst) {
  const std::string json = SampleRunMetricsJson();
  EXPECT_EQ(json.rfind("{\"schema\":\"sparkscore-run-metrics-v2\"", 0), 0u)
      << json;
}

TEST(RunMetricsSchemaTest, TopLevelKeySetAndOrder) {
  // v1 keys in their v1 relative order; v2 inserts `timeline` between
  // `kernel` and `counters`; the adaptive p-value engine appends its
  // `pvalue` section between `kernel` and `timeline`.
  ExpectOrderedKeys(SampleRunMetricsJson(),
                    {"schema", "tasks_completed", "totals", "stages", "cache",
                     "broadcast_bytes", "kernel", "pvalue", "store", "timeline",
                     "counters"},
                    "top level");
}

TEST(RunMetricsSchemaTest, PValueKeySetAndOrder) {
  // The adaptive p-value section mirrors the four pvalue.* counters
  // (docs/OBSERVABILITY.md); always present, zeros on legacy runs.
  const std::string json = SampleRunMetricsJson();
  ExpectOrderedKeys(json,
                    {"pvalue", "analytic_screens", "refined_sets",
                     "early_stops", "replicates_saved"},
                    "pvalue");
  // This sample run does no resampling at all, so the section must be
  // exactly the zero golden (pvalue.* are process-global counters, but
  // nothing in this test binary drives the resampling drivers).
  EXPECT_NE(json.find("\"pvalue\":{\"analytic_screens\":"),
            std::string::npos)
      << json;
}

TEST(RunMetricsSchemaTest, StoreKeySetAndOrder) {
  // The genotype-store section mirrors the seven store.* counters
  // (docs/OBSERVABILITY.md); always present, zeros on storeless runs.
  const std::string json = SampleRunMetricsJson();
  ExpectOrderedKeys(json,
                    {"store", "opens", "frame_reads", "read_bytes",
                     "frame_writes", "write_bytes", "prefetch_frames",
                     "corrupt"},
                    "store");
  // This sample run never touches a store file, so the section is the
  // zero golden (store.* are process-global counters, but nothing in
  // this test binary opens or stages a store).
  EXPECT_NE(json.find("\"store\":{\"opens\":"), std::string::npos) << json;
}

TEST(RunMetricsSchemaTest, TimelineKeySetAndOrder) {
  // The v2 timeline section: run rollup, per-stage breakdowns, the
  // critical path, and per-worker occupancy — contract with
  // tools/check_trace.py and tools/ss_prof.py.
  ExpectOrderedKeys(SampleRunMetricsJson(),
                    {"timeline", "collected", "wall_seconds",
                     "straggler_mad_k", "phases", "stages", "critical_path",
                     "workers"},
                    "timeline");
}

TEST(RunMetricsSchemaTest, TimelineStageKeySetAndOrder) {
  const std::string json = SampleRunMetricsJson();
  const std::size_t timeline = json.find("\"timeline\":{");
  ASSERT_NE(timeline, std::string::npos) << json;
  ExpectOrderedKeys(json.substr(timeline),
                    {"stages", "id", "label", "tasks", "stage_seconds",
                     "queue_peak", "phase_seconds", "task_seconds", "p50",
                     "p95", "max", "mad", "straggler_threshold_seconds",
                     "stragglers", "records", "bytes", "critical"},
                    "timeline stage");
}

TEST(RunMetricsSchemaTest, TimelinePhaseNamesArePinned) {
  const std::string json = SampleRunMetricsJson();
  EXPECT_NE(json.find("\"phases\":[\"queue_wait\",\"fetch\",\"decode\","
                      "\"compute\",\"spill_write\",\"handoff\","
                      "\"prefetch\",\"io_wait\"]"),
            std::string::npos)
      << json;
}

TEST(RunMetricsSchemaTest, TimelineCollectedReflectsProfilingSwitch) {
  SetProfilingEnabled(false);
  const std::string off = SampleRunMetricsJson();
  SetProfilingEnabled(true);
  const std::string on = SampleRunMetricsJson();
  // The section is always present; only `collected` flips.
  EXPECT_NE(off.find("\"timeline\":{\"collected\":false"), std::string::npos)
      << off;
  EXPECT_NE(on.find("\"timeline\":{\"collected\":true"), std::string::npos)
      << on;
}

TEST(RunMetricsSchemaTest, KernelKeySetAndOrder) {
  // The kernel section's keys are a contract with tools/check_trace.py.
  // dispatch_name is host-dependent (scalar/avx2), so assert key
  // order rather than a digit-stripped golden.
  ExpectOrderedKeys(
      SampleRunMetricsJson(),
      {"kernel", "dispatch", "dispatch_name", "packed_bytes",
       "unpacked_bytes"},
      "kernel");
}

TEST(RunMetricsSchemaTest, TotalsKeySetAndOrder) {
  ExpectOrderedKeys(SampleRunMetricsJson(),
                    {"totals", "stages", "tasks", "failed_attempts",
                     "shuffle_read_bytes", "shuffle_write_bytes",
                     "task_seconds"},
                    "totals");
}

TEST(RunMetricsSchemaTest, CacheKeySetAndOrderIncludingSpillTier) {
  const std::string json = SampleRunMetricsJson();
  // The golden cache snapshot: the memory-tier keys shipped in v1 plus the
  // spill-tier extension. Order matters (the emitter concatenates by hand
  // and consumers may rely on it).
  const std::string cache_golden =
      "\"cache\":{\"hits\":,\"misses\":,\"insertions\":,\"evictions\":,"
      "\"dropped_by_failure\":,\"bytes_cached\":,\"spills\":,"
      "\"spill_bytes\":,\"reloads\":,\"reload_nanos\":,\"spill_corrupt\":,"
      "\"bytes_spilled\":}";
  // Rebuild the same shape from the document: strip digits inside the
  // cache object, then compare against the golden skeleton.
  const std::size_t begin = json.find("\"cache\":{");
  ASSERT_NE(begin, std::string::npos) << json;
  const std::size_t end = json.find('}', begin);
  ASSERT_NE(end, std::string::npos) << json;
  std::string skeleton;
  for (std::size_t i = begin; i <= end; ++i) {
    if (json[i] < '0' || json[i] > '9') skeleton += json[i];
  }
  EXPECT_EQ(skeleton, cache_golden);
}

TEST(RunMetricsSchemaTest, CacheValuesAreUnsignedIntegers) {
  const std::string json = SampleRunMetricsJson();
  const std::size_t begin = json.find("\"cache\":{");
  ASSERT_NE(begin, std::string::npos);
  const std::size_t end = json.find('}', begin);
  std::size_t cursor = json.find('{', begin);  // scan inside the object only
  while (true) {
    const std::size_t colon = json.find("\":", cursor);
    if (colon == std::string::npos || colon > end) break;
    const char next = json[colon + 2];
    EXPECT_TRUE(next >= '0' && next <= '9')
        << "non-integer cache value near position " << colon << " in "
        << json.substr(begin, end - begin + 1);
    cursor = colon + 2;
  }
}

TEST(RunMetricsSchemaTest, SpillCountersAppearInCounterRegistry) {
  const std::string json = SampleRunMetricsJson();
  // Spill activity in the sample run must surface the new counters in the
  // global registry section too (they are always-on counters).
  for (const char* counter : {"cache.spills", "cache.reloads"}) {
    EXPECT_NE(json.find(std::string("\"") + counter + "\":"),
              std::string::npos)
        << "counter " << counter << " missing in " << json;
  }
}

}  // namespace
}  // namespace ss::engine
