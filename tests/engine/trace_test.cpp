// Telemetry tests: tracer span balance across a cached + shuffled +
// fault-injected job, Chrome trace / run-metrics JSON well-formedness,
// the counter registry, and report stability on an empty recorder.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cluster/fault_injector.hpp"
#include "engine/dataset.hpp"
#include "engine/trace.hpp"

namespace ss::engine {
namespace {

EngineContext::Options LocalOptions() {
  EngineContext::Options options;
  options.topology = cluster::EmrCluster(3);
  options.physical_threads = 4;
  return options;
}

/// Structural JSON check: braces/brackets balance outside string
/// literals and every string literal closes. Not a full parser, but it
/// catches the escaping and nesting mistakes a serializer can make.
bool LooksLikeJson(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

TEST(TraceTest, InstrumentedJobProducesBalancedSpans) {
  cluster::FaultInjector faults;
  EngineContext ctx(LocalOptions(), nullptr, &faults);
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.Enable();

  // Stage ids are per-context, starting at 1: fail partition 0 of the
  // first stage once so the trace contains a retried attempt.
  faults.FailTask(1, 0, 1);

  auto ds = Parallelize(ctx, std::vector<int>{1, 2, 3, 4, 5, 6}, 3)
                .Map([](const int& x) { return x + 1; });
  ds.Cache();
  ds.Collect();  // computes + populates the cache
  ds.Collect();  // served from the cache -> hits

  auto pairs = ds.Map([](const int& x) {
    return std::pair<std::uint32_t, int>(static_cast<std::uint32_t>(x % 2), x);
  });
  auto reduced =
      ReduceByKey(pairs, [](int a, int b) { return a + b; }, /*reducers=*/2);
  reduced.Collect();

  tracer.Disable();
  const std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(tracer.dropped_events(), 0u);

  // Every Begin nests with an End on the same thread, even for the
  // injected-failure attempt (the span closes during unwinding).
  std::map<std::uint32_t, int> open_per_tid;
  bool saw_task = false;
  bool saw_stage = false;
  std::int64_t last_ts = 0;
  for (const TraceEvent& event : events) {
    EXPECT_GE(event.ts_ns, last_ts);  // Snapshot sorts by timestamp
    last_ts = event.ts_ns;
    if (std::string(event.category) == "task") saw_task = true;
    if (std::string(event.category) == "stage") saw_stage = true;
    if (event.phase == TraceEvent::Phase::kBegin) ++open_per_tid[event.tid];
    if (event.phase == TraceEvent::Phase::kEnd) {
      ASSERT_GT(open_per_tid[event.tid], 0)
          << "End without Begin on tid " << event.tid;
      --open_per_tid[event.tid];
    }
  }
  for (const auto& [tid, open] : open_per_tid) {
    EXPECT_EQ(open, 0) << "unclosed span on tid " << tid;
  }
  EXPECT_TRUE(saw_task);
  EXPECT_TRUE(saw_stage);

  // The injected failure surfaced both in metrics and in the trace.
  ASSERT_FALSE(ctx.metrics().stages().empty());
  EXPECT_EQ(ctx.metrics().stages()[0].failed_attempts, 1);
  bool saw_injected = false;
  for (const TraceEvent& event : events) {
    if (event.name == "injected task failure") saw_injected = true;
  }
  EXPECT_TRUE(saw_injected);

  // The second Collect was served from the cache.
  EXPECT_GE(ctx.cache().stats().hits, 1u);

  const std::string json = tracer.ChromeTraceJson();
  EXPECT_TRUE(LooksLikeJson(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  tracer.Clear();
}

TEST(TraceTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Global();
  tracer.Disable();
  tracer.Clear();
  tracer.Begin("test", "span");
  tracer.Instant("test", "instant");
  tracer.End("test", "span");
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST(TraceTest, ArgsSurviveJsonEscaping) {
  Tracer& tracer = Tracer::Global();
  tracer.Clear();
  tracer.Enable();
  tracer.Instant("test", "quote\"back\\slash\nnewline",
                 {Arg("key", "va\"lue"), Arg("n", 42)});
  tracer.Disable();
  const std::string json = tracer.ChromeTraceJson();
  EXPECT_TRUE(LooksLikeJson(json)) << json;
  EXPECT_NE(json.find("va\\\"lue"), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  tracer.Clear();
}

TEST(CounterRegistryTest, GetAddSnapshot) {
  CounterRegistry& registry = CounterRegistry::Global();
  std::atomic<std::uint64_t>& counter = registry.Get("test.trace_test.a");
  const std::uint64_t before = counter.load();
  registry.Add("test.trace_test.a", 3);
  EXPECT_EQ(counter.load(), before + 3);

  // The same name resolves to the same counter.
  EXPECT_EQ(&registry.Get("test.trace_test.a"), &counter);

  bool found = false;
  for (const auto& [name, value] : registry.Snapshot()) {
    if (name == "test.trace_test.a") {
      found = true;
      EXPECT_EQ(value, before + 3);
    }
  }
  EXPECT_TRUE(found);
}

TEST(CounterRegistryTest, ResetZeroesButKeepsReferences) {
  CounterRegistry registry;  // local instance: don't zero global counters
  std::atomic<std::uint64_t>& counter = registry.Get("x");
  counter.fetch_add(7);
  registry.ResetAll();
  EXPECT_EQ(counter.load(), 0u);
  EXPECT_EQ(&registry.Get("x"), &counter);
}

TEST(MetricsReportTest, EmptyRecorderReportsAreStable) {
  MetricsRecorder recorder;
  const std::string stage_report = FormatStageReport(recorder.stages());
  EXPECT_FALSE(stage_report.empty());
  const std::string run_report = FormatRunReport(
      recorder.stages(), CacheStats{}, recorder.broadcast_bytes());
  EXPECT_FALSE(run_report.empty());
  EXPECT_NE(run_report.find("cache:"), std::string::npos);
  EXPECT_NE(run_report.find("traffic:"), std::string::npos);
}

TEST(MetricsReportTest, RunMetricsJsonIsWellFormed) {
  EngineContext ctx(LocalOptions());
  auto ds = Parallelize(ctx, std::vector<int>{1, 2, 3, 4}, 2);
  ds.Collect();
  const std::string json = ctx.RunMetricsJson();
  EXPECT_TRUE(LooksLikeJson(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("\"sparkscore-run-metrics-v4\""), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
  EXPECT_NE(json.find("\"task_seconds_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"timeline\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
}

}  // namespace
}  // namespace ss::engine
