// Golden tests for the human-readable reports: FormatStageReport,
// FormatRunReport, and FormatProfileReport rendered over a fixed fixture
// and compared against the exact expected text. These pin the table
// layout and wording that people grep for in CI logs and that
// docs/OBSERVABILITY.md documents — a deliberate formatting change must
// update both the golden strings here and the docs.
#include <gtest/gtest.h>

#include "engine/metrics.hpp"
#include "engine/profile.hpp"

namespace ss::engine {
namespace {

constexpr std::int64_t kMs = 1'000'000;  // nanoseconds per millisecond

TaskTimeline MakeTimeline(std::uint32_t partition, std::uint32_t worker,
                          std::int64_t enqueue_ns, std::int64_t start_ns,
                          std::int64_t end_ns) {
  TaskTimeline t;
  t.partition = partition;
  t.worker = worker;
  t.enqueue_ns = enqueue_ns;
  t.start_ns = start_ns;
  t.end_ns = end_ns;
  return t;
}

/// Two stages with exact millisecond-aligned timestamps: a map stage
/// whose partition-1 task is critical (ends at 9ms of a [0,10ms] stage)
/// and a reduce stage bound by partition 0 (ends at 16ms of [10,20ms]).
std::vector<StageMetrics> Fixture() {
  StageMetrics s1;
  s1.stage_id = 1;
  s1.label = "map";
  s1.task_seconds = {0.004, 0.008};
  s1.shuffle_write_bytes = 4096;
  s1.records_out = 2000;
  s1.begin_ns = 0;
  s1.end_ns = 10 * kMs;
  s1.timelines.push_back(MakeTimeline(0, 0, 0, 1 * kMs, 5 * kMs));
  s1.timelines.push_back(MakeTimeline(1, 1, 0, 1 * kMs, 9 * kMs));
  s1.timelines[1].phases.push_back({TaskPhase::kFetch, 1 * kMs, 2 * kMs});

  StageMetrics s2;
  s2.stage_id = 2;
  s2.label = "reduce";
  s2.task_seconds = {0.005, 0.003};
  s2.shuffle_read_bytes = 4096;
  s2.records_out = 16;
  s2.failed_attempts = 1;
  s2.begin_ns = 10 * kMs;
  s2.end_ns = 20 * kMs;
  s2.timelines.push_back(MakeTimeline(0, 0, 10 * kMs, 11 * kMs, 16 * kMs));
  s2.timelines.push_back(MakeTimeline(1, 1, 10 * kMs, 11 * kMs, 14 * kMs));
  return {s1, s2};
}

constexpr char kStageReport[] =
    "== Stages ==\n"
    "+----+--------+-------+--------------+------------+-------------+-------------------+--------+\n"
    "| id | label  | tasks | total task s | max task s | records out | shuffle R/W bytes | failed |\n"
    "+----+--------+-------+--------------+------------+-------------+-------------------+--------+\n"
    "| 1  | map    | 2     | 0.0120       | 0.0080     | 2000        | 0/4096            | 0      |\n"
    "| 2  | reduce | 2     | 0.0080       | 0.0050     | 16          | 4096/0            | 1      |\n"
    "+----+--------+-------+--------------+------------+-------------+-------------------+--------+\n";

TEST(ReportGoldenTest, FormatStageReport) {
  EXPECT_EQ(FormatStageReport(Fixture()), kStageReport);
}

TEST(ReportGoldenTest, FormatRunReport) {
  CacheStats cache;
  cache.hits = 3;
  cache.misses = 1;
  cache.insertions = 4;
  cache.evictions = 2;
  cache.bytes_cached = 1024;
  const std::string expected =
      std::string(kStageReport) +
      "cache: 3 hits / 1 misses (75.0% hit rate), 4 insertions, "
      "2 evictions, 0 dropped by failure, 1024 bytes resident\n"
      "traffic: 2048 broadcast bytes, 4096/4096 shuffle R/W bytes\n";
  EXPECT_EQ(FormatRunReport(Fixture(), cache, 2048), expected);
}

TEST(ReportGoldenTest, FormatProfileReport) {
  const char kExpected[] =
      "profile: wall 0.0160s, critical path 0.0150s (93.8%) across 2 stages\n"
      "== Stage phase breakdown (seconds) ==\n"
      "+----+--------+-------+--------+--------+--------+---------+--------+---------+----------+---------+--------+--------+--------+------------+\n"
      "| id | label  | tasks | queue  | fetch  | decode | compute | spill  | handoff | prefetch | io_wait | p50    | p95    | max    | stragglers |\n"
      "+----+--------+-------+--------+--------+--------+---------+--------+---------+----------+---------+--------+--------+--------+------------+\n"
      "| 1  | map    | 2     | 0.0020 | 0.0010 | 0.0000 | 0.0110  | 0.0000 | 0.0000  | 0.0000   | 0.0000  | 0.0040 | 0.0080 | 0.0080 | 0          |\n"
      "| 2  | reduce | 2     | 0.0020 | 0.0000 | 0.0000 | 0.0080  | 0.0000 | 0.0000  | 0.0000   | 0.0000  | 0.0030 | 0.0050 | 0.0050 | 0          |\n"
      "+----+--------+-------+--------+--------+--------+---------+--------+---------+----------+---------+--------+--------+--------+------------+\n"
      "== Critical path (stage-binding tasks) ==\n"
      "+-------+-----------+---------+-------+\n"
      "| stage | partition | seconds | share |\n"
      "+-------+-----------+---------+-------+\n"
      "| 1     | 1         | 0.0090  | 60.0% |\n"
      "| 2     | 0         | 0.0060  | 40.0% |\n"
      "+-------+-----------+---------+-------+\n"
      "== Worker utilization ==\n"
      "+--------+-------+--------+-------+-----------+--------------+------------+\n"
      "| worker | tasks | busy s | util  | idle gaps | idle total s | idle max s |\n"
      "+--------+-------+--------+-------+-----------+--------------+------------+\n"
      "| 0      | 2     | 0.0090 | 56.2% | 2         | 0.0070       | 0.0060     |\n"
      "| 1      | 2     | 0.0110 | 68.8% | 3         | 0.0050       | 0.0020     |\n"
      "+--------+-------+--------+-------+-----------+--------------+------------+\n";
  EXPECT_EQ(FormatProfileReport(BuildRunProfile(Fixture())), kExpected);
}

TEST(ReportGoldenTest, FormatProfileReportWhenNotCollected) {
  RunProfile empty;
  EXPECT_EQ(FormatProfileReport(empty),
            "profile: no timelines collected (profiling disabled)\n");
}

}  // namespace
}  // namespace ss::engine
