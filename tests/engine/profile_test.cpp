// Unit tests for the task-timeline profiler (engine/profile.hpp): phase
// accounting, PhaseTimer binding/nesting/coalescing semantics, and the
// BuildRunProfile analyzer (critical path, stragglers, worker idle gaps)
// over hand-built fixtures with exact nanosecond timestamps.
#include "engine/profile.hpp"

#include <gtest/gtest.h>

#include "engine/metrics.hpp"

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

TEST(PhaseSecondsTest, ExplicitSpansPlusDerivedQueueAndCompute) {
  TaskTimeline t = MakeTimeline(0, 0, 1000, 3000, 13000);
  t.phases.push_back({TaskPhase::kFetch, 3000, 5000});
  t.phases.push_back({TaskPhase::kDecode, 5000, 6000});

  const auto seconds = PhaseSecondsOf(t);
  EXPECT_DOUBLE_EQ(seconds[static_cast<int>(TaskPhase::kQueueWait)], 2000e-9);
  EXPECT_DOUBLE_EQ(seconds[static_cast<int>(TaskPhase::kFetch)], 2000e-9);
  EXPECT_DOUBLE_EQ(seconds[static_cast<int>(TaskPhase::kDecode)], 1000e-9);
  // Compute is derived: task total (10000ns) minus the explicit spans.
  EXPECT_NEAR(seconds[static_cast<int>(TaskPhase::kCompute)], 7000e-9, 1e-15);
  EXPECT_DOUBLE_EQ(seconds[static_cast<int>(TaskPhase::kHandoff)], 0.0);

  // The accounting invariant: entries sum to queue-wait + task wall time.
  double sum = 0.0;
  for (double s : seconds) sum += s;
  EXPECT_NEAR(sum, 2000e-9 + 10000e-9, 1e-15);
}

TEST(PhaseTimerTest, RecordsIntoBoundTimelineAndCoalescesSamePhase) {
  TaskTimeline t;
  {
    TaskTimelineScope scope(&t);
    { PhaseTimer decode(TaskPhase::kDecode); }
    { PhaseTimer decode(TaskPhase::kDecode); }  // coalesces into the first
    { PhaseTimer fetch(TaskPhase::kFetch); }
  }
  ASSERT_EQ(t.phases.size(), 2u);
  EXPECT_EQ(t.phases[0].phase, TaskPhase::kDecode);
  EXPECT_EQ(t.phases[1].phase, TaskPhase::kFetch);
  EXPECT_GE(t.phases[0].end_ns, t.phases[0].begin_ns);
  EXPECT_GE(t.phases[1].end_ns, t.phases[1].begin_ns);
}

TEST(PhaseTimerTest, InnerTimerIsInertWhileAnotherPhaseIsOpen) {
  TaskTimeline t;
  {
    TaskTimelineScope scope(&t);
    PhaseTimer fetch(TaskPhase::kFetch);
    { PhaseTimer decode(TaskPhase::kDecode); }  // attributed to fetch
  }
  ASSERT_EQ(t.phases.size(), 1u);
  EXPECT_EQ(t.phases[0].phase, TaskPhase::kFetch);
}

TEST(PhaseTimerTest, InertWithoutBoundTimeline) {
  ASSERT_EQ(ActiveTaskTimeline(), nullptr);
  PhaseTimer fetch(TaskPhase::kFetch);  // must not crash or record
}

TEST(TaskTimelineScopeTest, RestoresPreviousBindingAndIgnoresNull) {
  TaskTimeline outer_timeline;
  TaskTimeline inner_timeline;
  EXPECT_EQ(ActiveTaskTimeline(), nullptr);
  {
    TaskTimelineScope outer(&outer_timeline);
    EXPECT_EQ(ActiveTaskTimeline(), &outer_timeline);
    {
      TaskTimelineScope inner(&inner_timeline);
      EXPECT_EQ(ActiveTaskTimeline(), &inner_timeline);
    }
    EXPECT_EQ(ActiveTaskTimeline(), &outer_timeline);
    {
      TaskTimelineScope null_scope(nullptr);  // no-op binding
      EXPECT_EQ(ActiveTaskTimeline(), &outer_timeline);
    }
    EXPECT_EQ(ActiveTaskTimeline(), &outer_timeline);
  }
  EXPECT_EQ(ActiveTaskTimeline(), nullptr);
}

std::vector<StageMetrics> TwoStageFixture() {
  // Stage 1: driver span [0, 10ms]; tasks on workers 0/1, the partition-1
  // task binds the stage (ends at 9ms). Stage 2: [10ms, 20ms]; the
  // partition-0 task binds it (ends at 16ms).
  StageMetrics s1;
  s1.stage_id = 1;
  s1.label = "map";
  s1.begin_ns = 0;
  s1.end_ns = 10 * kMs;
  s1.timelines.push_back(MakeTimeline(0, 0, 0, 1 * kMs, 5 * kMs));
  s1.timelines.push_back(MakeTimeline(1, 1, 0, 1 * kMs, 9 * kMs));

  StageMetrics s2;
  s2.stage_id = 2;
  s2.label = "reduce";
  s2.begin_ns = 10 * kMs;
  s2.end_ns = 20 * kMs;
  s2.timelines.push_back(MakeTimeline(0, 0, 10 * kMs, 11 * kMs, 16 * kMs));
  s2.timelines.push_back(MakeTimeline(1, 1, 10 * kMs, 11 * kMs, 14 * kMs));
  return {s1, s2};
}

TEST(BuildRunProfileTest, CriticalPathAndWallClock) {
  const RunProfile profile = BuildRunProfile(TwoStageFixture());
  ASSERT_TRUE(profile.collected);
  // Run span: first stage begin (0) to last task end (16ms).
  EXPECT_DOUBLE_EQ(profile.wall_seconds, 0.016);

  ASSERT_EQ(profile.critical_path.size(), 2u);
  EXPECT_EQ(profile.critical_path[0].stage_id, 1u);
  EXPECT_EQ(profile.critical_path[0].partition, 1u);
  EXPECT_DOUBLE_EQ(profile.critical_path[0].seconds, 0.009);
  EXPECT_EQ(profile.critical_path[1].stage_id, 2u);
  EXPECT_EQ(profile.critical_path[1].partition, 0u);
  EXPECT_DOUBLE_EQ(profile.critical_path[1].seconds, 0.006);
  EXPECT_NEAR(profile.critical_path_seconds, 0.015, 1e-12);
  // The defining invariant: sequential stages bound by their critical
  // tasks can never exceed the measured wall-clock.
  EXPECT_LE(profile.critical_path_seconds, profile.wall_seconds);
}

TEST(BuildRunProfileTest, WorkerUtilizationAndIdleGaps) {
  const RunProfile profile = BuildRunProfile(TwoStageFixture());
  ASSERT_EQ(profile.workers.size(), 2u);

  // Worker 0 ran [1,5]ms and [11,16]ms of a 16ms run: busy 9ms with two
  // idle gaps (run start -> 1ms, 5 -> 11ms) and no tail gap.
  const WorkerStats& w0 = profile.workers[0];
  EXPECT_EQ(w0.worker, 0u);
  EXPECT_EQ(w0.tasks, 2u);
  EXPECT_DOUBLE_EQ(w0.busy_seconds, 0.009);
  EXPECT_DOUBLE_EQ(w0.utilization, 0.009 / 0.016);
  EXPECT_EQ(w0.idle_gaps, 2u);
  EXPECT_NEAR(w0.idle_total_seconds, 0.007, 1e-12);
  EXPECT_DOUBLE_EQ(w0.idle_max_seconds, 0.006);

  // Worker 1 ran [1,9]ms and [11,14]ms: busy 11ms with gaps of 1, 2, and
  // a 2ms tail before the run ends at 16ms.
  const WorkerStats& w1 = profile.workers[1];
  EXPECT_EQ(w1.worker, 1u);
  EXPECT_DOUBLE_EQ(w1.busy_seconds, 0.011);
  EXPECT_EQ(w1.idle_gaps, 3u);
  EXPECT_NEAR(w1.idle_total_seconds, 0.005, 1e-12);
  EXPECT_DOUBLE_EQ(w1.idle_max_seconds, 0.002);
}

TEST(BuildRunProfileTest, FlagsStragglersAboveMadThreshold) {
  StageMetrics stage;
  stage.stage_id = 1;
  stage.label = "skewed";
  stage.begin_ns = 0;
  stage.end_ns = 20 * kMs;
  // Durations 0.9, 1.0, 1.0, 1.1, 10 ms: median 1ms, MAD 0.1ms, so the
  // k=3 threshold is 1.3ms and only the 10ms task (partition 4) trips it.
  const std::int64_t durations_us[] = {1000, 1000, 1100, 900, 10000};
  for (std::uint32_t p = 0; p < 5; ++p) {
    stage.timelines.push_back(
        MakeTimeline(p, 0, 0, 0, durations_us[p] * 1000));
  }
  const RunProfile profile = BuildRunProfile({stage}, /*straggler_mad_k=*/3.0);
  ASSERT_EQ(profile.stages.size(), 1u);
  const StageTimingStats& s = profile.stages[0];
  EXPECT_NEAR(s.mad_seconds, 0.0001, 1e-12);
  EXPECT_NEAR(s.straggler_threshold_seconds, 0.0013, 1e-12);
  ASSERT_EQ(s.straggler_partitions.size(), 1u);
  EXPECT_EQ(s.straggler_partitions[0], 4u);
  EXPECT_EQ(s.critical_partition, 4u);
  EXPECT_DOUBLE_EQ(s.max_seconds, 0.01);
}

TEST(BuildRunProfileTest, NoStragglersOnUniformOrTinyStages) {
  // Uniform durations: MAD is zero, nothing may be flagged no matter how
  // tight the threshold.
  StageMetrics uniform;
  uniform.stage_id = 1;
  uniform.begin_ns = 0;
  uniform.end_ns = 10 * kMs;
  for (std::uint32_t p = 0; p < 5; ++p) {
    uniform.timelines.push_back(MakeTimeline(p, 0, 0, 0, 1 * kMs));
  }
  RunProfile profile = BuildRunProfile({uniform}, /*straggler_mad_k=*/0.1);
  EXPECT_TRUE(profile.stages[0].straggler_partitions.empty());

  // Under four tasks the MAD is too noisy: never flag.
  StageMetrics tiny;
  tiny.stage_id = 1;
  tiny.begin_ns = 0;
  tiny.end_ns = 10 * kMs;
  tiny.timelines.push_back(MakeTimeline(0, 0, 0, 0, 1 * kMs));
  tiny.timelines.push_back(MakeTimeline(1, 0, 0, 0, 1 * kMs));
  tiny.timelines.push_back(MakeTimeline(2, 0, 0, 0, 9 * kMs));
  profile = BuildRunProfile({tiny}, /*straggler_mad_k=*/0.1);
  EXPECT_TRUE(profile.stages[0].straggler_partitions.empty());
}

TEST(BuildRunProfileTest, EmptyWhenNoTimelinesRecorded) {
  StageMetrics stage;  // e.g. recorded with profiling disabled
  stage.stage_id = 1;
  stage.label = "map";
  stage.task_seconds = {0.1, 0.2};
  const RunProfile profile = BuildRunProfile({stage});
  EXPECT_FALSE(profile.collected);
  EXPECT_TRUE(profile.stages.empty());
  EXPECT_TRUE(profile.workers.empty());
  EXPECT_EQ(FormatProfileReport(profile),
            "profile: no timelines collected (profiling disabled)\n");
}

TEST(BuildRunProfileTest, DriverTasksCarryNoWorkerStats) {
  // worker == ~0u marks a task that ran inline on the driver (no pool);
  // it contributes to stage stats but not to the worker inventory.
  StageMetrics stage;
  stage.stage_id = 1;
  stage.begin_ns = 0;
  stage.end_ns = 10 * kMs;
  stage.timelines.push_back(MakeTimeline(0, ~0u, 0, 0, 5 * kMs));
  const RunProfile profile = BuildRunProfile({stage});
  ASSERT_TRUE(profile.collected);
  EXPECT_EQ(profile.stages.size(), 1u);
  EXPECT_TRUE(profile.workers.empty());
}

TEST(ProfilingSwitchTest, TogglesAndDefaultsOn) {
  EXPECT_TRUE(ProfilingEnabled());
  SetProfilingEnabled(false);
  EXPECT_FALSE(ProfilingEnabled());
  SetProfilingEnabled(true);
  EXPECT_TRUE(ProfilingEnabled());
}

}  // namespace
}  // namespace ss::engine
