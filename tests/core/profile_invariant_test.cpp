// Profiler invariants over the real pipeline, across a scheduling matrix
// (threads {1,4} x resampling batch {1,64} x cache budget tight/unlimited):
//   * the analyzer's critical path never exceeds the measured wall-clock
//     (stages are driver-sequential, so the stage-binding chain is a
//     lower bound on the run span);
//   * every task's phase entries sum exactly to queue-wait + task wall
//     time (the derived-compute accounting in PhaseSecondsOf);
//   * profiling is observation-only: profile on vs off produces bitwise
//     identical resampling results (resampling.result_hash).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/pipeline.hpp"
#include "core/resampling_methods.hpp"
#include "engine/profile.hpp"
#include "engine/trace.hpp"

namespace ss::core {
namespace {

struct Cell {
  std::size_t threads = 4;
  std::uint64_t batch = 64;
  bool tight = false;  ///< Tight cache budget vs unlimited.
};

std::string CellName(const Cell& cell) {
  return "threads=" + std::to_string(cell.threads) +
         " batch=" + std::to_string(cell.batch) +
         " tight=" + std::to_string(cell.tight);
}

struct CellRun {
  std::uint64_t result_hash = 0;  ///< Counter delta over the resampling.
  std::vector<engine::StageMetrics> stages;
};

CellRun RunCell(const Cell& cell, bool profile) {
  auto& hash_counter =
      engine::CounterRegistry::Global().Get("resampling.result_hash");
  const std::uint64_t before = hash_counter.load();
  engine::SetProfilingEnabled(profile);

  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(3);
  options.physical_threads = cell.threads;
  options.seed = 99;
  if (cell.tight) {
    // ~6 KB holds roughly one U partition of this study, forcing constant
    // eviction and recompute (same sizing as the soak matrix).
    options.cache_capacity_bytes = 6000;
  }
  engine::EngineContext ctx(options);

  simdata::GeneratorConfig generator;
  generator.num_patients = 40;
  generator.num_snps = 60;
  generator.num_sets = 6;
  generator.seed = 99;
  PipelineConfig config;
  config.seed = 99;
  config.num_partitions = 4;
  config.num_reducers = 4;
  config.resampling_batch_size = cell.batch;
  SkatPipeline pipeline =
      SkatPipeline::FromMemory(ctx, simdata::Generate(generator), config);

  ResamplingRequest request;
  request.method = ResamplingMethod::kMonteCarlo;
  request.replicates = 24;
  RunResampling(pipeline, request);

  engine::SetProfilingEnabled(true);  // restore the process default
  return {hash_counter.load() - before, ctx.metrics().stages()};
}

/// Per-task accounting at nanosecond resolution; 100ns of slack covers
/// clock-read granularity between the span and task timestamps.
constexpr double kPhaseSumTolerance = 1e-7;

void CheckProfileInvariants(const Cell& cell, const CellRun& run) {
  const engine::RunProfile profile = engine::BuildRunProfile(run.stages);
  ASSERT_TRUE(profile.collected) << CellName(cell);

  EXPECT_LE(profile.critical_path_seconds,
            profile.wall_seconds * (1 + 1e-9) + 1e-9)
      << CellName(cell);
  ASSERT_EQ(profile.critical_path.size(), profile.stages.size())
      << CellName(cell);

  for (const engine::StageMetrics& stage : run.stages) {
    // Profiling on means every successful task recorded a timeline.
    EXPECT_EQ(stage.timelines.size(), stage.task_seconds.size())
        << CellName(cell) << " stage " << stage.stage_id;
    for (const engine::TaskTimeline& t : stage.timelines) {
      EXPECT_GE(t.start_ns, t.enqueue_ns)
          << CellName(cell) << " stage " << stage.stage_id;
      EXPECT_GE(t.end_ns, t.start_ns)
          << CellName(cell) << " stage " << stage.stage_id;
      const auto seconds = engine::PhaseSecondsOf(t);
      double sum = 0.0;
      for (double s : seconds) {
        EXPECT_GE(s, 0.0) << CellName(cell);
        sum += s;
      }
      const double expected =
          static_cast<double>((t.start_ns - t.enqueue_ns) +
                              (t.end_ns - t.start_ns)) /
          1e9;
      EXPECT_NEAR(sum, expected, kPhaseSumTolerance)
          << CellName(cell) << " stage " << stage.stage_id << " partition "
          << t.partition;
    }
  }
}

TEST(ProfileInvariantTest, MatrixHoldsInvariantsAndBitwiseIdentity) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (std::uint64_t batch : {std::uint64_t{1}, std::uint64_t{64}}) {
      for (bool tight : {false, true}) {
        const Cell cell{threads, batch, tight};
        const CellRun with_profile = RunCell(cell, /*profile=*/true);
        CheckProfileInvariants(cell, with_profile);

        // The ablation: profiling off must change nothing but the
        // timelines themselves.
        const CellRun without_profile = RunCell(cell, /*profile=*/false);
        EXPECT_EQ(without_profile.result_hash, with_profile.result_hash)
            << CellName(cell) << ": profiling changed results";
        for (const engine::StageMetrics& stage : without_profile.stages) {
          EXPECT_TRUE(stage.timelines.empty())
              << CellName(cell) << " stage " << stage.stage_id
              << " recorded timelines with profiling off";
        }
      }
    }
  }
}

}  // namespace
}  // namespace ss::core
