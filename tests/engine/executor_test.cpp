// Async executor regression battery.
//
// The contract under test: the I/O lane (prefetch + Z-block staging)
// changes *scheduling only* — `resampling.result_hash` is bitwise
// invariant across every prefetch depth, thread count, batch size, and
// cache budget; prefetch_depth=0 fully ablates the lane; and tearing an
// engine down while prefetches are in flight is safe.
#include "engine/executor.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/resampling_methods.hpp"
#include "engine/context.hpp"
#include "engine/trace.hpp"

namespace ss::core {
namespace {

constexpr std::uint64_t kSeed = 20160808;
constexpr std::uint64_t kReplicates = 12;

// The CI executor-matrix job forces SS_PREFETCH across the whole tier-1
// suite. This binary tests *explicit* exec configs — the
// override would rewrite every ablation assertion — so drop it up front.
class ExecEnvGuard : public ::testing::Environment {
 public:
  void SetUp() override {
    ::unsetenv("SS_PREFETCH");
  }
};
const ::testing::Environment* const kExecEnvGuard =
    ::testing::AddGlobalTestEnvironment(new ExecEnvGuard);

std::uint64_t Counter(const std::string& name) {
  return engine::CounterRegistry::Global().Get(name).load();
}

simdata::SyntheticDataset FixedDataset() {
  simdata::GeneratorConfig config;
  config.num_patients = 60;
  config.num_snps = 48;
  config.num_sets = 6;
  config.seed = kSeed;
  return simdata::Generate(config);
}

struct RunConfig {
  engine::ExecConfig exec;
  std::size_t threads = 4;
  std::uint64_t batch = 1;
  std::uint64_t cache_budget = 0;  ///< 0 = unlimited (no evictions).
};

/// One full Monte Carlo run from zeroed counters; returns the
/// order-independent result hash the engine folds into
/// `resampling.result_hash` (see HashResamplingResult).
std::uint64_t RunAndHash(const RunConfig& run,
                         const simdata::SyntheticDataset& dataset) {
  engine::CounterRegistry::Global().ResetAll();
  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(3);
  options.physical_threads = run.threads;
  options.seed = kSeed;
  options.cache_capacity_bytes = run.cache_budget;
  options.exec = run.exec;
  engine::EngineContext ctx(options);
  PipelineConfig config;
  config.seed = kSeed;
  config.resampling_batch_size = run.batch;
  config.cache_budget_bytes = run.cache_budget;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, kReplicates});
  const std::uint64_t hash = Counter("resampling.result_hash");
  EXPECT_NE(hash, 0u);
  return hash;
}

TEST(ExecutorDeterminismTest, ResultHashInvariantAcrossTheMatrix) {
  // prefetch {0,1,2} x threads {1,4} x batch {1,64} x budget {off,on}:
  // every cell must reproduce the ablated single-thread hash bit for bit.
  const simdata::SyntheticDataset dataset = FixedDataset();
  RunConfig reference;
  reference.exec.prefetch_depth = 0;
  reference.threads = 1;
  reference.batch = 1;
  const std::uint64_t expected = RunAndHash(reference, dataset);
  for (int prefetch : {0, 1, 2}) {
    for (std::size_t threads : {1u, 4u}) {
      for (std::uint64_t batch : {1u, 64u}) {
        for (std::uint64_t budget : {0u, 4096u}) {
          RunConfig run;
          run.exec.prefetch_depth = prefetch;
          run.exec.io_threads = 2;
          run.threads = threads;
          run.batch = batch;
          run.cache_budget = budget;
          SCOPED_TRACE("prefetch=" + std::to_string(prefetch) +
                       " threads=" + std::to_string(threads) +
                       " batch=" + std::to_string(batch) +
                       " budget=" + std::to_string(budget));
          EXPECT_EQ(RunAndHash(run, dataset), expected);
        }
      }
    }
  }
}

TEST(ExecutorDeterminismTest, PrefetchZeroFullyAblatesTheLane) {
  const simdata::SyntheticDataset dataset = FixedDataset();
  RunConfig ablated;
  ablated.exec.prefetch_depth = 0;
  RunAndHash(ablated, dataset);
  EXPECT_EQ(Counter("exec.channel_stages"), 0u);
  EXPECT_EQ(Counter("exec.io_jobs"), 0u);
  EXPECT_EQ(Counter("exec.prefetches"), 0u);
  EXPECT_EQ(Counter("exec.zblock_prefetches"), 0u);

  RunConfig active;
  active.exec.prefetch_depth = 2;
  RunAndHash(active, dataset);
  EXPECT_GT(Counter("exec.channel_stages"), 0u)
      << "prefetch_depth=2 must route stages through channel dispatch";
}

TEST(ExecutorDeterminismTest, ZBlockDoubleBufferRunsOnTheLane) {
  // batch < replicates means multiple engine passes, so the next batch's
  // Z-block is staged on the I/O lane while the current one scores.
  const simdata::SyntheticDataset dataset = FixedDataset();
  RunConfig run;
  run.exec.prefetch_depth = 1;
  run.batch = 4;
  const std::uint64_t overlapped = RunAndHash(run, dataset);
  EXPECT_GT(Counter("exec.zblock_prefetches"), 0u);
  EXPECT_GT(Counter("exec.io_jobs"), 0u);

  RunConfig ablated = run;
  ablated.exec.prefetch_depth = 0;
  EXPECT_EQ(RunAndHash(ablated, dataset), overlapped);
}

TEST(ExecutorShutdownTest, DestructorRunsEveryAcceptedJob) {
  std::atomic<int> ran{0};
  {
    engine::ExecConfig config;
    config.io_threads = 2;
    config.queue_bound = 4;
    engine::AsyncExecutor executor(config);
    for (int i = 0; i < 16; ++i) {
      ASSERT_TRUE(executor.Enqueue([&ran]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
      }));
    }
  }  // dtor: close, drain residue, join
  EXPECT_EQ(ran.load(), 16);
}

TEST(ExecutorShutdownTest, TeardownWhilePrefetchingIsSafe) {
  // Regression: destroying the engine right after a run must not race
  // in-flight prefetch jobs against cache/pool teardown (the executor is
  // declared last in EngineContext, so it drains first).
  const simdata::SyntheticDataset dataset = FixedDataset();
  for (int round = 0; round < 4; ++round) {
    RunConfig run;
    run.exec.prefetch_depth = 2;
    run.exec.io_threads = 2;
    run.cache_budget = 4096;  // keep eviction/prefetch traffic flowing
    RunAndHash(run, dataset);
  }  // context destroyed with the lane potentially mid-prefetch
}

TEST(ExecutorShutdownTest, DrainWaitsForPendingJobs) {
  engine::ExecConfig config;
  config.io_threads = 1;
  engine::AsyncExecutor executor(config);
  std::atomic<bool> done{false};
  ASSERT_TRUE(executor.Enqueue([&done]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    done = true;
  }));
  executor.Drain();
  EXPECT_TRUE(done.load());
  EXPECT_EQ(executor.pending(), 0u);
}

}  // namespace
}  // namespace ss::core
