// Failure-injection tests: task retry, retry exhaustion, cache loss on
// node failure with lineage recomputation, spill-store sabotage (corrupt
// and deleted frames must degrade to lineage recompute, bitwise equal to
// the serial oracle), and DFS failover inside tasks.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "cluster/fault_injector.hpp"
#include "engine/dataset.hpp"
#include "engine/trace.hpp"

namespace ss::engine {
namespace {

EngineContext::Options LocalOptions(int max_attempts = 4) {
  EngineContext::Options options;
  options.topology = cluster::EmrCluster(3);
  options.physical_threads = 4;
  options.max_task_attempts = max_attempts;
  return options;
}

TEST(FaultToleranceTest, InjectedTaskFailureIsRetried) {
  cluster::FaultInjector faults;
  EngineContext ctx(LocalOptions(), nullptr, &faults);
  auto ds = Parallelize(ctx, std::vector<int>{1, 2, 3, 4}, 2);
  // Fail the first two attempts of (next stage id = 1, partition 0).
  faults.FailTask(1, 0, 2);
  EXPECT_EQ(ds.Collect(), (std::vector<int>{1, 2, 3, 4}));
  ASSERT_EQ(ctx.metrics().stages().size(), 1u);
  EXPECT_EQ(ctx.metrics().stages()[0].failed_attempts, 2);
}

TEST(FaultToleranceTest, RetryExhaustionFailsJob) {
  cluster::FaultInjector faults;
  EngineContext ctx(LocalOptions(/*max_attempts=*/3), nullptr, &faults);
  auto ds = Parallelize(ctx, std::vector<int>{1}, 1);
  faults.FailTask(1, 0, 99);  // more failures than attempts
  EXPECT_THROW(ds.Collect(), TaskFailure);
}

TEST(FaultToleranceTest, ThrowingClosureIsRetriedAndSucceeds) {
  EngineContext ctx(LocalOptions());
  std::atomic<int> attempts{0};
  auto ds = Parallelize(ctx, std::vector<int>{5}, 1).Map([&attempts](const int& x) {
    if (attempts.fetch_add(1) < 2) throw TaskFailure("flaky");
    return x * 2;
  });
  EXPECT_EQ(ds.Collect(), std::vector<int>{10});
  EXPECT_EQ(attempts.load(), 3);
}

TEST(FaultToleranceTest, NodeFailureDropsCacheAndLineageRecovers) {
  cluster::FaultInjector faults;
  EngineContext ctx(LocalOptions(), nullptr, &faults);
  std::atomic<int> computes{0};
  std::vector<int> data(30);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Parallelize(ctx, data, 6).Map([&computes](const int& x) {
    computes.fetch_add(1);
    return x + 1;
  });
  ds.Cache();
  const auto first = ds.Collect();
  EXPECT_EQ(computes.load(), 30);

  // Fail node 0 after the next task completes; its cached partitions drop.
  faults.FailNodeAfterTasks(0, 1);
  const auto second = ds.Collect();
  EXPECT_EQ(second, first);

  // A third pass recomputes exactly the lost partitions, nothing else.
  const int after_second = computes.load();
  const auto third = ds.Collect();
  EXPECT_EQ(third, first);
  EXPECT_GT(computes.load(), 30);          // something was recomputed
  EXPECT_GE(computes.load(), after_second);  // and results stayed correct
  EXPECT_GT(ctx.cache().stats().dropped_by_failure, 0u);
}

TEST(FaultToleranceTest, ExplicitFailNodeDropsOnlyThatNode) {
  EngineContext ctx(LocalOptions());
  std::vector<int> data(30);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Parallelize(ctx, data, 6).Map([](const int& x) { return x; });
  ds.Cache();
  ds.Collect();
  const std::size_t before = ctx.cache().entry_count();
  EXPECT_EQ(before, 6u);
  ctx.FailNode(1);
  const std::size_t after = ctx.cache().entry_count();
  EXPECT_LT(after, before);
  EXPECT_GT(after, 0u);  // other nodes' partitions survive
  EXPECT_EQ(ds.Collect(), ds.Collect());
}

/// Shared harness for the spill-sabotage tests: a cached dataset under a
/// budget tight enough that most partitions live in the spill tier, a
/// serial std:: oracle, and a mid-run injected spill fault. Single
/// physical thread so the fault deterministically fires after the first
/// task of the second pass — every later lookup sees the injured store.
void RunSpillSabotage(bool drop) {
  cluster::FaultInjector faults;
  EngineContext::Options options = LocalOptions();
  options.physical_threads = 1;
  options.cache_capacity_bytes = 256;  // ~1 partition resident at a time
  EngineContext ctx(options, nullptr, &faults);

  std::vector<int> data(240);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Parallelize(ctx, data, 8).Map([](const int& x) {
    return x * 3 + 1;
  });
  ds.Cache();

  std::vector<int> oracle;  // serial reference
  oracle.reserve(data.size());
  for (int x : data) oracle.push_back(x * 3 + 1);

  EXPECT_EQ(ds.Collect(), oracle);
  ASSERT_GT(ctx.cache().stats().spills, 0u)
      << "budget did not force any spill; the test is vacuous";

  if (drop) {
    faults.DropSpillAfterTasks(1);
  } else {
    faults.CorruptSpillAfterTasks(1);
  }
  const std::uint64_t corrupt_before = ctx.cache().stats().spill_corrupt;
  EXPECT_EQ(ds.Collect(), oracle);  // bitwise equal despite the sabotage
  EXPECT_GT(ctx.cache().stats().spill_corrupt, corrupt_before);
  EXPECT_GE(CounterRegistry::Global().Get("fault.spill_injuries").load(), 1u);

  // The tier recovers: re-evictions rewrite fresh frames and a third pass
  // still matches.
  EXPECT_EQ(ds.Collect(), oracle);
}

TEST(FaultToleranceTest, CorruptedSpillFramesFallBackToLineage) {
  RunSpillSabotage(/*drop=*/false);
}

TEST(FaultToleranceTest, DeletedSpillFramesFallBackToLineage) {
  RunSpillSabotage(/*drop=*/true);
}

TEST(FaultToleranceTest, DfsNodeLossRecoveredByTaskRetry) {
  // Replicated DFS + task retries: killing one DFS node mid-read must not
  // fail the job.
  dfs::MiniDfs store({.num_nodes = 3, .replication = 2, .block_lines = 5});
  std::vector<std::string> lines;
  for (int i = 0; i < 30; ++i) lines.push_back(std::to_string(i));
  ASSERT_TRUE(store.WriteTextFile("/data", lines).ok());

  EngineContext ctx(LocalOptions(), &store);
  store.KillNode(1);  // all reads must fail over to surviving replicas
  auto ds = TextFile(ctx, "/data");
  EXPECT_EQ(ds.Collect(), lines);
}

TEST(FaultToleranceTest, DfsTotalLossFailsJobAfterRetries) {
  dfs::MiniDfs store({.num_nodes = 2, .replication = 1, .block_lines = 5});
  ASSERT_TRUE(store.WriteTextFile("/data", {"a", "b"}).ok());
  EngineContext ctx(LocalOptions(/*max_attempts=*/2), &store);
  auto ds = TextFile(ctx, "/data");
  store.KillNode(0);
  store.KillNode(1);
  EXPECT_THROW(ds.Collect(), TaskFailure);
}

TEST(FaultToleranceTest, ShuffleSurvivesMapTaskRetries) {
  cluster::FaultInjector faults;
  EngineContext ctx(LocalOptions(), nullptr, &faults);
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 40; ++i) pairs.push_back({i % 4, i});
  auto ds = Parallelize(ctx, pairs, 4);
  faults.FailTask(1, 2, 1);  // one map-stage task fails once
  auto reduced = ReduceByKey(ds, [](int a, int b) { return a + b; }, 2);
  auto result = CollectAsMap(reduced);
  int total = 0;
  for (const auto& [k, v] : result) total += v;
  EXPECT_EQ(total, 39 * 40 / 2);
}

}  // namespace
}  // namespace ss::engine
