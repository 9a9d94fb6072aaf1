#include "engine/dataset.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "cluster/topology.hpp"

namespace ss::engine {
namespace {

EngineContext::Options LocalOptions() {
  EngineContext::Options options;
  options.topology = cluster::EmrCluster(2);
  options.physical_threads = 4;
  options.seed = 7;
  return options;
}

std::vector<int> Ints(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(DatasetTest, ParallelizeCollectRoundTrip) {
  EngineContext ctx(LocalOptions());
  const auto data = Ints(100);
  auto ds = Parallelize(ctx, data, 7);
  EXPECT_EQ(ds.NumPartitions(), 7u);
  EXPECT_EQ(ds.Collect(), data);  // partition order preserved
}

TEST(DatasetTest, ParallelizeMorePartitionsThanElements) {
  EngineContext ctx(LocalOptions());
  auto ds = Parallelize(ctx, Ints(3), 10);
  EXPECT_EQ(ds.NumPartitions(), 10u);
  EXPECT_EQ(ds.Collect(), Ints(3));
}

TEST(DatasetTest, ParallelizeEmpty) {
  EngineContext ctx(LocalOptions());
  auto ds = Parallelize(ctx, std::vector<int>{}, 4);
  EXPECT_TRUE(ds.Collect().empty());
}

TEST(DatasetTest, MapTransformsEveryElement) {
  EngineContext ctx(LocalOptions());
  auto doubled =
      Parallelize(ctx, Ints(50), 5).Map([](const int& x) { return x * 2; });
  const auto got = doubled.Collect();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(got[i], 2 * i);
}

TEST(DatasetTest, MapChangesType) {
  EngineContext ctx(LocalOptions());
  auto strings = Parallelize(ctx, Ints(5), 2).Map([](const int& x) {
    return std::to_string(x);
  });
  EXPECT_EQ(strings.Collect(),
            (std::vector<std::string>{"0", "1", "2", "3", "4"}));
}

TEST(DatasetTest, FilterKeepsMatching) {
  EngineContext ctx(LocalOptions());
  auto evens =
      Parallelize(ctx, Ints(20), 3).Filter([](const int& x) { return x % 2 == 0; });
  const auto got = evens.Collect();
  EXPECT_EQ(got.size(), 10u);
  for (int x : got) EXPECT_EQ(x % 2, 0);
}

TEST(DatasetTest, FlatMapExpands) {
  EngineContext ctx(LocalOptions());
  auto expanded = Parallelize(ctx, Ints(4), 2).FlatMap([](const int& x) {
    return std::vector<int>(static_cast<std::size_t>(x), x);
  });
  EXPECT_EQ(expanded.Collect(), (std::vector<int>{1, 2, 2, 3, 3, 3}));
}

TEST(DatasetTest, MapPartitionsSeesWholePartition) {
  EngineContext ctx(LocalOptions());
  auto sizes = Parallelize(ctx, Ints(10), 3)
                   .MapPartitions([](std::uint32_t, const std::vector<int>& p) {
                     return std::vector<std::size_t>{p.size()};
                   });
  const auto got = sizes.Collect();
  EXPECT_EQ(got, (std::vector<std::size_t>{4, 3, 3}));
}

TEST(DatasetTest, MapPartitionsReceivesIndex) {
  EngineContext ctx(LocalOptions());
  auto indices = Parallelize(ctx, Ints(6), 3)
                     .MapPartitions([](std::uint32_t idx, const std::vector<int>&) {
                       return std::vector<std::uint32_t>{idx};
                     });
  EXPECT_EQ(indices.Collect(), (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(DatasetTest, ChainedNarrowOps) {
  EngineContext ctx(LocalOptions());
  auto result = Parallelize(ctx, Ints(100), 5)
                    .Map([](const int& x) { return x + 1; })
                    .Filter([](const int& x) { return x % 3 == 0; })
                    .Map([](const int& x) { return x * x; })
                    .Collect();
  std::vector<int> expected;
  for (int x = 0; x < 100; ++x) {
    if ((x + 1) % 3 == 0) expected.push_back((x + 1) * (x + 1));
  }
  EXPECT_EQ(result, expected);
}

TEST(DatasetTest, TextFileOnePartitionPerBlock) {
  dfs::MiniDfs store({.num_nodes = 2, .replication = 1, .block_lines = 4});
  std::vector<std::string> lines;
  for (int i = 0; i < 10; ++i) {
    std::string line = "l";
    line += std::to_string(i);
    lines.push_back(std::move(line));
  }
  ASSERT_TRUE(store.WriteTextFile("/t", lines).ok());
  EngineContext ctx(LocalOptions(), &store);
  auto ds = TextFile(ctx, "/t");
  EXPECT_EQ(ds.NumPartitions(), 3u);
  EXPECT_EQ(ds.Collect(), lines);
}

TEST(DatasetTest, TextFileMissingThrows) {
  dfs::MiniDfs store({.num_nodes = 2, .replication = 1, .block_lines = 4});
  EngineContext ctx(LocalOptions(), &store);
  EXPECT_THROW(TextFile(ctx, "/missing"), StatusError);
}

TEST(DatasetTest, DebugStringShowsLineage) {
  EngineContext ctx(LocalOptions());
  auto ds = Parallelize(ctx, Ints(4), 2)
                .Map([](const int& x) { return x; })
                .Filter([](const int&) { return true; });
  const std::string debug = ds.DebugString();
  EXPECT_NE(debug.find("filter"), std::string::npos);
  EXPECT_NE(debug.find("map"), std::string::npos);
  EXPECT_NE(debug.find("parallelize"), std::string::npos);
}

TEST(DatasetTest, MetricsRecordStages) {
  EngineContext ctx(LocalOptions());
  Parallelize(ctx, Ints(10), 2).Collect("my-stage");
  const auto stages = ctx.metrics().stages();
  ASSERT_EQ(stages.size(), 1u);
  EXPECT_EQ(stages[0].label, "my-stage");
  EXPECT_EQ(stages[0].task_seconds.size(), 2u);
  EXPECT_EQ(stages[0].records_out, 10u);
}

TEST(StageReportTest, ListsStagesWithMetrics) {
  EngineContext ctx(LocalOptions());
  auto ds = Parallelize(ctx, std::vector<int>{1, 2, 3, 4}, 2)
                .Map([](const int& x) {
                  return std::pair<int, int>(x % 2, x);
                });
  CollectAsMap(ReduceByKey(ds, [](int a, int b) { return a + b; }, 2));
  const std::string report = FormatStageReport(ctx.metrics().stages());
  EXPECT_NE(report.find("shuffle-map"), std::string::npos);
  EXPECT_NE(report.find("collectAsMap"), std::string::npos);
  EXPECT_NE(report.find("Stages"), std::string::npos);
}

TEST(DriverGuardTest, ActionInsideTaskAborts) {
  // Everything lives inside the death statement: the forked child must
  // create its own thread pool (worker threads do not survive fork).
  auto nested_action = []() {
    EngineContext ctx(LocalOptions());
    auto inner = Parallelize(ctx, std::vector<int>{1, 2}, 1);
    auto outer = Parallelize(ctx, std::vector<int>{10}, 1)
                     .Map([inner](const int& x) {
                       // Nested action from a task closure: forbidden.
                       return x + inner.Collect().front();
                     });
    outer.Collect();
  };
  EXPECT_DEATH(nested_action(), "inside a task");
}

/// Sweep: collect order is stable for any partitioning.
class PartitionSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PartitionSweep, CollectPreservesOrder) {
  EngineContext ctx(LocalOptions());
  const auto data = Ints(97);
  EXPECT_EQ(Parallelize(ctx, data, GetParam()).Collect(), data);
}

INSTANTIATE_TEST_SUITE_P(Partitions, PartitionSweep,
                         ::testing::Values(1, 2, 3, 8, 16, 97, 200));

}  // namespace
}  // namespace ss::engine
