#include "core/autotune.hpp"

#include <algorithm>
#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

#include "engine/context.hpp"
#include "engine/dataset.hpp"

namespace ss::core {
namespace {

engine::EngineContext::Options LocalOptions() {
  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(2);
  options.physical_threads = 4;
  return options;
}

/// Runs a job with more tasks than the largest candidate's slot count so
/// scaling differences are visible in the replay.
void RunSampleJob(engine::EngineContext& ctx) {
  std::vector<int> data(2000);
  for (int i = 0; i < 2000; ++i) data[i] = i;
  engine::Parallelize(ctx, data, 500)
      .Map([](const int& x) {
        double acc = 0;
        for (int k = 0; k < 2000; ++k) acc += static_cast<double>(k ^ x);
        return acc;
      })
      .Collect();
}

TEST(AutotuneTest, ContainerSweepMatchesTableVIII) {
  const auto candidates = ContainerSweepCandidates();
  ASSERT_EQ(candidates.size(), 3u);
  for (const auto& topology : candidates) {
    EXPECT_EQ(topology.num_nodes, 36);
  }
  EXPECT_EQ(candidates[0].cores_per_executor, 6);
  EXPECT_EQ(candidates[1].cores_per_executor, 3);
  EXPECT_EQ(candidates[2].cores_per_executor, 2);
}

TEST(AutotuneTest, AllPaperConfigsPlaceable) {
  for (const auto& topology : ContainerSweepCandidates()) {
    EXPECT_TRUE(IsPlaceable(topology)) << topology.ToString();
  }
  for (int nodes : {6, 12, 18, 36}) {  // Table VI's strong-scaling clusters
    EXPECT_TRUE(IsPlaceable(cluster::EmrCluster(nodes)))
        << cluster::EmrCluster(nodes).ToString();
  }
}

TEST(AutotuneTest, OversizedContainersNotPlaceable) {
  // 100 GiB containers cannot fit on 30 GiB nodes.
  EXPECT_FALSE(IsPlaceable(cluster::ContainerConfig(4, 4, 100.0, 1)));
}

// The placement verdicts a YARN resource manager gives an application's
// container request, checked through IsPlaceable (24 GiB usable per node).

TEST(ResourceManagerTest, RejectsInvalidShape) {
  EXPECT_FALSE(IsPlaceable(cluster::ContainerConfig(1, 1, 0.0, 1)));
  EXPECT_FALSE(IsPlaceable(cluster::ContainerConfig(1, 1, 1.0, 0)));
  EXPECT_FALSE(IsPlaceable(cluster::ContainerConfig(0, 1, 1.0, 1)));
}

TEST(ResourceManagerTest, MemoryOnlyCalculatorIgnoresVcores) {
  // Memory alone decides (the Default calculator): 3 × 6 vcores = 18 > 8
  // vCPUs, but 18 GiB < 24 GiB, so all three place.
  EXPECT_TRUE(IsPlaceable(cluster::ContainerConfig(1, 3, 6.0, 6)));
  // 8 containers of 3 GiB × 2 cores fill the node's 24 GiB though they
  // ask 16 of its 8 vCPUs; a ninth does not fit.
  EXPECT_TRUE(IsPlaceable(cluster::ContainerConfig(1, 8, 3.0, 2)));
  EXPECT_FALSE(IsPlaceable(cluster::ContainerConfig(1, 9, 3.0, 2)));
}

TEST(ResourceManagerTest, AllocateManyIsAllOrNothing) {
  // Two 10 GiB containers fit per node: 4 on 2 nodes place, 5 do not.
  EXPECT_TRUE(IsPlaceable(cluster::ContainerConfig(2, 4, 10.0, 1)));
  EXPECT_FALSE(IsPlaceable(cluster::ContainerConfig(2, 5, 10.0, 1)));
  // Likewise 72 on 36 nodes place, 73 do not.
  EXPECT_TRUE(IsPlaceable(cluster::ContainerConfig(36, 72, 10.0, 6)));
  EXPECT_FALSE(IsPlaceable(cluster::ContainerConfig(36, 73, 10.0, 6)));
}

TEST(ResourceManagerTest, PaperTableVIIIConfigsPlaceable) {
  // All three Table VIII configurations fit on 36 nodes under the
  // memory-only calculator.
  struct Config { int containers; double mem; int cores; };
  for (const Config& config : std::initializer_list<Config>{
           {42, 10.0, 6}, {84, 5.0, 3}, {126, 3.0, 2}}) {
    EXPECT_TRUE(IsPlaceable(cluster::ContainerConfig(
        36, config.containers, config.mem, config.cores)))
        << config.containers << " containers";
  }
}

TEST(AutotuneTest, ContainerSplitNearlyNegligible) {
  // Fig 7's observation: at a fixed node count, the container split
  // hardly matters (slots ≈ constant). Predicted makespans within 25%.
  engine::EngineContext ctx(LocalOptions());
  RunSampleJob(ctx);
  std::vector<double> makespans;
  for (const auto& topology : ContainerSweepCandidates()) {
    makespans.push_back(ctx.ReplayOn(topology).total_s);
  }
  const auto [fastest, slowest] =
      std::minmax_element(makespans.begin(), makespans.end());
  EXPECT_LT(*slowest / *fastest, 1.25);
}

}  // namespace
}  // namespace ss::core
