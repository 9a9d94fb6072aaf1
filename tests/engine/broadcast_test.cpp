#include <gtest/gtest.h>

#include <vector>

#include "engine/broadcast.hpp"
#include "engine/dataset.hpp"

namespace ss::engine {
namespace {

EngineContext::Options LocalOptions(int nodes = 4) {
  EngineContext::Options options;
  options.topology = cluster::EmrCluster(nodes);
  options.physical_threads = 4;
  return options;
}

TEST(BroadcastTest, ValueAccessible) {
  EngineContext ctx(LocalOptions());
  auto b = MakeBroadcast(ctx, std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_TRUE(b);
  EXPECT_EQ(b->size(), 3u);
  EXPECT_DOUBLE_EQ((*b)[1], 2.0);
  EXPECT_DOUBLE_EQ(b.value()[2], 3.0);
}

TEST(BroadcastTest, DefaultIsEmpty) {
  Broadcast<int> b;
  EXPECT_FALSE(b);
}

TEST(BroadcastTest, CopiesShareValue) {
  EngineContext ctx(LocalOptions());
  auto a = MakeBroadcast(ctx, 42);
  Broadcast<int> b = a;
  EXPECT_EQ(&a.value(), &b.value());
}

TEST(BroadcastTest, RecordsTrafficProportionalToExecutors) {
  EngineContext ctx6(LocalOptions(6));
  EngineContext ctx12(LocalOptions(12));
  const std::vector<double> payload(1000, 1.0);
  MakeBroadcast(ctx6, payload);
  MakeBroadcast(ctx12, payload);
  EXPECT_EQ(ctx12.metrics().broadcast_bytes(),
            2 * ctx6.metrics().broadcast_bytes());
}

TEST(BroadcastTest, UsableInsideTasks) {
  EngineContext ctx(LocalOptions());
  auto offsets = MakeBroadcast(ctx, std::vector<int>{100, 200, 300});
  auto ds = Parallelize(ctx, std::vector<int>{0, 1, 2}, 3)
                .Map([offsets](const int& x) { return (*offsets)[x]; });
  EXPECT_EQ(ds.Collect(), (std::vector<int>{100, 200, 300}));
}

}  // namespace
}  // namespace ss::engine
