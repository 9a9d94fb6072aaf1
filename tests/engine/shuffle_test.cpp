// Wide operations: PartitionByKey, ReduceByKey, Join,
// CollectAsMap — including partitioning invariants and stage accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "engine/dataset.hpp"
#include "engine/partitioner.hpp"

namespace ss::engine {
namespace {

/// A value type that counts its copies (CollectAsMapMovesValues).
struct CopyCounted {
  static inline int copies = 0;
  std::vector<double> payload = std::vector<double>(16, 1.0);
  CopyCounted() = default;
  CopyCounted(const CopyCounted& other) : payload(other.payload) { ++copies; }
  CopyCounted(CopyCounted&&) noexcept = default;
  CopyCounted& operator=(const CopyCounted& other) {
    payload = other.payload;
    ++copies;
    return *this;
  }
  CopyCounted& operator=(CopyCounted&&) noexcept = default;
};

}  // namespace

namespace internal {
template <>
struct ApproxBytesImpl<CopyCounted> {
  static std::size_t Of(const CopyCounted& value) {
    return ApproxBytesOf(value.payload);
  }
};
}  // namespace internal

namespace {

EngineContext::Options LocalOptions() {
  EngineContext::Options options;
  options.topology = cluster::EmrCluster(2);
  options.physical_threads = 4;
  return options;
}

using P = std::pair<int, int>;

std::vector<P> PairsModKeys(int n, int keys) {
  std::vector<P> pairs;
  pairs.reserve(n);
  for (int i = 0; i < n; ++i) pairs.push_back({i % keys, i});
  return pairs;
}

TEST(PartitionerTest, DeterministicAndInRange) {
  for (std::uint32_t parts : {1u, 2u, 7u, 64u}) {
    for (int key = 0; key < 1000; ++key) {
      const std::uint32_t p = PartitionOf(key, parts);
      EXPECT_LT(p, parts);
      EXPECT_EQ(p, PartitionOf(key, parts));
    }
  }
}

TEST(PartitionerTest, SequentialKeysSpreadEvenly) {
  // SNP ids are sequential; the mix must avoid pathological skew.
  const std::uint32_t parts = 8;
  std::vector<int> counts(parts, 0);
  for (int key = 0; key < 8000; ++key) ++counts[PartitionOf(key, parts)];
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(ShuffleTest, PartitionByKeyIsAPartition) {
  EngineContext ctx(LocalOptions());
  auto ds = Parallelize(ctx, PairsModKeys(100, 10), 4);
  auto shuffled = PartitionByKey(ds, 5);
  EXPECT_EQ(shuffled.NumPartitions(), 5u);
  // Same multiset of records.
  auto before = ds.Collect();
  auto after = shuffled.Collect();
  std::sort(before.begin(), before.end());
  std::sort(after.begin(), after.end());
  EXPECT_EQ(before, after);
}

TEST(ShuffleTest, CoPartitioning) {
  // All records of one key land in exactly one partition.
  EngineContext ctx(LocalOptions());
  auto shuffled = PartitionByKey(Parallelize(ctx, PairsModKeys(60, 6), 3), 4);
  auto per_partition = shuffled.MapPartitions(
      [](std::uint32_t idx, const std::vector<P>& records) {
        std::vector<std::pair<int, std::uint32_t>> keyed;
        for (const P& r : records) keyed.push_back({r.first, idx});
        return keyed;
      });
  std::map<int, std::uint32_t> key_home;
  for (const auto& [key, partition] : per_partition.Collect()) {
    auto [it, inserted] = key_home.emplace(key, partition);
    EXPECT_EQ(it->second, partition) << "key " << key << " split";
  }
  EXPECT_EQ(key_home.size(), 6u);
}

TEST(ShuffleTest, ReduceByKeySums) {
  EngineContext ctx(LocalOptions());
  auto ds = Parallelize(ctx, PairsModKeys(100, 4), 8);
  auto reduced = ReduceByKey(ds, [](int a, int b) { return a + b; }, 3);
  auto result = CollectAsMap(reduced);
  ASSERT_EQ(result.size(), 4u);
  // Key k holds values k, k+4, ..., k+96: 25 values.
  for (int k = 0; k < 4; ++k) {
    int expected = 0;
    for (int v = k; v < 100; v += 4) expected += v;
    EXPECT_EQ(result[k], expected) << "key " << k;
  }
}

TEST(ShuffleTest, ReduceByKeySingleKey) {
  EngineContext ctx(LocalOptions());
  std::vector<P> pairs;
  for (int i = 1; i <= 50; ++i) pairs.push_back({7, i});
  auto reduced = ReduceByKey(Parallelize(ctx, pairs, 5),
                             [](int a, int b) { return a + b; }, 2);
  auto result = CollectAsMap(reduced);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[7], 50 * 51 / 2);
}

TEST(ShuffleTest, ReduceByKeyEmptyInput) {
  EngineContext ctx(LocalOptions());
  auto reduced = ReduceByKey(Parallelize(ctx, std::vector<P>{}, 3),
                             [](int a, int b) { return a + b; }, 2);
  EXPECT_TRUE(reduced.Collect().empty());
}

TEST(ShuffleTest, JoinMatchesKeys) {
  EngineContext ctx(LocalOptions());
  std::vector<std::pair<int, std::string>> left = {
      {1, "a"}, {2, "b"}, {3, "c"}};
  std::vector<std::pair<int, double>> right = {{2, 2.5}, {3, 3.5}, {4, 4.5}};
  auto joined = Join(Parallelize(ctx, left, 2), Parallelize(ctx, right, 3), 4);
  auto rows = joined.Collect();
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, 2);
  EXPECT_EQ(rows[0].second.first, "b");
  EXPECT_DOUBLE_EQ(rows[0].second.second, 2.5);
  EXPECT_EQ(rows[1].first, 3);
}

TEST(ShuffleTest, JoinWithDuplicateKeysIsCrossProductPerKey) {
  EngineContext ctx(LocalOptions());
  std::vector<P> left = {{1, 10}, {1, 11}};
  std::vector<P> right = {{1, 20}, {1, 21}, {1, 22}};
  auto joined = Join(Parallelize(ctx, left, 1), Parallelize(ctx, right, 1), 2);
  EXPECT_EQ(joined.Collect().size(), 6u);
}

TEST(ShuffleTest, JoinDisjointKeysEmpty) {
  EngineContext ctx(LocalOptions());
  std::vector<P> left = {{1, 1}};
  std::vector<P> right = {{2, 2}};
  auto joined = Join(Parallelize(ctx, left, 1), Parallelize(ctx, right, 1), 2);
  EXPECT_TRUE(joined.Collect().empty());
}

TEST(ShuffleTest, CollectAsMapLastWins) {
  EngineContext ctx(LocalOptions());
  std::vector<P> pairs = {{1, 10}, {1, 20}};
  auto map = CollectAsMap(Parallelize(ctx, pairs, 1));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map[1], 20);
}

TEST(ShuffleTest, CollectAsMapMovesValues) {
  // Collecting an uncached dataset to a map moves every value from the
  // task that made it to the map.
  EngineContext ctx(LocalOptions());
  std::vector<int> keys(40);
  for (int i = 0; i < 40; ++i) keys[static_cast<std::size_t>(i)] = i % 30;
  auto pairs = Parallelize(ctx, keys, 4).Map(
      [](int key) { return std::pair<int, CopyCounted>(key, CopyCounted{}); });
  CopyCounted::copies = 0;
  const auto map = CollectAsMap(pairs);
  EXPECT_EQ(CopyCounted::copies, 0);
  EXPECT_EQ(map.size(), 30u);
  EXPECT_EQ(map.at(7).payload.size(), 16u);
}

TEST(ShuffleTest, ShuffleRecordsMapAndReduceStages) {
  EngineContext ctx(LocalOptions());
  auto shuffled = PartitionByKey(Parallelize(ctx, PairsModKeys(50, 5), 4), 3);
  shuffled.Collect("reduce-side");
  const auto stages = ctx.metrics().stages();
  ASSERT_EQ(stages.size(), 2u);  // map stage + collect stage
  EXPECT_NE(stages[0].label.find("shuffle-map"), std::string::npos);
  EXPECT_GT(stages[0].shuffle_write_bytes, 0u);
  EXPECT_GT(stages[1].shuffle_read_bytes, 0u);
}

TEST(ShuffleTest, MapStageRunsOncePerShuffle) {
  EngineContext ctx(LocalOptions());
  auto shuffled = PartitionByKey(Parallelize(ctx, PairsModKeys(50, 5), 4), 3);
  shuffled.Collect();
  shuffled.Collect();
  int map_stages = 0;
  for (const auto& stage : ctx.metrics().stages()) {
    if (stage.label.starts_with("shuffle-map")) ++map_stages;
  }
  EXPECT_EQ(map_stages, 1);  // EnsureReady is idempotent
}

TEST(ShuffleTest, NestedShufflesMaterializeDeepestFirst) {
  EngineContext ctx(LocalOptions());
  auto ds = Parallelize(ctx, PairsModKeys(100, 10), 4);
  auto once = ReduceByKey(ds, [](int a, int b) { return a + b; }, 3);
  // Re-key by value parity and reduce again: two chained shuffles.
  auto rekeyed = once.Map([](const P& r) {
    return P{r.second % 2, r.second};
  });
  auto twice = ReduceByKey(rekeyed, [](int a, int b) { return a + b; }, 2);
  auto result = CollectAsMap(twice);
  int total = 0;
  for (const auto& [k, v] : result) total += v;
  EXPECT_EQ(total, 99 * 100 / 2);  // grand total preserved through both
}

/// Sweep: ReduceByKey result is independent of partitioning choices.
class ReducerSweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(ReducerSweep, PartitioningInvariant) {
  const auto [input_parts, reducers] = GetParam();
  EngineContext ctx(LocalOptions());
  auto reduced =
      ReduceByKey(Parallelize(ctx, PairsModKeys(200, 13), input_parts),
                  [](int a, int b) { return a + b; }, reducers);
  auto result = CollectAsMap(reduced);
  ASSERT_EQ(result.size(), 13u);
  for (int k = 0; k < 13; ++k) {
    int expected = 0;
    for (int v = k; v < 200; v += 13) expected += v;
    EXPECT_EQ(result[k], expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ReducerSweep,
                         ::testing::Combine(::testing::Values(1u, 3u, 8u),
                                            ::testing::Values(1u, 4u, 16u)));

}  // namespace
}  // namespace ss::engine
