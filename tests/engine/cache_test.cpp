// CacheManager unit tests plus Dataset::Cache() integration: hit counting,
// LRU eviction, node-tagged drops, and the guarantee that eviction never
// changes results (lineage recomputes).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "engine/cache_manager.hpp"
#include "engine/dataset.hpp"
#include "engine/node.hpp"

namespace ss::engine {
namespace {

std::shared_ptr<void> Payload(int v) {
  return std::make_shared<int>(v);
}

TEST(CacheManagerTest, LookupMissThenHit) {
  CacheManager cache;
  const CacheKey key{1, 0};
  EXPECT_EQ(cache.Lookup(key), nullptr);
  cache.Insert(key, Payload(5), 100, 0);
  auto hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*std::static_pointer_cast<int>(hit), 5);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.bytes_cached, 100u);
}

TEST(CacheManagerTest, InsertRefreshesExisting) {
  CacheManager cache;
  const CacheKey key{1, 0};
  cache.Insert(key, Payload(1), 100, 0);
  cache.Insert(key, Payload(2), 50, 0);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.stats().bytes_cached, 50u);
  EXPECT_EQ(*std::static_pointer_cast<int>(cache.Lookup(key)), 2);
}

TEST(CacheManagerTest, LruEvictionUnderPressure) {
  CacheManager cache(/*capacity=*/250);
  cache.Insert({1, 0}, Payload(0), 100, 0);
  cache.Insert({1, 1}, Payload(1), 100, 0);
  // Touch {1,0} so {1,1} is the LRU victim.
  ASSERT_NE(cache.Lookup({1, 0}), nullptr);
  cache.Insert({1, 2}, Payload(2), 100, 0);  // 300 > 250: evict {1,1}
  EXPECT_EQ(cache.Lookup({1, 1}), nullptr);
  EXPECT_NE(cache.Lookup({1, 0}), nullptr);
  EXPECT_NE(cache.Lookup({1, 2}), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheManagerTest, OversizedEntryAdmitted) {
  CacheManager cache(/*capacity=*/10);
  cache.Insert({1, 0}, Payload(0), 1000, 0);
  EXPECT_NE(cache.Lookup({1, 0}), nullptr);  // kept despite being oversized
}

TEST(CacheManagerTest, UnlimitedCapacityNeverEvicts) {
  CacheManager cache(0);
  for (std::uint32_t i = 0; i < 100; ++i) {
    cache.Insert({1, i}, Payload(static_cast<int>(i)), 1 << 20, 0);
  }
  EXPECT_EQ(cache.entry_count(), 100u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(CacheManagerTest, DropNodeRemovesOnlyThatNodesEntries) {
  CacheManager cache;
  cache.Insert({1, 0}, Payload(0), 10, /*node=*/0);
  cache.Insert({1, 1}, Payload(1), 10, /*node=*/1);
  EXPECT_EQ(cache.DropNode(1), 1);
  EXPECT_NE(cache.Lookup({1, 0}), nullptr);
  EXPECT_EQ(cache.Lookup({1, 1}), nullptr);
  EXPECT_EQ(cache.stats().dropped_by_failure, 1u);
}

// -- Budget: LRU eviction, drop-on-evict ------------------------------------

TEST(CacheBudgetTest, EvictsLeastRecentlyUsed) {
  CacheManager cache(/*capacity=*/300);
  cache.Insert({1, 0}, Payload(0), 100, 0);
  cache.Insert({1, 1}, Payload(1), 100, 0);
  cache.Insert({1, 2}, Payload(2), 100, 0);
  // Recency order (MRU first) is now 2, 1, 0; the lookup makes it 0, 2, 1.
  ASSERT_NE(cache.Lookup({1, 0}), nullptr);
  cache.Insert({1, 3}, Payload(3), 100, 0);  // 400 > 300: evict {1,1}
  EXPECT_EQ(cache.Lookup({1, 1}), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Order 3, 0, 2 (the miss above touched nothing): {1,2} goes next.
  cache.Insert({1, 4}, Payload(4), 100, 0);
  EXPECT_EQ(cache.Lookup({1, 2}), nullptr);
  EXPECT_NE(cache.Lookup({1, 0}), nullptr);
  EXPECT_NE(cache.Lookup({1, 3}), nullptr);
  EXPECT_NE(cache.Lookup({1, 4}), nullptr);
  EXPECT_EQ(cache.stats().evictions, 2u);

  // The just-inserted entry is never the victim, even when evicting every
  // older entry still leaves the cache over budget.
  cache.Insert({1, 5}, Payload(5), 1000, 0);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_NE(cache.Lookup({1, 5}), nullptr);
  EXPECT_EQ(cache.stats().evictions, 5u);
}

TEST(CacheBudgetTest, EvictionDropsAndMissRecomputes) {
  EngineContext::Options options;
  options.topology = cluster::EmrCluster(2);
  options.physical_threads = 4;
  options.cache_capacity_bytes = 64;  // holds about one partition
  EngineContext ctx(options);
  std::atomic<int> compute_calls{0};
  std::vector<int> data(64);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Parallelize(ctx, data, 8).Map([&compute_calls](const int& x) {
    compute_calls.fetch_add(1);
    return x * 3;
  });
  ds.Cache();
  const auto first = ds.Collect();
  ASSERT_EQ(compute_calls.load(), 64);
  const auto second = ds.Collect();
  // The evicted partitions are gone, not parked anywhere: the second pass
  // recomputes them through lineage, with the same result.
  EXPECT_GT(compute_calls.load(), 64);
  EXPECT_EQ(first, second);
  const CacheStats stats = ctx.cache().stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.misses, 8u);
}

TEST(CacheBudgetTest, SetCapacityBytesEvictsDown) {
  CacheManager cache;  // unlimited
  cache.Insert({1, 0}, Payload(0), 100, 0);
  cache.Insert({1, 1}, Payload(1), 100, 0);
  cache.Insert({1, 2}, Payload(2), 100, 0);
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.SetCapacityBytes(100);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(cache.stats().bytes_cached, 100u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_NE(cache.Lookup({1, 2}), nullptr);  // the MRU entry stays
  EXPECT_EQ(cache.Lookup({1, 0}), nullptr);
  EXPECT_EQ(cache.Lookup({1, 1}), nullptr);
}

// -- Dataset::Cache() integration -------------------------------------------

EngineContext::Options LocalOptions(std::uint64_t cache_bytes = 0) {
  EngineContext::Options options;
  options.topology = cluster::EmrCluster(2);
  options.physical_threads = 4;
  options.cache_capacity_bytes = cache_bytes;
  return options;
}

TEST(DatasetCacheTest, CachedDatasetComputesOnce) {
  EngineContext ctx(LocalOptions());
  std::atomic<int> compute_calls{0};
  std::vector<int> data(40);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Parallelize(ctx, data, 4).Map([&compute_calls](const int& x) {
    compute_calls.fetch_add(1);
    return x * 10;
  });
  ds.Cache();
  const auto first = ds.Collect();
  EXPECT_EQ(compute_calls.load(), 40);
  const auto second = ds.Collect();
  EXPECT_EQ(compute_calls.load(), 40);  // all partitions served from cache
  EXPECT_EQ(first, second);
}

TEST(DatasetCacheTest, UncachedDatasetRecomputes) {
  EngineContext ctx(LocalOptions());
  std::atomic<int> compute_calls{0};
  auto ds = Parallelize(ctx, std::vector<int>{1, 2, 3, 4}, 2)
                .Map([&compute_calls](const int& x) {
                  compute_calls.fetch_add(1);
                  return x;
                });
  ds.Collect();
  ds.Collect();
  EXPECT_EQ(compute_calls.load(), 8);
}

TEST(DatasetCacheTest, EvictionNeverChangesResults) {
  // Tiny cache budget forces constant eviction; lineage recomputation must
  // keep results identical.
  EngineContext ctx(LocalOptions(/*cache_bytes=*/64));
  std::vector<int> data(1000);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Parallelize(ctx, data, 16).Map([](const int& x) { return x + 7; });
  ds.Cache();
  const auto first = ds.Collect();
  const auto second = ds.Collect();
  EXPECT_EQ(first, second);
  EXPECT_GT(ctx.cache().stats().evictions, 0u);
}

TEST(DatasetCacheTest, CyclicScanOverBudgetMissesEveryPartition) {
  // LRU's worst case, pinned so that a policy change is deliberate: a
  // scan over 8 equal partitions with room for 4 evicts each partition
  // before the next pass reaches it, so the second pass hits nothing.
  EngineContext::Options options = LocalOptions(
      4 * ApproxBytesOfPartition(std::vector<int>(8)));
  options.physical_threads = 1;  // tasks run in partition order
  EngineContext ctx(options);
  std::vector<int> data(64);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Parallelize(ctx, data, 8).Map([](const int& x) { return x - 1; });
  ds.Cache();
  const auto first = ds.Collect();
  const CacheStats after_first = ctx.cache().stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_EQ(after_first.misses, 8u);
  EXPECT_EQ(after_first.evictions, 4u);
  EXPECT_EQ(ds.Collect(), first);
  const CacheStats after_second = ctx.cache().stats();
  EXPECT_EQ(after_second.hits - after_first.hits, 0u);
  EXPECT_EQ(after_second.misses - after_first.misses, 8u);
  EXPECT_EQ(after_second.evictions - after_first.evictions, 8u);
  EXPECT_EQ(ctx.cache().entry_count(), 4u);
}

TEST(DatasetCacheTest, DownstreamOfCachedNodeUsesCache) {
  EngineContext ctx(LocalOptions());
  std::atomic<int> upstream_calls{0};
  auto cached = Parallelize(ctx, std::vector<int>{1, 2, 3, 4}, 2)
                    .Map([&upstream_calls](const int& x) {
                      upstream_calls.fetch_add(1);
                      return x;
                    });
  cached.Cache();
  cached.Collect();  // populate
  auto downstream = cached.Map([](const int& x) { return x * 2; });
  EXPECT_EQ(downstream.Collect(), (std::vector<int>{2, 4, 6, 8}));
  EXPECT_EQ(upstream_calls.load(), 4);  // downstream pulled cached partitions
}

}  // namespace
}  // namespace ss::engine
