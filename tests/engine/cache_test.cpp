// CacheManager unit tests plus Dataset::Cache() integration: hit counting,
// cost-based eviction, prefetch admission of store-backed partitions,
// node-tagged drops, and the guarantee that eviction never changes
// results (lineage recomputes).
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

/// A vector<int> partition, the shape Node<T> caches.
std::shared_ptr<void> VecPayload(std::vector<int> v) {
  return std::make_shared<std::vector<int>>(std::move(v));
}

const std::vector<int>& VecOf(const std::shared_ptr<void>& value) {
  return *std::static_pointer_cast<std::vector<int>>(value);
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

TEST(CacheManagerTest, DropDatasetRemovesAllItsPartitions) {
  CacheManager cache;
  cache.Insert({1, 0}, Payload(0), 10, 0);
  cache.Insert({1, 1}, Payload(1), 10, 0);
  cache.Insert({2, 0}, Payload(2), 10, 0);
  cache.DropDataset(1);
  EXPECT_EQ(cache.Lookup({1, 0}), nullptr);
  EXPECT_EQ(cache.Lookup({1, 1}), nullptr);
  EXPECT_NE(cache.Lookup({2, 0}), nullptr);
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

TEST(CacheManagerTest, ClearResetsOccupancy) {
  CacheManager cache;
  cache.Insert({1, 0}, Payload(0), 10, 0);
  cache.Clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.stats().bytes_cached, 0u);
}

// -- Budget: cost-based eviction, drop-on-evict, prefetch admission -------

TEST(CacheBudgetTest, EvictsCheapestRecomputePerByte) {
  CacheManager cache(/*capacity=*/250);
  // {1,0} is least recently used, but {1,1} is ten times cheaper to
  // recompute, so it is the rational victim.
  cache.Insert({1, 0}, Payload(0), 100, 0, /*compute_seconds=*/10.0);
  cache.Insert({1, 1}, Payload(1), 100, 0, /*compute_seconds=*/1.0);
  cache.Insert({1, 2}, Payload(2), 100, 0, /*compute_seconds=*/10.0);
  EXPECT_EQ(cache.Lookup({1, 1}), nullptr);
  EXPECT_NE(cache.Lookup({1, 0}), nullptr);  // the LRU entry survived
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The cost is per byte: the same recompute time over twice the bytes
  // is the cheaper eviction. Equal costs fall to the LRU entry.
  CacheManager per_byte(/*capacity=*/350);
  per_byte.Insert({2, 0}, Payload(0), 100, 0, /*compute_seconds=*/1.0);
  per_byte.Insert({2, 1}, Payload(1), 200, 0, /*compute_seconds=*/1.0);
  per_byte.Insert({2, 2}, Payload(2), 100, 0, /*compute_seconds=*/1.0);
  EXPECT_EQ(per_byte.Lookup({2, 1}), nullptr);
  EXPECT_NE(per_byte.Lookup({2, 0}), nullptr);

  CacheManager tie(/*capacity=*/250);
  tie.Insert({3, 0}, Payload(0), 100, 0, /*compute_seconds=*/1.0);
  tie.Insert({3, 1}, Payload(1), 100, 0, /*compute_seconds=*/1.0);
  tie.Insert({3, 2}, Payload(2), 100, 0, /*compute_seconds=*/1.0);
  EXPECT_EQ(tie.Lookup({3, 0}), nullptr);
  EXPECT_NE(tie.Lookup({3, 1}), nullptr);
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

/// A backing-store fetcher for dataset 7 that serves {9, 9, 9} at a
/// 100-byte charge and counts its calls.
PartitionFetcher CountingFetcher(std::atomic<int>* calls) {
  return [calls](std::uint32_t) {
    calls->fetch_add(1);
    return FetchedPartition{std::make_shared<std::vector<int>>(3, 9), 100,
                            0.0};
  };
}

TEST(CacheBudgetTest, PrefetchRefetchesEvictedPartitionIntoSpareCapacityOnly) {
  std::atomic<int> fetches{0};
  CacheManager cache(/*capacity=*/150);
  cache.RegisterFetcher(7, CountingFetcher(&fetches));
  cache.Insert({7, 0}, VecPayload({0, 1}), 100, 0);
  cache.Insert({7, 1}, VecPayload({2, 3}), 100, 0);
  ASSERT_EQ(cache.entry_count(), 1u);  // {7,0} evicted (dropped)

  // Re-admitting {7,0} would evict the resident partition the compute
  // path is about to use: the prefetch declines — still "handled", so a
  // chained caller does not fall through — and reads nothing.
  EXPECT_TRUE(cache.Prefetch({7, 0}));
  EXPECT_EQ(fetches.load(), 0);
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_NE(cache.Lookup({7, 1}), nullptr);  // resident partition intact

  // With spare capacity the same prefetch re-reads it from the store.
  cache.SetCapacityBytes(300);
  EXPECT_TRUE(cache.Prefetch({7, 0}));
  EXPECT_EQ(fetches.load(), 1);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(VecOf(cache.Lookup({7, 0})), (std::vector<int>{9, 9, 9}));
  cache.UnregisterFetcher(7);
}

TEST(CacheBudgetTest, PrefetchFetchDeclinedWhenBudgetFull) {
  std::atomic<int> fetches{0};
  CacheManager cache(/*capacity=*/150);
  cache.RegisterFetcher(7, CountingFetcher(&fetches));
  cache.Insert({7, 0}, VecPayload({1}), 140, 0);
  // The cache is effectively full; the fetch admission (sized by the
  // mean resident partition, 140 bytes) would force an eviction —
  // declined.
  EXPECT_TRUE(cache.Prefetch({7, 1}));
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_EQ(fetches.load(), 0);
  // Raising the budget lets the same prefetch stream the frame in.
  cache.SetCapacityBytes(400);
  EXPECT_TRUE(cache.Prefetch({7, 1}));
  EXPECT_EQ(VecOf(cache.Lookup({7, 1})), (std::vector<int>{9, 9, 9}));
  cache.UnregisterFetcher(7);
}

TEST(CacheBudgetTest, NodeFailureLeavesStoreBackedPartitionsFetchable) {
  std::atomic<int> fetches{0};
  CacheManager cache;
  cache.RegisterFetcher(7, CountingFetcher(&fetches));
  cache.Insert({7, 0}, VecPayload({0, 1}), 100, /*node=*/0);
  // Without a fetcher, a dataset has nothing to offer once its resident
  // copy is gone.
  cache.Insert({8, 0}, VecPayload({2, 3}), 100, /*node=*/0);

  EXPECT_EQ(cache.DropNode(0), 2);
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_FALSE(cache.Prefetch({8, 0}));
  // The store frame is the durable copy: the lane re-reads it.
  EXPECT_TRUE(cache.Prefetch({7, 0}));
  EXPECT_EQ(fetches.load(), 1);
  EXPECT_EQ(VecOf(cache.Lookup({7, 0})), (std::vector<int>{9, 9, 9}));
  cache.UnregisterFetcher(7);
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

TEST(DatasetCacheTest, UnpersistForcesRecompute) {
  EngineContext ctx(LocalOptions());
  std::atomic<int> compute_calls{0};
  auto ds = Parallelize(ctx, std::vector<int>{1, 2}, 1)
                .Map([&compute_calls](const int& x) {
                  compute_calls.fetch_add(1);
                  return x;
                });
  ds.Cache();
  ds.Collect();
  ds.Unpersist();
  ds.Collect();
  EXPECT_EQ(compute_calls.load(), 4);
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
