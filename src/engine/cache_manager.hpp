// Partition cache — the engine's equivalent of Spark's BlockManager at
// the MEMORY_ONLY storage level.
//
// Entries are type-erased (`shared_ptr<void>` owning a `vector<T>`; the
// typed layer in node.hpp does the casts) and charged against an optional
// byte budget. When the budget forces an eviction the victim is simply
// dropped: a later miss recomputes it through lineage, which for a
// store-backed dataset is a re-read of its store frame. A run that needs
// cheap restores under a tight budget should read its genotypes from a
// store (`store=`): those frames are the durable tier.
//
// Eviction is plain LRU, as in Spark's MemoryStore: a Lookup hit or an
// Insert makes an entry the most recently used, and the victim is the
// least recently used entry. The just-inserted entry is never the victim.
// A cyclic scan over more partitions than the budget holds is LRU's worst
// case: every re-read misses. Each entry also records the simulated node
// where the computing task ran so that an injected node failure drops
// exactly that node's partitions, forcing lineage recomputation — the
// fault-tolerance property the RDD paper centres on.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "engine/cache_key.hpp"
#include "support/check.hpp"
#include "support/ranked_mutex.hpp"

namespace ss::engine {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dropped_by_failure = 0;
  std::uint64_t bytes_cached = 0;  ///< Current occupancy.
};

class CacheManager {
 public:
  /// `capacity_bytes` caps the cache; 0 means unlimited.
  explicit CacheManager(std::uint64_t capacity_bytes = 0)
      : capacity_bytes_(capacity_bytes) {}

  /// Returns the cached partition or nullptr (counting a hit/miss); on
  /// nullptr the caller recomputes from lineage.
  std::shared_ptr<void> Lookup(const CacheKey& key);

  /// Inserts (or refreshes) an entry, rebalancing against the budget.
  /// Oversized single entries (larger than the whole budget) are admitted
  /// and the cache simply holds only them; matching Spark, the computation
  /// must still succeed even if caching is ineffective.
  void Insert(const CacheKey& key, std::shared_ptr<void> value,
              std::uint64_t bytes, int node);

  /// Removes everything cached on a simulated node (node failure).
  /// Returns the number of partitions dropped.
  int DropNode(int node);

  /// Re-applies the budget (0 = unlimited), evicting down to the new
  /// value. Lets PipelineConfig::cache_budget_bytes constrain a context
  /// after construction.
  void SetCapacityBytes(std::uint64_t capacity_bytes);

  CacheStats stats() const;
  std::size_t entry_count() const;

 private:
  struct Entry {
    std::shared_ptr<void> value;
    std::uint64_t bytes = 0;
    int node = 0;
    std::list<CacheKey>::iterator lru_it;
  };

  void EvictIfNeededLocked() SS_REQUIRES(mutex_);
  void EraseLocked(const CacheKey& key) SS_REQUIRES(mutex_);

  mutable support::RankedMutex mutex_{support::lock_rank::kCache};
  std::uint64_t capacity_bytes_ SS_GUARDED_BY(mutex_);
  std::unordered_map<CacheKey, Entry, CacheKeyHash> entries_
      SS_GUARDED_BY(mutex_);
  std::list<CacheKey> lru_ SS_GUARDED_BY(mutex_);  ///< Front = MRU.
  CacheStats stats_ SS_GUARDED_BY(mutex_);
};

}  // namespace ss::engine
