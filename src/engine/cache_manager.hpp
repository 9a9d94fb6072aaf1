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
// Eviction is cost-based rather than pure LRU: each entry records what
// its recompute cost (the task stopwatch around ComputePartition, or the
// store fetch time), and the victim is the entry with the cheapest
// recompute per byte (ties fall to least-recently-used). Each entry also
// records the simulated node where the computing task ran so that an
// injected node failure drops exactly that node's partitions, forcing
// lineage recomputation — the fault-tolerance property the RDD paper
// centres on.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

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

/// One partition materialized from an external backing store (the
/// genotype store): the decoded value, its memory charge, and the fetch
/// wall time. A null `value` means the fetch failed; the cache admits
/// nothing and the eventual demand lookup surfaces the error.
struct FetchedPartition {
  std::shared_ptr<void> value;
  std::uint64_t bytes = 0;
  double fetch_seconds = 0.0;
};

/// Reads + decodes one partition from a backing store. Must be
/// thread-safe (it runs on the I/O lane, outside the cache lock) and must
/// not call back into the cache.
using PartitionFetcher = std::function<FetchedPartition(std::uint32_t)>;

class CacheManager {
 public:
  /// `capacity_bytes` caps the cache; 0 means unlimited.
  explicit CacheManager(std::uint64_t capacity_bytes = 0)
      : capacity_bytes_(capacity_bytes) {}

  /// Returns the cached partition or nullptr (counting a hit/miss); on
  /// nullptr the caller recomputes from lineage. A lookup of a key whose
  /// store fetch is in flight on the I/O lane waits for it (task-side
  /// that wait is the `io_wait` phase + `exec.io_wait_nanos`) instead of
  /// duplicating the read.
  std::shared_ptr<void> Lookup(const CacheKey& key);

  /// Advisory warm-up from the I/O lane, without touching hit/miss
  /// accounting so observable cache stats stay comparable across prefetch
  /// depths. A resident key is left alone; a key of a dataset with a
  /// registered fetcher is fetched from its backing store and admitted.
  ///
  /// A prefetch only fills SPARE capacity: when admitting the partition
  /// would push the cache over budget — forcing an eviction — the lane
  /// declines (counting `exec.prefetch_declined`) instead. An eviction
  /// forced from the prefetch lane displaces exactly the partitions the
  /// compute frontier is about to consume; declining keeps the demand
  /// path's working set intact.
  ///
  /// Returns true when the key is now (or already was) resident, is being
  /// fetched, or the cache deliberately declined as above. False means
  /// the cache has nothing to offer for this key (not resident, no
  /// fetcher): the caller may fall through to a coarser target, e.g. the
  /// store-backed ancestor of an uncomputed derived partition.
  bool Prefetch(const CacheKey& key);

  /// Declares that dataset `node_id`'s partitions can be materialized
  /// from a backing store (the mmap'd genotype store). A Prefetch of a
  /// key that is not cached then FETCHES it instead of no-opping, so the
  /// prefetch lane streams frames ahead of the compute wave. Demand
  /// lookups are unaffected (the miss recomputes, which reads the store
  /// through the node's own ComputePartition). Admitted fetches count
  /// `store.prefetch_frames`, not cache hits/misses/insertions.
  void RegisterFetcher(std::uint64_t node_id, PartitionFetcher fetcher);

  /// Removes the fetcher and BLOCKS until no fetch for `node_id` is in
  /// flight, so a fetcher's captures (the store handle) outlive every
  /// use. Must be called before the backing dataset dies.
  void UnregisterFetcher(std::uint64_t node_id);

  /// Inserts (or refreshes) an entry, rebalancing against the budget.
  /// Oversized single entries (larger than the whole budget) are admitted
  /// and the cache simply holds only them; matching Spark, the computation
  /// must still succeed even if caching is ineffective.
  ///
  /// `compute_seconds` is the lineage cost of this partition (what a
  /// recompute would pay, from the task stopwatch); it ranks the entry
  /// for eviction.
  void Insert(const CacheKey& key, std::shared_ptr<void> value,
              std::uint64_t bytes, int node, double compute_seconds = 0.0);

  /// Removes all partitions of a dataset (Dataset::Unpersist).
  void DropDataset(std::uint64_t node_id);

  /// Removes everything cached on a simulated node (node failure).
  /// Returns the number of partitions dropped.
  int DropNode(int node);

  /// Drops everything.
  void Clear();

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
    double compute_seconds = 0.0;  ///< Lineage cost (recompute estimate).
    std::list<CacheKey>::iterator lru_it;
  };

  /// Shared Lookup/Prefetch body; `prefetch` suppresses hit/miss counting.
  /// `handled` (prefetch only, may be null) reports whether the cache did
  /// or had anything for the key — false only on the no-op path (not
  /// resident, no fetcher).
  std::shared_ptr<void> LookupOrFetch(const CacheKey& key, bool prefetch,
                                      bool* handled = nullptr);
  /// The locked phase of a lookup: sets `result` (null on a miss) and
  /// returns false, or — prefetch only — claims a backing-store fetch,
  /// sets `fetcher` and returns true.
  bool ResolveLocked(const CacheKey& key, bool prefetch,
                     support::UniqueLock& lock, std::shared_ptr<void>* result,
                     PartitionFetcher* fetcher, bool* handled)
      SS_REQUIRES(mutex_);
  /// The claimed backing-store fetch: run `fetcher` with the lock
  /// RELEASED, then re-lock to admit (unless a concurrent insert
  /// superseded it, or the fetch failed). Always un-claims and wakes
  /// waiters, including an UnregisterFetcher blocked on this key.
  std::shared_ptr<void> FinishFetch(const CacheKey& key,
                                    const PartitionFetcher& fetcher);
  /// True when admitting `bytes_hint` more bytes would force an eviction
  /// (the prefetch lane declines in that case; see Prefetch).
  bool PrefetchWouldEvictLocked(std::uint64_t bytes_hint) const
      SS_REQUIRES(mutex_);
  void EvictIfNeededLocked() SS_REQUIRES(mutex_);
  void EvictOneLocked() SS_REQUIRES(mutex_);
  void EraseLocked(const CacheKey& key) SS_REQUIRES(mutex_);
  bool InflightLocked(const CacheKey& key) const SS_REQUIRES(mutex_);

  mutable support::RankedMutex mutex_{support::lock_rank::kCache};
  std::uint64_t capacity_bytes_ SS_GUARDED_BY(mutex_);
  std::unordered_map<CacheKey, Entry, CacheKeyHash> entries_
      SS_GUARDED_BY(mutex_);
  std::list<CacheKey> lru_ SS_GUARDED_BY(mutex_);  ///< Front = MRU.
  CacheStats stats_ SS_GUARDED_BY(mutex_);
  /// Keys whose backing-store fetch is running outside the lock.
  std::vector<CacheKey> inflight_ SS_GUARDED_BY(mutex_);
  /// Backing-store fetchers by dataset id (RegisterFetcher).
  std::unordered_map<std::uint64_t, PartitionFetcher> fetchers_
      SS_GUARDED_BY(mutex_);
  std::condition_variable_any inflight_cv_;
};

}  // namespace ss::engine
