#include "engine/cache_manager.hpp"

#include <algorithm>
#include <vector>

#include "engine/profile.hpp"
#include "engine/trace.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"

namespace ss::engine {

namespace {

std::atomic<std::uint64_t>& CacheCounter(const char* name) {
  return CounterRegistry::Global().Get(name);
}

}  // namespace

std::shared_ptr<void> CacheManager::Lookup(const CacheKey& key) {
  return LookupOrFetch(key, /*prefetch=*/false);
}

bool CacheManager::Prefetch(const CacheKey& key) {
  bool handled = false;
  LookupOrFetch(key, /*prefetch=*/true, &handled);
  return handled;
}

std::shared_ptr<void> CacheManager::LookupOrFetch(const CacheKey& key,
                                                  bool prefetch,
                                                  bool* handled) {
  std::shared_ptr<void> result;
  PartitionFetcher fetcher;
  {
    support::UniqueLock lock(mutex_);
    if (!ResolveLocked(key, prefetch, lock, &result, &fetcher, handled)) {
      return result;
    }
  }
  return FinishFetch(key, fetcher);
}

bool CacheManager::ResolveLocked(const CacheKey& key, bool prefetch,
                                 support::UniqueLock& lock,
                                 std::shared_ptr<void>* result,
                                 PartitionFetcher* fetcher, bool* handled) {
  // Every resolution counts as "handled" for a prefetch except the
  // explicit no-op fall-through below (not resident, nothing fetchable)
  // — that one is the chain's cue to try a coarser target.
  if (handled != nullptr) *handled = true;
  static std::atomic<std::uint64_t>& hits = CacheCounter("cache.hits");
  static std::atomic<std::uint64_t>& misses = CacheCounter("cache.misses");
  static std::atomic<std::uint64_t>& prefetch_declined =
      CacheCounter("exec.prefetch_declined");
  static std::atomic<std::uint64_t>& io_wait_nanos =
      CacheCounter("exec.io_wait_nanos");

  for (;;) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      *result = it->second.value;
      if (prefetch) return false;  // already warm; leave LRU alone
      ++stats_.hits;
      hits.fetch_add(1, std::memory_order_relaxed);
      Tracer::Global().Instant("cache", "hit",
                               {Arg("dataset", key.node_id),
                                Arg("partition", key.partition)});
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // move to front
      return false;
    }
    if (!InflightLocked(key)) break;
    // The I/O lane is already fetching this key. A prefetch has nothing to
    // add; a lookup waits for the value — that wait IS the overlap win
    // when the lane started early enough — and then looks again.
    if (prefetch) return false;
    PhaseTimer io_wait_phase(TaskPhase::kIoWait);
    Stopwatch wait_watch;
    inflight_cv_.wait(lock, [this, &key]() SS_REQUIRES(mutex_) {
      return !InflightLocked(key);
    });
    io_wait_nanos.fetch_add(
        static_cast<std::uint64_t>(
            std::max<std::int64_t>(0, wait_watch.ElapsedNanos())),
        std::memory_order_relaxed);
  }

  if (!prefetch) {
    ++stats_.misses;
    misses.fetch_add(1, std::memory_order_relaxed);
    Tracer::Global().Instant("cache", "miss",
                             {Arg("dataset", key.node_id),
                              Arg("partition", key.partition)});
    return false;
  }
  // Not cached — but a dataset with a registered fetcher can be
  // materialized straight from its backing store, so the prefetch lane
  // streams the frame in ahead of the compute wave. Demand lookups never
  // take this path: their miss recomputes through the node, which reads
  // the store itself.
  auto fit = fetchers_.find(key.node_id);
  if (fit == fetchers_.end()) {
    if (handled != nullptr) *handled = false;
    return false;
  }
  // The frame's decoded size is unknown until fetched; size the admission
  // by the mean resident partition instead.
  const std::uint64_t hint =
      entries_.empty() ? 0 : stats_.bytes_cached / entries_.size();
  if (PrefetchWouldEvictLocked(hint)) {
    prefetch_declined.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  inflight_.push_back(key);
  *fetcher = fit->second;
  return true;
}

std::shared_ptr<void> CacheManager::FinishFetch(
    const CacheKey& key, const PartitionFetcher& fetcher) {
  static std::atomic<std::uint64_t>& prefetch_frames =
      CacheCounter("store.prefetch_frames");

  // The store read + decode runs with the lock released; concurrent
  // lookups of other keys (and a demand lookup of THIS key, which waits
  // on the in-flight claim) proceed.
  FetchedPartition fetched;
  {
    PhaseTimer fetch_phase(TaskPhase::kFetch);
    fetched = fetcher(key.partition);
  }

  std::shared_ptr<void> result;
  {
    support::MutexLock lock(mutex_);
    inflight_.erase(std::find(inflight_.begin(), inflight_.end(), key));
    auto entry_it = entries_.find(key);
    if (entry_it != entries_.end()) {
      // A concurrent insert (the demand compute finished first) already
      // holds the authoritative value.
      result = entry_it->second.value;
    } else if (fetched.value != nullptr) {
      // Admit as MRU, priced at the fetch time: evicting it again costs
      // one more store read. `node` 0 = the fetch ran on no simulated
      // node; a node-failure drop of node 0's partitions just re-fetches.
      lru_.push_front(key);
      entries_[key] = Entry{fetched.value, fetched.bytes, /*node=*/0,
                            fetched.fetch_seconds, lru_.begin()};
      stats_.bytes_cached += fetched.bytes;
      prefetch_frames.fetch_add(1, std::memory_order_relaxed);
      Tracer::Global().Instant("store", "prefetch admit",
                               {Arg("dataset", key.node_id),
                                Arg("partition", key.partition),
                                Arg("bytes", fetched.bytes)});
      EvictIfNeededLocked();
      result = fetched.value;
    }
    // Fetch failed (null value): admit nothing. The demand lookup will
    // miss, recompute through the node, and surface the store error.
  }
  inflight_cv_.notify_all();
  return result;
}

void CacheManager::RegisterFetcher(std::uint64_t node_id,
                                   PartitionFetcher fetcher) {
  SS_CHECK(fetcher != nullptr);
  support::MutexLock lock(mutex_);
  fetchers_[node_id] = std::move(fetcher);
}

void CacheManager::UnregisterFetcher(std::uint64_t node_id) {
  support::UniqueLock lock(mutex_);
  fetchers_.erase(node_id);
  // Wait out in-flight fetches of this dataset so the fetcher's captures
  // (the mmap'd store) are provably unused when the caller tears down.
  inflight_cv_.wait(lock, [this, node_id]() SS_REQUIRES(mutex_) {
    return std::none_of(
        inflight_.begin(), inflight_.end(),
        [node_id](const CacheKey& key) { return key.node_id == node_id; });
  });
}

void CacheManager::Insert(const CacheKey& key, std::shared_ptr<void> value,
                          std::uint64_t bytes, int node,
                          double compute_seconds) {
  static std::atomic<std::uint64_t>& insertions =
      CacheCounter("cache.insertions");
  support::MutexLock lock(mutex_);
  EraseLocked(key);  // refresh semantics
  lru_.push_front(key);
  entries_[key] =
      Entry{std::move(value), bytes, node, compute_seconds, lru_.begin()};
  stats_.bytes_cached += bytes;
  ++stats_.insertions;
  insertions.fetch_add(1, std::memory_order_relaxed);
  Tracer::Global().Instant("cache", "put",
                           {Arg("dataset", key.node_id),
                            Arg("partition", key.partition),
                            Arg("bytes", bytes), Arg("node", node)});
  EvictIfNeededLocked();
}

bool CacheManager::PrefetchWouldEvictLocked(std::uint64_t bytes_hint) const {
  SS_ASSERT_HELD(mutex_);
  return capacity_bytes_ != 0 &&
         stats_.bytes_cached + bytes_hint > capacity_bytes_;
}

void CacheManager::EvictIfNeededLocked() {
  SS_ASSERT_HELD(mutex_);
  if (capacity_bytes_ == 0) return;
  while (stats_.bytes_cached > capacity_bytes_ && lru_.size() > 1) {
    EvictOneLocked();
  }
}

void CacheManager::EvictOneLocked() {
  SS_ASSERT_HELD(mutex_);
  static std::atomic<std::uint64_t>& evictions =
      CacheCounter("cache.evictions");

  // Victim = cheapest recompute per byte; ties fall to the least recently
  // used. The MRU front entry (just inserted or fetched) is exempt, so
  // the cache never evicts its only entry.
  auto victim_it = lru_.end();
  double victim_cost = 0.0;
  for (auto it = std::next(lru_.begin()); it != lru_.end(); ++it) {
    const Entry& entry = entries_.at(*it);
    const double cost =
        entry.compute_seconds /
        static_cast<double>(std::max<std::uint64_t>(1, entry.bytes));
    if (victim_it == lru_.end() || cost <= victim_cost) {
      victim_it = it;
      victim_cost = cost;
    }
  }
  SS_CHECK(victim_it != lru_.end());
  const CacheKey victim = *victim_it;
  Tracer::Global().Instant("cache", "evict",
                           {Arg("dataset", victim.node_id),
                            Arg("partition", victim.partition)});
  EraseLocked(victim);
  ++stats_.evictions;
  evictions.fetch_add(1, std::memory_order_relaxed);
}

bool CacheManager::InflightLocked(const CacheKey& key) const {
  SS_ASSERT_HELD(mutex_);
  return std::find(inflight_.begin(), inflight_.end(), key) !=
         inflight_.end();
}

void CacheManager::EraseLocked(const CacheKey& key) {
  SS_ASSERT_HELD(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  stats_.bytes_cached -= it->second.bytes;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

void CacheManager::DropDataset(std::uint64_t node_id) {
  support::MutexLock lock(mutex_);
  std::vector<CacheKey> victims;
  for (const auto& [key, entry] : entries_) {
    if (key.node_id == node_id) victims.push_back(key);
  }
  for (const CacheKey& key : victims) EraseLocked(key);
}

int CacheManager::DropNode(int node) {
  static std::atomic<std::uint64_t>& dropped =
      CacheCounter("cache.dropped_by_failure");
  support::MutexLock lock(mutex_);
  std::vector<CacheKey> victims;
  for (const auto& [key, entry] : entries_) {
    if (entry.node == node) victims.push_back(key);
  }
  for (const CacheKey& key : victims) EraseLocked(key);
  stats_.dropped_by_failure += victims.size();
  dropped.fetch_add(victims.size(), std::memory_order_relaxed);
  if (!victims.empty()) {
    SS_LOG(kInfo, "cache") << "node " << node << " failure dropped "
                           << victims.size() << " cached partitions";
  }
  return static_cast<int>(victims.size());
}

void CacheManager::Clear() {
  support::MutexLock lock(mutex_);
  entries_.clear();
  lru_.clear();
  stats_.bytes_cached = 0;
}

void CacheManager::SetCapacityBytes(std::uint64_t capacity_bytes) {
  support::MutexLock lock(mutex_);
  capacity_bytes_ = capacity_bytes;
  EvictIfNeededLocked();
}

CacheStats CacheManager::stats() const {
  support::MutexLock lock(mutex_);
  return stats_;
}

std::size_t CacheManager::entry_count() const {
  support::MutexLock lock(mutex_);
  return entries_.size();
}

}  // namespace ss::engine
