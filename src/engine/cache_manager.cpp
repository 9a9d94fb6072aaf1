#include "engine/cache_manager.hpp"

#include <algorithm>
#include <vector>

#include "engine/trace.hpp"
#include "support/log.hpp"
#include "support/status.hpp"

namespace ss::engine {

namespace {

std::atomic<std::uint64_t>& CacheCounter(const char* name) {
  return CounterRegistry::Global().Get(name);
}

}  // namespace

std::shared_ptr<void> CacheManager::Lookup(const CacheKey& key) {
  static std::atomic<std::uint64_t>& hits = CacheCounter("cache.hits");
  static std::atomic<std::uint64_t>& misses = CacheCounter("cache.misses");
  support::MutexLock lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    misses.fetch_add(1, std::memory_order_relaxed);
    Tracer::Global().Instant("cache", "miss",
                             {Arg("dataset", key.node_id),
                              Arg("partition", key.partition)});
    return nullptr;
  }
  ++stats_.hits;
  hits.fetch_add(1, std::memory_order_relaxed);
  Tracer::Global().Instant("cache", "hit",
                           {Arg("dataset", key.node_id),
                            Arg("partition", key.partition)});
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // move to front
  return it->second.value;
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
  // used. The MRU front entry (just inserted) is exempt, so
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
