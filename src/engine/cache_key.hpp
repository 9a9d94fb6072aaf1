// Key type of the partition cache (cache_manager.hpp): one cached
// partition is (dataset node id, partition).
#pragma once

#include <cstdint>
#include <functional>

namespace ss::engine {

/// Identifies a cached partition: (dataset node id, partition index).
struct CacheKey {
  std::uint64_t node_id = 0;
  std::uint32_t partition = 0;
  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& key) const {
    return static_cast<std::size_t>(key.node_id * 0x9e3779b97f4a7c15ULL) ^
           key.partition;
  }
};

}  // namespace ss::engine
