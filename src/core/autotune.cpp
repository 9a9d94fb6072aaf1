#include "core/autotune.hpp"

#include <algorithm>

namespace ss::core {

std::vector<cluster::ClusterTopology> ContainerSweepCandidates() {
  // Table VII: 36 nodes, 1M SNPs. Table VIII rows:
  return {
      cluster::ContainerConfig(36, 42, 10.0, 6),
      cluster::ContainerConfig(36, 84, 5.0, 3),
      cluster::ContainerConfig(36, 126, 3.0, 2),
  };
}

bool IsPlaceable(const cluster::ClusterTopology& topology) {
  constexpr double kReservedMemoryGib = 6.0;
  const double memory = topology.memory_per_executor_gib;
  if (topology.num_nodes < 1 || !(memory > 0.0) ||
      topology.cores_per_executor < 1) {
    return false;
  }
  // Subtract as a node's free memory shrinks per grant, so the count
  // rounds exactly as successive grants would; stop once every container
  // has a place, so a tiny container cannot spin the loop.
  const long long count = topology.TotalExecutors();
  double free = std::max(0.0, topology.instance.memory_gib - kReservedMemoryGib);
  long long per_node = 0;
  while (free >= memory && topology.num_nodes * per_node < count) {
    free -= memory;
    ++per_node;
  }
  return count <= topology.num_nodes * per_node;
}

}  // namespace ss::core
