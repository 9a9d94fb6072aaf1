// Container-shape support for the paper's Experiment C (Fig 7 / Tables
// VII-VIII): the Table VIII candidate shapes, and the YARN placement check
// that decides which shapes a cluster can actually grant.
#pragma once

#include <vector>

#include "cluster/topology.hpp"

namespace ss::core {

/// Table VIII: the three container shapes on 36 nodes — 42x(10 GiB, 6
/// cores), 84x(5 GiB, 3 cores), 126x(3 GiB, 2 cores). (The paper's table
/// lists memory only for the first row; the others are chosen to fill the
/// same 36-node memory budget, which is the YARN constraint that matters.)
std::vector<cluster::ClusterTopology> ContainerSweepCandidates();

/// True if `topology`'s executors can all be granted on its nodes by a
/// YARN-like resource manager with the memory-only (Default) calculator:
/// each node offers its instance memory less 6 GiB reserved for the OS and
/// daemons, and fits k containers, k being how many times the container
/// memory can be taken from that; the shape (nodes, memory, cores) must be
/// positive and the container count at most nodes · k. This is the verdict
/// of least-loaded, all-or-nothing placement on identical nodes.
bool IsPlaceable(const cluster::ClusterTopology& topology);

}  // namespace ss::core
