// Cluster topology description: instance type, node count, and the
// executor (container) layout on each node.
//
// Mirrors the paper's setup: m3.2xlarge EC2 instances (Table I), clusters
// of 6/12/18/36 nodes (Tables II, IV, VI, VII), and YARN container
// configurations varying executors-per-node × cores-per-executor
// (Table VIII).
#pragma once

#include <string>

#include "support/status.hpp"

namespace ss::cluster {

/// Hardware description of one node.
struct InstanceType {
  std::string name;
  int vcpus = 0;
  double memory_gib = 0.0;
  double storage_gb = 0.0;
};

/// Table I of the paper: m3.2xlarge — Intel Xeon E5-2670 v2 (Ivy Bridge),
/// 8 vCPU, 30 GiB, 2×80 GB SSD.
InstanceType M3_2xlarge();

/// Full cluster layout. The product nodes × executors_per_node is the
/// container count; slots = containers × cores_per_executor.
struct ClusterTopology {
  InstanceType instance = M3_2xlarge();
  int num_nodes = 1;
  int executors_per_node = 1;
  int cores_per_executor = 1;
  double memory_per_executor_gib = 1.0;

  /// YARN's DefaultResourceCalculator admits containers on memory alone and
  /// ignores vcores; that is how Table VIII's 6-cores-per-container config
  /// fits on 8-vCPU nodes. Set true to model DominantResourceCalculator.
  bool enforce_vcores = false;

  /// When > 0, the exact cluster-wide container count, for counts that do
  /// not divide evenly across nodes (Table VIII places 42 containers on
  /// 36 nodes — some nodes host two, most host one). executors_per_node
  /// then only bounds the per-node packing for Validate().
  int total_executors_override = 0;

  int TotalExecutors() const {
    return total_executors_override > 0 ? total_executors_override
                                        : num_nodes * executors_per_node;
  }
  int TotalSlots() const { return TotalExecutors() * cores_per_executor; }
  double TotalExecutorMemoryGib() const {
    return TotalExecutors() * memory_per_executor_gib;
  }

  /// Checks per-node CPU and memory capacity against the instance type.
  Status Validate() const;

  std::string ToString() const;
};

/// Convenience builders for the paper's configurations.
/// `EmrCluster(n)` = n m3.2xlarge nodes, one executor per node using all
/// 8 cores and 24 GiB (leaving headroom for YARN/OS, as EMR defaults do).
ClusterTopology EmrCluster(int num_nodes);

/// One row of Table VIII: `containers` spread over `num_nodes` nodes with
/// the given memory/cores per container.
ClusterTopology ContainerConfig(int num_nodes, int containers,
                                double memory_gib, int cores);

}  // namespace ss::cluster
