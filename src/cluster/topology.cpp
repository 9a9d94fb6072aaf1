#include "cluster/topology.hpp"

#include <algorithm>
#include <sstream>

namespace ss::cluster {

InstanceType M3_2xlarge() {
  return InstanceType{.name = "m3.2xlarge",
                      .vcpus = 8,
                      .memory_gib = 30.0,
                      .storage_gb = 160.0};
}

Status ClusterTopology::Validate() const {
  if (num_nodes < 1 || executors_per_node < 1 || cores_per_executor < 1) {
    return Status::InvalidArgument("all topology counts must be >= 1");
  }
  if (memory_per_executor_gib <= 0.0) {
    return Status::InvalidArgument("executor memory must be positive");
  }
  if (enforce_vcores &&
      executors_per_node * cores_per_executor > instance.vcpus) {
    return Status::ResourceExhausted(
        "executors x cores exceeds node vCPUs on " + instance.name);
  }
  if (executors_per_node * memory_per_executor_gib > instance.memory_gib) {
    return Status::ResourceExhausted(
        "executor memory exceeds node memory on " + instance.name);
  }
  return Status::Ok();
}

std::string ClusterTopology::ToString() const {
  std::ostringstream out;
  out << num_nodes << "x " << instance.name << " (" << TotalExecutors()
      << " executors, " << cores_per_executor << " cores & "
      << memory_per_executor_gib << " GiB each, " << TotalSlots()
      << " slots)";
  return out.str();
}

ClusterTopology EmrCluster(int num_nodes) {
  ClusterTopology topology;
  topology.instance = M3_2xlarge();
  topology.num_nodes = num_nodes;
  topology.executors_per_node = 1;
  topology.cores_per_executor = 8;
  topology.memory_per_executor_gib = 24.0;
  return topology;
}

ClusterTopology ContainerConfig(int num_nodes, int containers,
                                double memory_gib, int cores) {
  ClusterTopology topology;
  topology.instance = M3_2xlarge();
  topology.num_nodes = num_nodes;
  topology.executors_per_node =
      (containers + num_nodes - 1) / std::max(1, num_nodes);
  topology.total_executors_override = containers;
  topology.cores_per_executor = cores;
  topology.memory_per_executor_gib = memory_gib;
  return topology;
}

}  // namespace ss::cluster
