#include "cluster/fault_injector.hpp"

#include "engine/trace.hpp"
#include "support/log.hpp"

namespace ss::cluster {

void FaultInjector::FailNodeAfterTasks(int node,
                                       std::uint64_t task_completions) {
  support::MutexLock lock(mutex_);
  node_failures_.push_back({node, task_completions, false});
}

void FaultInjector::FailTask(std::uint64_t stage_id, std::uint32_t partition,
                             int times) {
  support::MutexLock lock(mutex_);
  task_failures_.push_back({stage_id, partition, times});
}

void FaultInjector::SetOnNodeFailure(std::function<void(int)> callback) {
  support::MutexLock lock(mutex_);
  on_node_failure_ = std::move(callback);
}

void FaultInjector::OnTaskCompleted() {
  std::vector<int> to_fire;
  {
    support::MutexLock lock(mutex_);
    for (auto& failure : node_failures_) {
      if (failure.fired) continue;
      if (failure.remaining > 0) --failure.remaining;
      if (failure.remaining == 0) {
        failure.fired = true;
        to_fire.push_back(failure.node);
      }
    }
  }
  // Fire outside the lock: the callback typically re-enters engine/DFS code.
  for (int node : to_fire) {
    engine::CounterRegistry::Global().Add("fault.node_failures", 1);
    engine::Tracer::Global().Instant("fault", "injected node failure",
                                     {engine::Arg("node", node)});
    SS_LOG(kInfo, "fault") << "injected failure of node " << node;
    std::function<void(int)> callback;
    {
      support::MutexLock lock(mutex_);
      callback = on_node_failure_;
    }
    if (callback) callback(node);
  }
}

bool FaultInjector::ShouldFailTask(std::uint64_t stage_id,
                                   std::uint32_t partition) {
  support::MutexLock lock(mutex_);
  for (auto& failure : task_failures_) {
    if (failure.stage_id == stage_id && failure.partition == partition &&
        failure.remaining > 0) {
      --failure.remaining;
      engine::CounterRegistry::Global().Add("fault.task_failures", 1);
      engine::Tracer::Global().Instant(
          "fault", "injected task failure",
          {engine::Arg("stage", stage_id), engine::Arg("partition", partition)});
      return true;
    }
  }
  return false;
}

bool FaultInjector::HasFired(int node) const {
  support::MutexLock lock(mutex_);
  for (const auto& failure : node_failures_) {
    if (failure.node == node && failure.fired) return true;
  }
  return false;
}

void FaultInjector::Reset() {
  support::MutexLock lock(mutex_);
  node_failures_.clear();
  task_failures_.clear();
  on_node_failure_ = nullptr;
}

}  // namespace ss::cluster
