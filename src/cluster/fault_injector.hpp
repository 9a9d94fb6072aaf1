// Deterministic failure injection for the engine and DFS.
//
// Tests and the failover example arm failures ("kill node 2 after 5 task
// completions"); the engine polls the injector at task boundaries, which is
// where Spark also observes executor loss.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "support/check.hpp"
#include "support/ranked_mutex.hpp"

namespace ss::cluster {

class FaultInjector {
 public:
  /// Arms a node failure that fires after `task_completions` more tasks
  /// complete anywhere in the cluster.
  void FailNodeAfterTasks(int node, std::uint64_t task_completions);

  /// Arms a one-shot task failure: the next task whose (stage, partition)
  /// matches will report failure `times` times before succeeding.
  void FailTask(std::uint64_t stage_id, std::uint32_t partition, int times);

  /// Callback invoked when an armed node failure fires.
  void SetOnNodeFailure(std::function<void(int node)> callback);

  /// Engine hook: called after every task completion.
  void OnTaskCompleted();

  /// Engine hook: returns true if this attempt should fail (and consumes
  /// one armed failure).
  bool ShouldFailTask(std::uint64_t stage_id, std::uint32_t partition);

  /// True once the armed failure for `node` has fired.
  bool HasFired(int node) const;

  void Reset();

 private:
  struct PendingNodeFailure {
    int node;
    std::uint64_t remaining;
    bool fired = false;
  };
  struct PendingTaskFailure {
    std::uint64_t stage_id;
    std::uint32_t partition;
    int remaining;
  };

  mutable support::RankedMutex mutex_{support::lock_rank::kFaultInjector};
  std::vector<PendingNodeFailure> node_failures_ SS_GUARDED_BY(mutex_);
  std::vector<PendingTaskFailure> task_failures_ SS_GUARDED_BY(mutex_);
  std::function<void(int)> on_node_failure_ SS_GUARDED_BY(mutex_);
};

}  // namespace ss::cluster
