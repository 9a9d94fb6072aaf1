// Lineage graph nodes.
//
// A `Node<T>` is one logical dataset in the lineage DAG: it knows its
// parents and how to (re)compute any partition from them. Computation is
// pull-based: `Get` consults the cache when the node is marked persistent,
// otherwise recomputes — which is precisely RDD lineage-based fault
// recovery. Wide (shuffle) nodes override `EnsureReadySelf` to run their
// map stage from the driver before any reduce task starts.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/approx_bytes.hpp"
#include "engine/cache_manager.hpp"
#include "engine/context.hpp"
#include "engine/profile.hpp"
#include "engine/task.hpp"
#include "engine/trace.hpp"
#include "support/ranked_mutex.hpp"
#include "support/status.hpp"
#include "support/stopwatch.hpp"

namespace ss::engine {

/// Untyped base: identity, arity, lineage edges, persistence flag.
class NodeBase {
 public:
  NodeBase(EngineContext* ctx, std::string label, std::uint32_t num_partitions,
           std::vector<std::shared_ptr<NodeBase>> parents)
      : ctx_(ctx),
        id_(ctx->NewNodeId()),
        label_(std::move(label)),
        num_partitions_(num_partitions),
        parents_(std::move(parents)) {}

  virtual ~NodeBase() = default;

  NodeBase(const NodeBase&) = delete;
  NodeBase& operator=(const NodeBase&) = delete;

  std::uint64_t id() const { return id_; }
  const std::string& label() const { return label_; }
  std::uint32_t num_partitions() const { return num_partitions_; }
  EngineContext* context() const { return ctx_; }
  const std::vector<std::shared_ptr<NodeBase>>& parents() const {
    return parents_;
  }

  /// Marks the node persistent: computed partitions go to the cache.
  void EnableCache() { cache_enabled_ = true; }
  bool cache_enabled() const { return cache_enabled_; }

  /// Drops this node's partitions from the cache.
  void Unpersist() { ctx_->cache().DropDataset(id_); }

  /// Driver-side preparation: recursively readies parents, then this node.
  /// Shuffle nodes materialize their map stage here; narrow nodes no-op.
  /// Idempotent and safe to call repeatedly.
  void EnsureReady() {
    for (const auto& parent : parents_) parent->EnsureReady();
    support::MutexLock lock(ready_mutex_);
    if (ready_) return;
    EnsureReadySelf();
    ready_ = true;
  }

  /// Multi-line description of the lineage rooted at this node (debugging
  /// aid, mirrors RDD.toDebugString).
  std::string DebugString(int indent = 0) const {
    std::string out(static_cast<std::size_t>(indent) * 2, ' ');
    out += '(';
    out += std::to_string(num_partitions_);
    out += ") ";
    out += label_;
    if (cache_enabled_) out += " [cached]";
    out += '\n';
    for (const auto& parent : parents_) out += parent->DebugString(indent + 1);
    return out;
  }

 protected:
  virtual void EnsureReadySelf() {}

  /// Invalidates readiness (used by shuffle nodes when inputs change —
  /// not currently needed by any transformation, but kept for symmetry).
  void MarkNotReady() {
    support::MutexLock lock(ready_mutex_);
    ready_ = false;
  }

  EngineContext* ctx_;

 private:
  const std::uint64_t id_;
  const std::string label_;
  const std::uint32_t num_partitions_;
  std::vector<std::shared_ptr<NodeBase>> parents_;
  bool cache_enabled_ = false;
  // One instance per node, all sharing kNodeReady: EnsureReady readies
  // every parent BEFORE locking its own mutex, so two ready locks are
  // never held together (EnsureReadySelf never re-enters EnsureReady).
  support::RankedMutex ready_mutex_{support::lock_rank::kNodeReady};
  bool ready_ SS_GUARDED_BY(ready_mutex_) = false;
};

/// Typed node: can produce any of its partitions.
template <typename T>
class Node : public NodeBase {
 public:
  using ElementType = T;
  using PartitionPtr = std::shared_ptr<const std::vector<T>>;

  using NodeBase::NodeBase;

  /// Computes partition `index` from the parents. Called from task threads;
  /// must be thread-safe w.r.t. other partitions.
  virtual std::vector<T> ComputePartition(std::uint32_t index,
                                          TaskContext& task) = 0;

  /// Cache-aware access: returns the cached partition or computes (and, if
  /// persistent, caches) it. This is the lineage-recovery entry point — a
  /// partition lost to a node failure is transparently recomputed here.
  PartitionPtr Get(std::uint32_t index, TaskContext& task) {
    SS_CHECK(index < num_partitions());
    if (cache_enabled()) {
      const CacheKey key{id(), index};
      if (std::shared_ptr<void> hit = ctx_->cache().Lookup(key)) {
        return std::static_pointer_cast<const std::vector<T>>(hit);
      }
      static std::atomic<std::uint64_t>& computes =
          CounterRegistry::Global().Get("cache.computes");
      static std::atomic<std::uint64_t>& compute_nanos =
          CounterRegistry::Global().Get("cache.compute_nanos");
      Stopwatch compute_watch;
      auto computed =
          std::make_shared<std::vector<T>>(ComputePartition(index, task));
      const double compute_seconds = compute_watch.ElapsedSeconds();
      computes.fetch_add(1, std::memory_order_relaxed);
      compute_nanos.fetch_add(
          static_cast<std::uint64_t>(compute_seconds * 1e9),
          std::memory_order_relaxed);
      ctx_->cache().Insert(key, computed, ApproxBytesOfPartition(*computed),
                           task.node(), compute_seconds);
      return computed;
    }
    return std::make_shared<const std::vector<T>>(
        ComputePartition(index, task));
  }

  /// Get for a consumer that keeps the partition (RunStage): a cached
  /// partition is copied out of the cache, an uncached one is handed over
  /// without a copy.
  std::vector<T> Take(std::uint32_t index, TaskContext& task) {
    if (cache_enabled()) return *Get(index, task);
    SS_CHECK(index < num_partitions());
    return ComputePartition(index, task);
  }
};

/// Runs one full pass over `node`'s partitions as a stage, returning all
/// partitions in order. The building block for actions (collect/count/...)
/// and shuffle map stages. Driver-side only.
template <typename T>
std::vector<std::vector<T>> RunStage(Node<T>& node, const std::string& label) {
  node.EnsureReady();
  std::vector<std::vector<T>> partitions(node.num_partitions());
  node.context()->RunTasks(label, node.num_partitions(),
                           [&](TaskContext& task) {
                             std::vector<T> part =
                                 node.Take(task.partition(), task);
                             task.metrics().records_out = part.size();
                             PhaseTimer handoff_phase(TaskPhase::kHandoff);
                             partitions[task.partition()] = std::move(part);
                           });
  return partitions;
}

}  // namespace ss::engine
