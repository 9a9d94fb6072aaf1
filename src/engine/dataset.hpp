// The public dataflow API of minispark: `Dataset<T>` (an RDD), its
// transformations and actions, and the shuffle-backed pair operations.
//
// Narrow transformations (Map, Filter, FlatMap, MapPartitions) are
// pipelined: computing a partition walks the lineage chain in one call
// stack, so a chain of maps costs one pass. Wide operations
// (ReduceByKey, Join) insert a ShuffleNode, whose map stage is
// materialized by the driver before the downstream stage runs — the stage
// boundary Spark's DAG scheduler would create.
//
// All closures must be free of side effects on shared state; they may
// run concurrently and, after a failure, more than once per element.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dfs/dfs.hpp"
#include "engine/broadcast.hpp"
#include "engine/context.hpp"
#include "engine/node.hpp"
#include "engine/partitioner.hpp"
#include "support/ranked_mutex.hpp"
#include "support/status.hpp"

namespace ss::engine {

// ---------------------------------------------------------------------------
// Concrete lineage nodes (internal; users go through Dataset<T>).
// ---------------------------------------------------------------------------
namespace nodes {

/// Source node over driver-provided data, pre-split into partitions.
template <typename T>
class ParallelizeNode final : public Node<T> {
 public:
  ParallelizeNode(EngineContext* ctx, std::vector<std::vector<T>> chunks)
      : Node<T>(ctx, "parallelize", static_cast<std::uint32_t>(chunks.size()),
                {}),
        chunks_(std::move(chunks)) {}

  std::vector<T> ComputePartition(std::uint32_t index, TaskContext&) override {
    return chunks_[index];
  }

 private:
  std::vector<std::vector<T>> chunks_;
};

/// Source node reading a MiniDfs text file; one partition per DFS block.
class TextFileNode final : public Node<std::string> {
 public:
  TextFileNode(EngineContext* ctx, std::string path, std::uint32_t blocks)
      : Node<std::string>(ctx, "textFile(" + path + ")", blocks, {}),
        path_(std::move(path)) {}

  std::vector<std::string> ComputePartition(std::uint32_t index,
                                            TaskContext&) override {
    SS_CHECK(ctx_->dfs() != nullptr);
    PhaseTimer fetch_phase(TaskPhase::kFetch);
    Result<std::vector<std::string>> lines =
        ctx_->dfs()->ReadBlockLines(path_, index);
    if (!lines.ok()) {
      // Retryable: a replica may come back (revive/repair) before the
      // scheduler gives up.
      throw TaskFailure("dfs read failed: " + lines.status().ToString());
    }
    return std::move(lines).value();
  }

 private:
  std::string path_;
};

/// Element-wise map.
template <typename T, typename U, typename F>
class MapNode final : public Node<U> {
 public:
  MapNode(EngineContext* ctx, std::shared_ptr<Node<T>> parent, F fn)
      : Node<U>(ctx, "map", parent->num_partitions(), {parent}),
        parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  std::vector<U> ComputePartition(std::uint32_t index,
                                  TaskContext& task) override {
    auto input = parent_->Get(index, task);
    std::vector<U> out;
    out.reserve(input->size());
    for (const T& item : *input) out.push_back(fn_(item));
    return out;
  }

 private:
  std::shared_ptr<Node<T>> parent_;
  F fn_;
};

/// Whole-partition map; fn(partition_index, records) -> records.
template <typename T, typename U, typename F>
class MapPartitionsNode final : public Node<U> {
 public:
  MapPartitionsNode(EngineContext* ctx, std::shared_ptr<Node<T>> parent, F fn)
      : Node<U>(ctx, "mapPartitions", parent->num_partitions(), {parent}),
        parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  std::vector<U> ComputePartition(std::uint32_t index,
                                  TaskContext& task) override {
    auto input = parent_->Get(index, task);
    return fn_(index, *input);
  }

 private:
  std::shared_ptr<Node<T>> parent_;
  F fn_;
};

/// Predicate filter.
template <typename T, typename F>
class FilterNode final : public Node<T> {
 public:
  FilterNode(EngineContext* ctx, std::shared_ptr<Node<T>> parent, F fn)
      : Node<T>(ctx, "filter", parent->num_partitions(), {parent}),
        parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  std::vector<T> ComputePartition(std::uint32_t index,
                                  TaskContext& task) override {
    auto input = parent_->Get(index, task);
    std::vector<T> out;
    for (const T& item : *input) {
      if (fn_(item)) out.push_back(item);
    }
    return out;
  }

 private:
  std::shared_ptr<Node<T>> parent_;
  F fn_;
};

/// One-to-many map; fn returns a vector per element.
template <typename T, typename U, typename F>
class FlatMapNode final : public Node<U> {
 public:
  FlatMapNode(EngineContext* ctx, std::shared_ptr<Node<T>> parent, F fn)
      : Node<U>(ctx, "flatMap", parent->num_partitions(), {parent}),
        parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  std::vector<U> ComputePartition(std::uint32_t index,
                                  TaskContext& task) override {
    auto input = parent_->Get(index, task);
    std::vector<U> out;
    for (const T& item : *input) {
      std::vector<U> expanded = fn_(item);
      for (auto& value : expanded) out.push_back(std::move(value));
    }
    return out;
  }

 private:
  std::shared_ptr<Node<T>> parent_;
  F fn_;
};

/// Repartitioning of pairs by key hash — the wide dependency. The map
/// stage (run by the driver via EnsureReadySelf) computes every parent
/// partition and scatters records into reduce buckets; reduce-side
/// ComputePartition just hands back its bucket. Buckets are retained for
/// the node's lifetime, mirroring Spark's persisted shuffle files: a lost
/// reduce task re-reads them without rerunning the map stage.
template <typename K, typename V>
class ShuffleNode final : public Node<std::pair<K, V>> {
 public:
  using Pair = std::pair<K, V>;

  ShuffleNode(EngineContext* ctx, std::shared_ptr<Node<Pair>> parent,
              std::uint32_t num_partitions)
      : Node<Pair>(ctx, "shuffle", num_partitions, {parent}),
        parent_(std::move(parent)) {}

  std::vector<Pair> ComputePartition(std::uint32_t index,
                                     TaskContext& task) override {
    // The bucket copy is this reduce task's shuffle fetch.
    PhaseTimer fetch_phase(TaskPhase::kFetch);
    support::MutexLock lock(buckets_mutex_);
    task.metrics().shuffle_read_bytes += ApproxBytesOfPartition(buckets_[index]);
    return buckets_[index];
  }

 protected:
  void EnsureReadySelf() override {
    const std::uint32_t reducers = this->num_partitions();
    const std::uint32_t mappers = parent_->num_partitions();
    // Map outputs are staged per map partition and concatenated in map
    // partition order below. Appending directly to the reduce buckets in
    // task *completion* order would make the record order inside a bucket
    // (and thus every non-associative downstream fold, e.g. a float sum
    // in ReduceByKey) depend on scheduling — a bitwise-nondeterminism bug
    // caught by tests/engine/determinism_test.cpp.
    std::vector<std::vector<std::vector<Pair>>> per_map(mappers);
    // Guards the per_map staging vector. Function-local, so per_map cannot
    // carry SS_GUARDED_BY (Clang only accepts the attribute on
    // members/globals); the lock-order analyzer still ranks it between the
    // pool and the reduce buckets.
    // ss-lint: allow(guarded-by-coverage) guards function-local per_map
    support::RankedMutex per_map_mutex{support::lock_rank::kShufflePerMap};
    this->ctx_->RunTasks(
        "shuffle-map(" + parent_->label() + ")", mappers,
        [&](TaskContext& task) {
          auto input = parent_->Get(task.partition(), task);
          std::vector<std::vector<Pair>> local(reducers);
          for (const Pair& record : *input) {
            local[PartitionOf(record.first, reducers)].push_back(record);
          }
          std::uint64_t bytes = 0;
          for (const auto& bucket : local) {
            bytes += ApproxBytesOfPartition(bucket);
          }
          task.metrics().shuffle_write_bytes += bytes;
          task.metrics().records_out = input->size();
          // Speculative duplicate attempts of a map task write identical
          // (deterministically computed) data, so last-writer-wins is fine.
          support::MutexLock lock(per_map_mutex);
          per_map[task.partition()] = std::move(local);
        });
    support::MutexLock lock(buckets_mutex_);
    buckets_.assign(reducers, {});
    for (std::uint32_t m = 0; m < mappers; ++m) {
      SS_CHECK(per_map[m].size() == reducers);  // RunTasks ran every mapper
      for (std::uint32_t r = 0; r < reducers; ++r) {
        auto& bucket = buckets_[r];
        bucket.insert(bucket.end(),
                      std::make_move_iterator(per_map[m][r].begin()),
                      std::make_move_iterator(per_map[m][r].end()));
      }
    }
  }

 private:
  std::shared_ptr<Node<Pair>> parent_;
  support::RankedMutex buckets_mutex_{support::lock_rank::kShuffleBuckets};
  std::vector<std::vector<Pair>> buckets_ SS_GUARDED_BY(buckets_mutex_);
};

/// Hash join of two shuffled inputs with identical partitioning. Both
/// parents are ShuffleNodes over the same reducer count, so bucket i of
/// each contains exactly the keys hashing to i (co-partitioning).
template <typename K, typename A, typename B>
class JoinNode final : public Node<std::pair<K, std::pair<A, B>>> {
 public:
  using Out = std::pair<K, std::pair<A, B>>;

  JoinNode(EngineContext* ctx, std::shared_ptr<Node<std::pair<K, A>>> left,
           std::shared_ptr<Node<std::pair<K, B>>> right)
      : Node<Out>(ctx, "join", left->num_partitions(), {left, right}),
        left_(std::move(left)),
        right_(std::move(right)) {
    SS_CHECK(left_->num_partitions() == right_->num_partitions());
  }

  std::vector<Out> ComputePartition(std::uint32_t index,
                                    TaskContext& task) override {
    auto left = left_->Get(index, task);
    auto right = right_->Get(index, task);
    std::unordered_multimap<K, A> build;
    build.reserve(left->size());
    for (const auto& [key, value] : *left) build.emplace(key, value);
    std::vector<Out> out;
    out.reserve(right->size());
    for (const auto& [key, value] : *right) {
      auto [begin, end] = build.equal_range(key);
      for (auto it = begin; it != end; ++it) {
        out.push_back({key, {it->second, value}});
      }
    }
    return out;
  }

 private:
  std::shared_ptr<Node<std::pair<K, A>>> left_;
  std::shared_ptr<Node<std::pair<K, B>>> right_;
};

}  // namespace nodes

// ---------------------------------------------------------------------------
// Dataset<T>: the user-facing handle.
// ---------------------------------------------------------------------------

template <typename T>
class Dataset {
 public:
  Dataset() = default;
  Dataset(EngineContext* ctx, std::shared_ptr<Node<T>> node)
      : ctx_(ctx), node_(std::move(node)) {}

  bool valid() const { return node_ != nullptr; }
  std::uint32_t NumPartitions() const { return node_->num_partitions(); }
  EngineContext* context() const { return ctx_; }
  std::shared_ptr<Node<T>> node() const { return node_; }

  // -- Narrow transformations (lazy) --------------------------------------

  /// Element-wise transform.
  template <typename F, typename U = std::invoke_result_t<F, const T&>>
  Dataset<U> Map(F fn) const {
    return Dataset<U>(ctx_, std::make_shared<nodes::MapNode<T, U, F>>(
                                ctx_, node_, std::move(fn)));
  }

  /// Whole-partition transform: fn(partition_index, records) -> records.
  template <typename F,
            typename U = typename std::invoke_result_t<
                F, std::uint32_t, const std::vector<T>&>::value_type>
  Dataset<U> MapPartitions(F fn) const {
    return Dataset<U>(ctx_, std::make_shared<nodes::MapPartitionsNode<T, U, F>>(
                                ctx_, node_, std::move(fn)));
  }

  /// Keeps elements where fn(x) is true.
  template <typename F>
  Dataset<T> Filter(F fn) const {
    return Dataset<T>(ctx_, std::make_shared<nodes::FilterNode<T, F>>(
                                ctx_, node_, std::move(fn)));
  }

  /// One-to-many transform; fn returns a vector per element.
  template <typename F,
            typename U = typename std::invoke_result_t<F, const T&>::value_type>
  Dataset<U> FlatMap(F fn) const {
    return Dataset<U>(ctx_, std::make_shared<nodes::FlatMapNode<T, U, F>>(
                                ctx_, node_, std::move(fn)));
  }

  // -- Persistence ---------------------------------------------------------

  /// Marks this dataset persistent: computed partitions are kept in the
  /// cache and reused by later stages (Spark's .cache()).
  Dataset<T>& Cache() {
    node_->EnableCache();
    return *this;
  }
  const Dataset<T>& Cache() const {
    node_->EnableCache();
    return *this;
  }

  // -- Actions (eager) -----------------------------------------------------

  /// All elements, in partition order.
  std::vector<T> Collect(const std::string& label = "collect") const {
    std::vector<std::vector<T>> partitions = RunStage(*node_, label);
    std::vector<T> out;
    std::size_t total = 0;
    for (const auto& partition : partitions) total += partition.size();
    out.reserve(total);
    for (auto& partition : partitions) {
      for (auto& item : partition) out.push_back(std::move(item));
    }
    return out;
  }

  /// Lineage description (RDD.toDebugString).
  std::string DebugString() const { return node_->DebugString(); }

 private:
  EngineContext* ctx_ = nullptr;
  std::shared_ptr<Node<T>> node_;
};

// ---------------------------------------------------------------------------
// Sources.
// ---------------------------------------------------------------------------

/// Splits `data` into `num_partitions` nearly equal chunks on the driver.
template <typename T>
Dataset<T> Parallelize(EngineContext& ctx, const std::vector<T>& data,
                       std::uint32_t num_partitions) {
  SS_CHECK(num_partitions >= 1);
  std::vector<std::vector<T>> chunks(num_partitions);
  const std::size_t base = data.size() / num_partitions;
  const std::size_t extra = data.size() % num_partitions;
  std::size_t offset = 0;
  for (std::uint32_t p = 0; p < num_partitions; ++p) {
    const std::size_t size = base + (p < extra ? 1 : 0);
    chunks[p].assign(data.begin() + static_cast<std::ptrdiff_t>(offset),
                     data.begin() + static_cast<std::ptrdiff_t>(offset + size));
    offset += size;
  }
  return Dataset<T>(&ctx, std::make_shared<nodes::ParallelizeNode<T>>(
                              &ctx, std::move(chunks)));
}

/// Opens a MiniDfs text file as a dataset of lines, one partition per block.
/// Throws StatusError if the file does not exist.
inline Dataset<std::string> TextFile(EngineContext& ctx,
                                     const std::string& path) {
  SS_CHECK(ctx.dfs() != nullptr);
  Result<std::uint32_t> blocks = ctx.dfs()->BlockCount(path);
  if (!blocks.ok()) throw StatusError(blocks.status());
  return Dataset<std::string>(
      &ctx, std::make_shared<nodes::TextFileNode>(&ctx, path, blocks.value()));
}

// ---------------------------------------------------------------------------
// Pair (wide) operations.
// ---------------------------------------------------------------------------

/// Repartitions pairs by key hash into `num_partitions` buckets.
template <typename K, typename V>
Dataset<std::pair<K, V>> PartitionByKey(const Dataset<std::pair<K, V>>& ds,
                                        std::uint32_t num_partitions) {
  SS_CHECK(num_partitions >= 1);
  return Dataset<std::pair<K, V>>(
      ds.context(), std::make_shared<nodes::ShuffleNode<K, V>>(
                        ds.context(), ds.node(), num_partitions));
}

/// Merges all values of each key with `fn` (commutative + associative).
/// Map-side pre-aggregation (a combiner) runs before the shuffle, as in
/// Spark, so shuffle volume is one record per key per map partition.
template <typename K, typename V, typename F>
Dataset<std::pair<K, V>> ReduceByKey(const Dataset<std::pair<K, V>>& ds, F fn,
                                     std::uint32_t num_partitions) {
  auto combined = ds.MapPartitions(
      [fn](std::uint32_t, const std::vector<std::pair<K, V>>& records) {
        std::unordered_map<K, V> acc;
        acc.reserve(records.size());
        for (const auto& [key, value] : records) {
          auto [it, inserted] = acc.try_emplace(key, value);
          if (!inserted) it->second = fn(it->second, value);
        }
        return std::vector<std::pair<K, V>>(acc.begin(), acc.end());
      });
  auto shuffled = PartitionByKey(combined, num_partitions);
  return shuffled.MapPartitions(
      [fn](std::uint32_t, const std::vector<std::pair<K, V>>& records) {
        std::unordered_map<K, V> acc;
        acc.reserve(records.size());
        for (const auto& [key, value] : records) {
          auto [it, inserted] = acc.try_emplace(key, value);
          if (!inserted) it->second = fn(it->second, value);
        }
        return std::vector<std::pair<K, V>>(acc.begin(), acc.end());
      });
}

/// Inner join on key; both sides are shuffled to `num_partitions` and
/// joined bucket-by-bucket (Algorithm 1 step 9: Weights ⋈ InnerSigma).
template <typename K, typename A, typename B>
Dataset<std::pair<K, std::pair<A, B>>> Join(const Dataset<std::pair<K, A>>& left,
                                            const Dataset<std::pair<K, B>>& right,
                                            std::uint32_t num_partitions) {
  auto left_shuffled = PartitionByKey(left, num_partitions);
  auto right_shuffled = PartitionByKey(right, num_partitions);
  return Dataset<std::pair<K, std::pair<A, B>>>(
      left.context(),
      std::make_shared<nodes::JoinNode<K, A, B>>(
          left.context(), left_shuffled.node(), right_shuffled.node()));
}

/// Collects a pair dataset into a map on the driver (the "HashMap" outputs
/// of Algorithms 1-3). Duplicate keys keep the last value seen. Values
/// are moved out of the collected records, never copied.
template <typename K, typename V>
std::unordered_map<K, V> CollectAsMap(const Dataset<std::pair<K, V>>& ds,
                                      const std::string& label = "collectAsMap") {
  std::unordered_map<K, V> out;
  for (auto& [key, value] : ds.Collect(label)) {
    out.insert_or_assign(key, std::move(value));
  }
  return out;
}

}  // namespace ss::engine
