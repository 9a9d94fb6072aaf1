// EngineContext: the driver of the minispark engine.
//
// Owns the physical thread pool (the real execution substrate), the
// partition cache, the metrics recorder, and the simulated-cluster wiring
// (topology, optional MiniDfs, optional FaultInjector). Datasets and
// transformations live in dataset.hpp; the context deliberately knows
// nothing about record types — `RunTasks` is the single type-erased entry
// point every stage goes through, so scheduling, retries, fault injection
// and metrics are implemented exactly once.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "cluster/cost_model.hpp"
#include "cluster/fault_injector.hpp"
#include "cluster/topology.hpp"
#include "cluster/virtual_scheduler.hpp"
#include "dfs/dfs.hpp"
#include "engine/cache_manager.hpp"
#include "engine/executor.hpp"
#include "engine/metrics.hpp"
#include "engine/task.hpp"
#include "support/thread_pool.hpp"

namespace ss::engine {

class EngineContext {
 public:
  struct Options {
    /// Simulated cluster the job "runs on"; drives task->executor->node
    /// assignment, cache placement, and virtual-time replay.
    cluster::ClusterTopology topology;

    /// Real worker threads backing the executor slots. Defaults to the
    /// host's hardware concurrency (at least 2, so concurrency bugs are
    /// exercised even on single-core hosts).
    std::size_t physical_threads = 0;

    /// Master seed; all task randomness derives from it deterministically.
    std::uint64_t seed = 42;

    /// Cache budget in bytes; 0 = unlimited.
    std::uint64_t cache_capacity_bytes = 0;

    /// Spill tier switch: when true (default), evicted spillable
    /// partitions move to the spill store instead of being discarded.
    bool cache_spill = true;

    /// Spill frame location: empty = in-memory block store, else a
    /// directory real spill files are written under.
    std::string spill_dir;

    /// Attempts per task before the job fails (Spark's spark.task.maxFailures
    /// defaults to 4 attempts = 3 retries).
    int max_task_attempts = 4;

    /// Straggler threshold for the timeline profile: a task is flagged
    /// when slower than median + straggler_mad_k * MAD of its stage.
    double straggler_mad_k = 3.0;

    /// Overhead model used when replaying metrics onto the topology.
    cluster::CostModel cost_model;

    /// Async-executor knobs (I/O lane, prefetch depth, background spill).
    /// `prefetch_depth == 0` disables the lane entirely — stages run the
    /// legacy synchronous loop. Overridable via the SS_PREFETCH /
    /// SS_SPILL_ASYNC environment variables (the CI ablation matrix).
    ExecConfig exec;
  };

  /// `dfs` and `faults` are optional collaborators owned by the caller and
  /// must outlive the context.
  explicit EngineContext(Options options, dfs::MiniDfs* dfs = nullptr,
                         cluster::FaultInjector* faults = nullptr);
  ~EngineContext();

  EngineContext(const EngineContext&) = delete;
  EngineContext& operator=(const EngineContext&) = delete;

  /// Runs `num_tasks` tasks through the executor pool and blocks until all
  /// succeed; each failed attempt is retried up to max_task_attempts.
  /// Returns the stage id under which metrics were recorded. Must be called
  /// from the driver thread (never from inside a task).
  ///
  /// With the I/O lane active (exec.prefetch_depth > 0) tasks are
  /// dispatched through a per-stage channel, and a non-empty
  /// `prefetch_chain` names the cached datasets (nearest first — RunStage
  /// derives the chain from the lineage) whose partitions the lane
  /// reloads/decodes/fetches ahead of the compute frontier; per partition
  /// the lane stops at the first chain level the cache can serve.
  /// Scheduling changes; per-partition results and all driver-side fold
  /// orders do not.
  std::uint64_t RunTasks(const std::string& label, std::uint32_t num_tasks,
                         const std::function<void(TaskContext&)>& task_fn,
                         std::vector<std::uint64_t> prefetch_chain = {});

  /// Unique id for a new dataset node.
  std::uint64_t NewNodeId() { return next_node_id_.fetch_add(1); }

  /// Replays all metrics recorded since the last metrics().Reset() onto
  /// `topology`, yielding the virtual wall-clock of the same work there.
  cluster::MakespanReport ReplayOn(const cluster::ClusterTopology& topology) const;

  /// Simulated node failure: drops that node's cached partitions (lineage
  /// will recompute them on next access). Also invoked automatically when
  /// an armed FaultInjector fires.
  void FailNode(int node);

  /// Reconfigures the I/O lane (prefetch depth, I/O threads, background
  /// spill); bitwise-irrelevant to results.
  /// Sticky: the new config applies to every subsequent stage. Drains the
  /// current lane first, so it must be called between stages, never from
  /// inside a task.
  void ApplyExecConfig(const ExecConfig& exec);

  /// The I/O lane, or nullptr when ablated (prefetch_depth == 0).
  AsyncExecutor* io() { return io_.get(); }
  const ExecConfig& exec_config() const { return options_.exec; }

  CacheManager& cache() { return cache_; }
  MetricsRecorder& metrics() { return metrics_; }
  const Options& options() const { return options_; }
  const cluster::ClusterTopology& topology() const { return options_.topology; }
  dfs::MiniDfs* dfs() { return dfs_; }
  cluster::FaultInjector* faults() { return faults_; }
  std::uint64_t seed() const { return options_.seed; }

  /// Total tasks executed successfully since construction.
  std::uint64_t tasks_completed() const { return tasks_completed_.load(); }

  /// Machine-readable summary of everything this context has recorded so
  /// far: stage stats, cache hit/miss, broadcast and shuffle volumes, the
  /// task-timeline profile, and the global counter registry (schema
  /// "sparkscore-run-metrics-v2").
  std::string RunMetricsJson() const;

 private:
  /// `after_task` (may be empty) runs on the worker inside the successful
  /// attempt's timeline, under the `prefetch` phase — the channel path's
  /// hook for issuing the next prefetch as each task retires.
  void RunOneTask(std::uint64_t stage_id, std::uint32_t index,
                  std::int64_t enqueue_ns, const std::string& label,
                  const std::function<void(TaskContext&)>& task_fn,
                  const std::function<void()>& after_task = nullptr);

  /// Channel-based dispatch (exec.prefetch_depth > 0): partition indices
  /// flow through a closed channel to min(pool, tasks) runners; the I/O
  /// lane warms `prefetch_chain`'s partitions ahead of the frontier.
  void RunTasksChannel(std::uint64_t stage_id, std::uint32_t num_tasks,
                       std::int64_t enqueue_ns, const std::string& label,
                       const std::function<void(TaskContext&)>& task_fn,
                       const std::vector<std::uint64_t>& prefetch_chain);

  /// Queues an advisory warm-up of `partition` on the I/O lane: the job
  /// walks `chain` and stops at the first dataset the cache can serve
  /// (hit / spill reload / backing-store fetch).
  void IssuePrefetch(const std::vector<std::uint64_t>& chain,
                     std::uint32_t partition);

  void RebuildIoLane();

  Options options_;
  dfs::MiniDfs* dfs_;
  cluster::FaultInjector* faults_;
  CacheManager cache_;
  MetricsRecorder metrics_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<std::uint64_t> next_node_id_{1};
  std::atomic<std::uint64_t> tasks_completed_{0};
  /// Declared last: destroyed first, while the cache its jobs touch (and
  /// the pool whose workers may be mid-Enqueue) are still alive.
  std::unique_ptr<AsyncExecutor> io_;
};

}  // namespace ss::engine
