#include "engine/context.hpp"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "engine/profile.hpp"
#include "engine/trace.hpp"
#include "support/channel.hpp"
#include "support/log.hpp"
#include "support/ranked_mutex.hpp"
#include "support/stopwatch.hpp"

namespace ss::engine {
namespace {

/// True while the current thread is executing a task body. Actions from
/// inside a task (e.g. Collect in a Map closure) would submit to the same
/// pool the task occupies and can deadlock; the guard turns that mistake
/// into an immediate diagnostic.
thread_local bool t_inside_task = false;

struct InsideTaskScope {
  InsideTaskScope() { t_inside_task = true; }
  ~InsideTaskScope() { t_inside_task = false; }
};

/// SS_PREFETCH environment override (the CI ablation matrix runs tier-1
/// under prefetch 0 and 2 without touching callers).
ExecConfig WithEnvOverrides(ExecConfig exec) {
  if (const char* env = std::getenv("SS_PREFETCH")) {
    exec.prefetch_depth = std::max(0, std::atoi(env));
  }
  return exec;
}

bool SameExecConfig(const ExecConfig& a, const ExecConfig& b) {
  return a.prefetch_depth == b.prefetch_depth && a.io_threads == b.io_threads &&
         a.queue_bound == b.queue_bound;
}

}  // namespace

EngineContext::EngineContext(Options options, dfs::MiniDfs* dfs,
                             cluster::FaultInjector* faults)
    : options_(std::move(options)),
      dfs_(dfs),
      faults_(faults),
      cache_(options_.cache_capacity_bytes) {
  std::size_t threads = options_.physical_threads;
  if (threads == 0) {
    threads = std::max(2u, std::thread::hardware_concurrency());
  }
  pool_ = std::make_unique<ThreadPool>(threads);
  options_.exec = WithEnvOverrides(options_.exec);
  RebuildIoLane();
  if (faults_ != nullptr) {
    faults_->SetOnNodeFailure([this](int node) { FailNode(node); });
  }
  SS_LOG(kInfo, "engine") << "context up: " << options_.topology.ToString()
                          << ", " << threads << " physical threads";
}

EngineContext::~EngineContext() {
  if (faults_ != nullptr) faults_->SetOnNodeFailure(nullptr);
}

std::uint64_t EngineContext::RunTasks(
    const std::string& label, std::uint32_t num_tasks,
    const std::function<void(TaskContext&)>& task_fn,
    std::vector<std::uint64_t> prefetch_chain) {
  SS_CHECK(!t_inside_task &&
           "actions must run on the driver, not inside a task closure");
  const std::uint64_t stage_id = metrics_.BeginStage(label, num_tasks);
  SS_LOG(kDebug, "engine") << "stage " << stage_id << " (" << label << "): "
                           << num_tasks << " tasks";
  TraceSpan span(Tracer::Global(), "stage",
                 "stage " + std::to_string(stage_id) + ": " + label,
                 {Arg("stage", stage_id), Arg("label", label),
                  Arg("tasks", num_tasks)});
  pool_->ResetQueuePeak();
  const std::int64_t enqueue_ns = ProfileNowNs();
  if (io_ != nullptr) {
    RunTasksChannel(stage_id, num_tasks, enqueue_ns, label, task_fn,
                    prefetch_chain);
  } else {
    // Ablation path (prefetch=0): the original synchronous loop, with no
    // channel, lane, or prefetch anywhere near the stage.
    pool_->ParallelFor(0, num_tasks, [&](std::size_t index) {
      RunOneTask(stage_id, static_cast<std::uint32_t>(index), enqueue_ns,
                 label, task_fn);
    });
  }
  metrics_.EndStage(stage_id, pool_->queue_peak());
  // Mirror the pool's saturation stats into the process-global registry
  // (the pool lives in ss_support and cannot depend on the engine's
  // counters itself). busy_nanos is monotonic; queue_peak keeps the max
  // across stages until the registry is reset.
  auto& registry = CounterRegistry::Global();
  registry.Get("pool.busy_nanos")
      .store(pool_->busy_nanos(), std::memory_order_relaxed);
  auto& queue_peak = registry.Get("pool.queue_peak");
  const std::uint64_t stage_peak = pool_->queue_peak();
  if (stage_peak > queue_peak.load(std::memory_order_relaxed)) {
    queue_peak.store(stage_peak, std::memory_order_relaxed);
  }
  return stage_id;
}

void EngineContext::RunTasksChannel(
    std::uint64_t stage_id, std::uint32_t num_tasks, std::int64_t enqueue_ns,
    const std::string& label, const std::function<void(TaskContext&)>& task_fn,
    const std::vector<std::uint64_t>& prefetch_chain) {
  static std::atomic<std::uint64_t>& channel_stages =
      CounterRegistry::Global().Get("exec.channel_stages");
  channel_stages.fetch_add(1, std::memory_order_relaxed);

  // All indices are queued up front and the channel closed, so runners
  // claim them in the same ascending order ParallelFor's cursor produced
  // and exit exactly when the stage is drained.
  support::Channel<std::uint32_t> channel(support::lock_rank::kExecChannel);
  for (std::uint32_t index = 0; index < num_tasks; ++index) {
    channel.Push(index);
  }
  channel.Close();

  const std::size_t runners =
      std::min<std::size_t>(pool_->size(), std::max<std::uint32_t>(1, num_tasks));
  const int depth = options_.exec.prefetch_depth;
  const bool prefetching = !prefetch_chain.empty() && depth > 0;

  // The prefetch window: the first `runners` partitions are claimed
  // immediately, so seed the lane with the `depth` partitions after them,
  // then keep the window one fetch ahead per retiring task.
  std::atomic<std::uint32_t> next_prefetch{static_cast<std::uint32_t>(
      std::min<std::uint64_t>(num_tasks, runners + static_cast<std::uint64_t>(depth)))};
  if (prefetching) {
    for (std::uint32_t p = static_cast<std::uint32_t>(
             std::min<std::uint64_t>(num_tasks, runners));
         p < next_prefetch.load(std::memory_order_relaxed); ++p) {
      IssuePrefetch(prefetch_chain, p);
    }
  }

  // ParallelFor's error contract, replicated: every index still runs, and
  // the first failure in claim order is rethrown on the driver. Lives on
  // this stack frame, which outlives the runners (the driver blocks on
  // every future below).
  struct ErrorState {
    support::RankedMutex mutex{support::lock_rank::kParallelForError};
    std::exception_ptr first SS_GUARDED_BY(mutex);
    std::uint32_t first_index SS_GUARDED_BY(mutex) = 0;
  };
  ErrorState error;

  std::vector<std::future<void>> futures;
  futures.reserve(runners);
  for (std::size_t r = 0; r < runners; ++r) {
    futures.push_back(pool_->Submit([&]() {
      while (std::optional<std::uint32_t> index = channel.Pop()) {
        std::function<void()> after_task;
        if (prefetching) {
          after_task = [&]() {
            const std::uint32_t p =
                next_prefetch.fetch_add(1, std::memory_order_relaxed);
            if (p < num_tasks) IssuePrefetch(prefetch_chain, p);
          };
        }
        try {
          RunOneTask(stage_id, *index, enqueue_ns, label, task_fn, after_task);
        } catch (...) {
          support::MutexLock lock(error.mutex);
          if (error.first == nullptr || *index < error.first_index) {
            error.first = std::current_exception();
            error.first_index = *index;
          }
        }
      }
    }));
  }
  for (std::future<void>& future : futures) future.get();
  support::MutexLock lock(error.mutex);
  if (error.first != nullptr) std::rethrow_exception(error.first);
}

void EngineContext::IssuePrefetch(const std::vector<std::uint64_t>& chain,
                                  std::uint32_t partition) {
  static std::atomic<std::uint64_t>& prefetches =
      CounterRegistry::Global().Get("exec.prefetches");
  if (io_ == nullptr || chain.empty()) return;
  // Advisory: a full lane drops the request — a prefetch that cannot
  // start before its consumer would only add lock traffic. The job is
  // self-contained (keys + cache only), so it may harmlessly outlive the
  // stage that issued it. The chain walk stops at the first dataset the
  // cache can serve: a warm derived partition short-circuits, and only
  // non-resident data falls through to a store-backed ancestor's fetcher.
  const bool queued = io_->TryEnqueue([this, chain, partition]() {
    TraceSpan span(Tracer::Global(), "prefetch",
                   "prefetch p" + std::to_string(partition),
                   {Arg("dataset", chain.front()), Arg("partition", partition)});
    for (std::uint64_t node_id : chain) {
      if (cache_.Prefetch(CacheKey{node_id, partition})) break;
    }
  });
  if (queued) prefetches.fetch_add(1, std::memory_order_relaxed);
}

void EngineContext::RebuildIoLane() {
  io_.reset();
  if (options_.exec.enabled()) {
    io_ = std::make_unique<AsyncExecutor>(options_.exec);
  }
}

void EngineContext::ApplyExecConfig(const ExecConfig& exec) {
  SS_CHECK(!t_inside_task &&
           "ApplyExecConfig must run on the driver, between stages");
  const ExecConfig effective = WithEnvOverrides(exec);
  if (SameExecConfig(effective, options_.exec) &&
      (io_ != nullptr) == effective.enabled()) {
    return;
  }
  options_.exec = effective;
  RebuildIoLane();
  SS_LOG(kDebug, "engine") << "exec config applied: prefetch "
                           << effective.prefetch_depth << ", io threads "
                           << effective.io_threads;
}

void EngineContext::RunOneTask(
    std::uint64_t stage_id, std::uint32_t index, std::int64_t enqueue_ns,
    const std::string& label,
    const std::function<void(TaskContext&)>& task_fn,
    const std::function<void()>& after_task) {
  const int executors = std::max(1, options_.topology.TotalExecutors());
  const int executor = static_cast<int>(index) % executors;
  const int node = executor % std::max(1, options_.topology.num_nodes);

  for (int attempt = 0; attempt < options_.max_task_attempts; ++attempt) {
    TaskContext task(stage_id, index, attempt, executor, node, options_.seed);
    TraceSpan span(Tracer::Global(), "task",
                   label + " p" + std::to_string(index) +
                       (attempt > 0 ? " a" + std::to_string(attempt) : ""),
                   {Arg("stage", stage_id), Arg("partition", index),
                    Arg("attempt", attempt), Arg("executor", executor),
                    Arg("node", node)});
    if (faults_ != nullptr && faults_->ShouldFailTask(stage_id, index)) {
      metrics_.RecordFailure(stage_id);
      span.AddEndArg(Arg("outcome", "injected_failure"));
      SS_LOG(kDebug, "engine") << "injected failure: stage " << stage_id
                               << " partition " << index << " attempt "
                               << attempt;
      continue;
    }
    const bool profiling = ProfilingEnabled();
    TaskTimeline& timeline = task.metrics().timeline;
    if (profiling) {
      timeline.partition = index;
      const int worker = ThreadPool::CurrentWorkerIndex();
      timeline.worker = worker < 0 ? ~0u : static_cast<std::uint32_t>(worker);
      timeline.enqueue_ns = enqueue_ns;
      timeline.start_ns = ProfileNowNs();
    }
    TaskTimelineScope timeline_scope(profiling ? &timeline : nullptr);
    Stopwatch stopwatch;
    try {
      InsideTaskScope scope;
      task_fn(task);
    } catch (const TaskFailure& failure) {
      metrics_.RecordFailure(stage_id);
      span.AddEndArg(Arg("outcome", "failed"));
      span.AddEndArg(Arg("error", failure.what()));
      SS_LOG(kWarn, "engine")
          << "task failed (stage " << stage_id << ", partition " << index
          << ", attempt " << attempt << "): " << failure.what();
      if (attempt + 1 == options_.max_task_attempts) throw;
      continue;
    }
    task.metrics().compute_seconds = stopwatch.ElapsedSeconds();
    task.metrics().attempt = attempt;
    if (after_task != nullptr) {
      // Issue the next prefetch from inside the attempt's timeline so the
      // (tiny) cost of keeping the window full is visible as `prefetch`.
      PhaseTimer prefetch_phase(TaskPhase::kPrefetch);
      after_task();
    }
    if (profiling) {
      timeline.end_ns = ProfileNowNs();
      timeline.records_out = task.metrics().records_out;
      timeline.bytes = task.metrics().shuffle_read_bytes +
                       task.metrics().shuffle_write_bytes;
      task.metrics().profiled = true;
    }
    span.AddEndArg(Arg("outcome", "ok"));
    metrics_.RecordTask(stage_id, task.metrics());
    tasks_completed_.fetch_add(1);
    if (faults_ != nullptr) faults_->OnTaskCompleted();
    return;
  }
  throw TaskFailure("task exhausted all attempts (injected failures)");
}

cluster::MakespanReport EngineContext::ReplayOn(
    const cluster::ClusterTopology& topology) const {
  cluster::VirtualScheduler scheduler(topology, options_.cost_model);
  return scheduler.Simulate(metrics_.ToJobProfile());
}

void EngineContext::FailNode(int node) {
  const int dropped = cache_.DropNode(node);
  Tracer::Global().Instant("fault", "node failure",
                           {Arg("node", node), Arg("dropped", dropped)});
  SS_LOG(kInfo, "engine") << "node " << node << " failed; " << dropped
                          << " cached partitions lost (lineage will rebuild)";
}

std::string EngineContext::RunMetricsJson() const {
  // Publish the lock-order analyzer's view of the run into the counters
  // section (all zero in release builds, where the analyzer compiles
  // out). deadlock_smoke reads these to assert a clean run's graph is
  // acyclic with no rank-order violations.
  const support::lock_order::Stats lock_stats =
      support::lock_order::GetStats();
  auto& registry = CounterRegistry::Global();
  registry.Get("lock.acquisitions")
      .store(lock_stats.acquisitions, std::memory_order_relaxed);
  registry.Get("lock.graph_nodes")
      .store(static_cast<std::uint64_t>(lock_stats.graph_nodes),
             std::memory_order_relaxed);
  registry.Get("lock.graph_edges")
      .store(static_cast<std::uint64_t>(lock_stats.graph_edges),
             std::memory_order_relaxed);
  registry.Get("lock.rank_violations")
      .store(lock_stats.rank_violations, std::memory_order_relaxed);
  registry.Get("lock.cycles")
      .store(lock_stats.acyclic ? 0 : 1, std::memory_order_relaxed);
  return ss::engine::RunMetricsJson(metrics_.stages(), cache_.stats(),
                                    metrics_.broadcast_bytes(),
                                    tasks_completed(),
                                    options_.straggler_mad_k);
}

}  // namespace ss::engine
