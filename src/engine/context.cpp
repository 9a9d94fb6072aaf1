#include "engine/context.hpp"

#include <algorithm>
#include <thread>

#include "engine/profile.hpp"
#include "engine/trace.hpp"
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
    const std::function<void(TaskContext&)>& task_fn) {
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
  pool_->ParallelFor(0, num_tasks, [&](std::size_t index) {
    RunOneTask(stage_id, static_cast<std::uint32_t>(index), enqueue_ns, label,
               task_fn);
  });
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

void EngineContext::RunOneTask(
    std::uint64_t stage_id, std::uint32_t index, std::int64_t enqueue_ns,
    const std::string& label,
    const std::function<void(TaskContext&)>& task_fn) {
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
                                    tasks_completed());
}

}  // namespace ss::engine
