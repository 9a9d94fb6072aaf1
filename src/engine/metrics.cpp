#include "engine/metrics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "engine/profile.hpp"
#include "engine/trace.hpp"
#include "support/status.hpp"
#include "support/table.hpp"

namespace ss::engine {

std::uint64_t MetricsRecorder::BeginStage(const std::string& label,
                                          std::uint32_t num_tasks) {
  static std::atomic<std::uint64_t>& stages_counter =
      CounterRegistry::Global().Get("engine.stages");
  stages_counter.fetch_add(1, std::memory_order_relaxed);
  support::MutexLock lock(mutex_);
  StageMetrics stage;
  stage.stage_id = next_stage_id_++;
  stage.label = label;
  stage.begin_ns = ProfileNowNs();
  stage.task_seconds.reserve(num_tasks);
  stages_.push_back(std::move(stage));
  return stages_.back().stage_id;
}

namespace {

StageMetrics* FindStage(std::vector<StageMetrics>& stages, std::uint64_t id) {
  for (auto it = stages.rbegin(); it != stages.rend(); ++it) {
    if (it->stage_id == id) return &*it;
  }
  return nullptr;
}

}  // namespace

void MetricsRecorder::RecordTask(std::uint64_t stage_id,
                                 const TaskMetrics& metrics) {
  static std::atomic<std::uint64_t>& tasks_counter =
      CounterRegistry::Global().Get("engine.tasks.completed");
  static std::atomic<std::uint64_t>& shuffle_read =
      CounterRegistry::Global().Get("engine.shuffle.read_bytes");
  static std::atomic<std::uint64_t>& shuffle_write =
      CounterRegistry::Global().Get("engine.shuffle.write_bytes");
  tasks_counter.fetch_add(1, std::memory_order_relaxed);
  shuffle_read.fetch_add(metrics.shuffle_read_bytes, std::memory_order_relaxed);
  shuffle_write.fetch_add(metrics.shuffle_write_bytes,
                          std::memory_order_relaxed);
  support::MutexLock lock(mutex_);
  StageMetrics* stage = FindStage(stages_, stage_id);
  SS_CHECK(stage != nullptr);
  stage->task_seconds.push_back(metrics.compute_seconds);
  stage->shuffle_read_bytes += metrics.shuffle_read_bytes;
  stage->shuffle_write_bytes += metrics.shuffle_write_bytes;
  stage->records_out += metrics.records_out;
  if (metrics.profiled) stage->timelines.push_back(metrics.timeline);
}

void MetricsRecorder::EndStage(std::uint64_t stage_id,
                               std::uint64_t queue_peak) {
  support::MutexLock lock(mutex_);
  StageMetrics* stage = FindStage(stages_, stage_id);
  SS_CHECK(stage != nullptr);
  stage->end_ns = ProfileNowNs();
  stage->queue_peak = queue_peak;
}

void MetricsRecorder::RecordFailure(std::uint64_t stage_id) {
  static std::atomic<std::uint64_t>& failures_counter =
      CounterRegistry::Global().Get("engine.tasks.failed_attempts");
  failures_counter.fetch_add(1, std::memory_order_relaxed);
  support::MutexLock lock(mutex_);
  StageMetrics* stage = FindStage(stages_, stage_id);
  SS_CHECK(stage != nullptr);
  ++stage->failed_attempts;
}

void MetricsRecorder::RecordBroadcast(std::uint64_t bytes) {
  static std::atomic<std::uint64_t>& broadcast_count =
      CounterRegistry::Global().Get("broadcast.count");
  static std::atomic<std::uint64_t>& broadcast_bytes =
      CounterRegistry::Global().Get("broadcast.bytes");
  broadcast_count.fetch_add(1, std::memory_order_relaxed);
  broadcast_bytes.fetch_add(bytes, std::memory_order_relaxed);
  support::MutexLock lock(mutex_);
  broadcast_bytes_ += bytes;
}

std::vector<StageMetrics> MetricsRecorder::stages() const {
  support::MutexLock lock(mutex_);
  return stages_;
}

std::uint64_t MetricsRecorder::broadcast_bytes() const {
  support::MutexLock lock(mutex_);
  return broadcast_bytes_;
}

cluster::JobProfile MetricsRecorder::ToJobProfile() const {
  support::MutexLock lock(mutex_);
  cluster::JobProfile job;
  job.stages.reserve(stages_.size());
  for (const StageMetrics& stage : stages_) {
    cluster::StageProfile profile;
    profile.task_compute_s = stage.task_seconds;
    profile.shuffle_read_bytes = stage.shuffle_read_bytes;
    profile.shuffle_write_bytes = stage.shuffle_write_bytes;
    job.stages.push_back(std::move(profile));
  }
  return job;
}

void MetricsRecorder::Reset() {
  support::MutexLock lock(mutex_);
  stages_.clear();
  broadcast_bytes_ = 0;
}

std::string FormatStageReport(const std::vector<StageMetrics>& stages) {
  Table table("Stages", {"id", "label", "tasks", "total task s", "max task s",
                         "records out", "shuffle R/W bytes", "failed"});
  for (const StageMetrics& stage : stages) {
    double total = 0.0;
    double longest = 0.0;
    for (double seconds : stage.task_seconds) {
      total += seconds;
      longest = std::max(longest, seconds);
    }
    table.AddRow({std::to_string(stage.stage_id), stage.label,
                  std::to_string(stage.task_seconds.size()),
                  Table::Num(total, 4), Table::Num(longest, 4),
                  std::to_string(stage.records_out),
                  std::to_string(stage.shuffle_read_bytes) + "/" +
                      std::to_string(stage.shuffle_write_bytes),
                  std::to_string(stage.failed_attempts)});
  }
  return table.ToString();
}

std::string FormatRunReport(const std::vector<StageMetrics>& stages,
                            const CacheStats& cache,
                            std::uint64_t broadcast_bytes) {
  std::uint64_t shuffle_read = 0;
  std::uint64_t shuffle_write = 0;
  for (const StageMetrics& stage : stages) {
    shuffle_read += stage.shuffle_read_bytes;
    shuffle_write += stage.shuffle_write_bytes;
  }
  const std::uint64_t lookups = cache.hits + cache.misses;
  const double hit_rate =
      lookups == 0 ? 0.0
                   : 100.0 * static_cast<double>(cache.hits) /
                         static_cast<double>(lookups);
  char line[256];
  std::string out = FormatStageReport(stages);
  std::snprintf(line, sizeof(line),
                "cache: %llu hits / %llu misses (%.1f%% hit rate), "
                "%llu insertions, %llu evictions, %llu dropped by failure, "
                "%llu bytes resident\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses), hit_rate,
                static_cast<unsigned long long>(cache.insertions),
                static_cast<unsigned long long>(cache.evictions),
                static_cast<unsigned long long>(cache.dropped_by_failure),
                static_cast<unsigned long long>(cache.bytes_cached));
  out += line;
  std::snprintf(line, sizeof(line),
                "traffic: %llu broadcast bytes, %llu/%llu shuffle R/W bytes\n",
                static_cast<unsigned long long>(broadcast_bytes),
                static_cast<unsigned long long>(shuffle_read),
                static_cast<unsigned long long>(shuffle_write));
  out += line;
  return out;
}

namespace {

/// Upper edges (seconds) of the task-time histogram; the final bucket is
/// the implicit +inf overflow, so counts has one more entry than edges.
constexpr std::array<double, 7> kHistEdges = {1e-5, 1e-4, 1e-3, 1e-2,
                                              0.1,  1.0,  10.0};

void AppendNum(std::string* out, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  *out += buffer;
}

/// q-th quantile of an ascending-sorted sample (nearest-rank).
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void AppendStageJson(std::string* out, const StageMetrics& stage) {
  std::vector<double> sorted = stage.task_seconds;
  std::sort(sorted.begin(), sorted.end());
  double total = 0.0;
  for (double seconds : sorted) total += seconds;
  std::array<std::uint64_t, kHistEdges.size() + 1> counts{};
  for (double seconds : sorted) {
    std::size_t bucket = 0;
    while (bucket < kHistEdges.size() && seconds > kHistEdges[bucket]) {
      ++bucket;
    }
    ++counts[bucket];
  }

  *out += "{\"id\":" + std::to_string(stage.stage_id);
  *out += ",\"label\":\"" + JsonEscape(stage.label) + "\"";
  *out += ",\"tasks\":" + std::to_string(sorted.size());
  *out += ",\"failed_attempts\":" + std::to_string(stage.failed_attempts);
  *out += ",\"records_out\":" + std::to_string(stage.records_out);
  *out += ",\"shuffle_read_bytes\":" + std::to_string(stage.shuffle_read_bytes);
  *out +=
      ",\"shuffle_write_bytes\":" + std::to_string(stage.shuffle_write_bytes);
  *out += ",\"task_seconds\":{\"total\":";
  AppendNum(out, total);
  *out += ",\"min\":";
  AppendNum(out, sorted.empty() ? 0.0 : sorted.front());
  *out += ",\"mean\":";
  AppendNum(out, sorted.empty() ? 0.0
                                : total / static_cast<double>(sorted.size()));
  *out += ",\"p50\":";
  AppendNum(out, Quantile(sorted, 0.50));
  *out += ",\"p90\":";
  AppendNum(out, Quantile(sorted, 0.90));
  *out += ",\"p99\":";
  AppendNum(out, Quantile(sorted, 0.99));
  *out += ",\"max\":";
  AppendNum(out, sorted.empty() ? 0.0 : sorted.back());
  *out += "},\"task_seconds_hist\":{\"le\":[";
  for (std::size_t i = 0; i < kHistEdges.size(); ++i) {
    if (i != 0) *out += ",";
    AppendNum(out, kHistEdges[i]);
  }
  *out += "],\"counts\":[";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i != 0) *out += ",";
    *out += std::to_string(counts[i]);
  }
  *out += "]}}";
}

}  // namespace

std::string RunMetricsJson(const std::vector<StageMetrics>& stages,
                           const CacheStats& cache,
                           std::uint64_t broadcast_bytes,
                           std::uint64_t tasks_completed) {
  std::uint64_t total_tasks = 0;
  std::uint64_t total_failures = 0;
  std::uint64_t shuffle_read = 0;
  std::uint64_t shuffle_write = 0;
  double total_task_seconds = 0.0;
  for (const StageMetrics& stage : stages) {
    total_tasks += stage.task_seconds.size();
    total_failures += static_cast<std::uint64_t>(stage.failed_attempts);
    shuffle_read += stage.shuffle_read_bytes;
    shuffle_write += stage.shuffle_write_bytes;
    for (double seconds : stage.task_seconds) total_task_seconds += seconds;
  }

  std::string out = "{\"schema\":\"sparkscore-run-metrics-v4\"";
  out += ",\"tasks_completed\":" + std::to_string(tasks_completed);
  out += ",\"totals\":{\"stages\":" + std::to_string(stages.size());
  out += ",\"tasks\":" + std::to_string(total_tasks);
  out += ",\"failed_attempts\":" + std::to_string(total_failures);
  out += ",\"shuffle_read_bytes\":" + std::to_string(shuffle_read);
  out += ",\"shuffle_write_bytes\":" + std::to_string(shuffle_write);
  out += ",\"task_seconds\":";
  AppendNum(&out, total_task_seconds);
  out += "},\"stages\":[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i != 0) out += ",";
    out += "\n";
    AppendStageJson(&out, stages[i]);
  }
  out += "]";
  out += ",\"cache\":{\"hits\":" + std::to_string(cache.hits);
  out += ",\"misses\":" + std::to_string(cache.misses);
  out += ",\"insertions\":" + std::to_string(cache.insertions);
  out += ",\"evictions\":" + std::to_string(cache.evictions);
  out += ",\"dropped_by_failure\":" + std::to_string(cache.dropped_by_failure);
  out += ",\"bytes_cached\":" + std::to_string(cache.bytes_cached) + "}";
  out += ",\"broadcast_bytes\":" + std::to_string(broadcast_bytes);
  // Kernel gauge section, read from the process-global registry. The
  // numeric level is stamped by the stats kernel layer; the name map is
  // duplicated here because ss_engine cannot depend on ss_stats.
  {
    auto& registry = CounterRegistry::Global();
    const std::uint64_t dispatch =
        registry.Get("kernel.dispatch").load(std::memory_order_relaxed);
    const char* dispatch_name = dispatch == 0   ? "scalar"
                                : dispatch == 2 ? "avx2"
                                                : "unknown";
    out += ",\"kernel\":{\"dispatch\":" + std::to_string(dispatch);
    out += ",\"dispatch_name\":\"" + std::string(dispatch_name) + "\"";
    out += ",\"packed_bytes\":" +
           std::to_string(registry.Get("genotype.packed_bytes")
                              .load(std::memory_order_relaxed));
    out += ",\"unpacked_bytes\":" +
           std::to_string(registry.Get("genotype.unpacked_bytes")
                              .load(std::memory_order_relaxed)) +
           "}";
  }
  // Adaptive p-value engine section (core/resampling_methods.*): all
  // zeros for legacy pure-resampling runs, but the keys are always
  // present (appended, never reordered — metrics_schema_test pins this).
  {
    auto& registry = CounterRegistry::Global();
    const auto counter = [&registry](const char* name) {
      return std::to_string(registry.Get(name).load(std::memory_order_relaxed));
    };
    out += ",\"pvalue\":{\"analytic_screens\":" +
           counter("pvalue.analytic_screens");
    out += ",\"refined_sets\":" + counter("pvalue.refined_sets");
    out += ",\"early_stops\":" + counter("pvalue.early_stops");
    out += ",\"replicates_saved\":" + counter("pvalue.replicates_saved") + "}";
  }
  // Genotype-store section (dfs/genotype_store.*): all zeros when the run
  // never touched a store; the keys are always present.
  {
    auto& registry = CounterRegistry::Global();
    const auto counter = [&registry](const char* name) {
      return std::to_string(registry.Get(name).load(std::memory_order_relaxed));
    };
    out += ",\"store\":{\"opens\":" + counter("store.opens");
    out += ",\"frame_reads\":" + counter("store.frame_reads");
    out += ",\"read_bytes\":" + counter("store.read_bytes");
    out += ",\"frame_writes\":" + counter("store.frame_writes");
    out += ",\"write_bytes\":" + counter("store.write_bytes");
    out += ",\"corrupt\":" + counter("store.corrupt") + "}";
  }
  out += ",";
  AppendTimelineJson(&out, BuildRunProfile(stages));
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : CounterRegistry::Global().Snapshot()) {
    if (!first) out += ",";
    first = false;
    out += '"';
    out += JsonEscape(name);
    out += "\":";
    out += std::to_string(value);
  }
  out += "}}\n";
  return out;
}

}  // namespace ss::engine
