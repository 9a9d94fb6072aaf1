// Stage/job metrics collection.
//
// Every job run through the EngineContext appends one StageMetrics per
// stage (the reduce stage of a shuffle and its map stage are distinct
// stages, as in Spark's DAG). The recorder converts the collected metrics
// into a cluster::JobProfile so the VirtualScheduler can replay the same
// work onto an arbitrary simulated topology — this is how the scaling
// benches (Figs 6-7) are produced on a single physical machine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/virtual_scheduler.hpp"
#include "engine/cache_manager.hpp"
#include "engine/task.hpp"
#include "support/check.hpp"
#include "support/ranked_mutex.hpp"

namespace ss::engine {

/// Aggregated metrics of one stage.
struct StageMetrics {
  std::uint64_t stage_id = 0;
  std::string label;
  std::vector<double> task_seconds;  ///< Final (successful) attempt each.
  std::uint64_t shuffle_read_bytes = 0;
  std::uint64_t shuffle_write_bytes = 0;
  std::uint64_t records_out = 0;
  int failed_attempts = 0;

  /// Timeline profiling (profile.hpp). begin/end are driver-side stage
  /// submission/completion on the steady clock; queue_peak is the pool's
  /// pending-queue high-watermark while the stage ran; timelines holds the
  /// final-attempt phase timeline of each task (empty when profiling off).
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t queue_peak = 0;
  std::vector<TaskTimeline> timelines;
};

class MetricsRecorder {
 public:
  /// Opens a new stage; returns its id. Stamps the stage's begin
  /// timestamp (steady clock). Thread-safe.
  std::uint64_t BeginStage(const std::string& label, std::uint32_t num_tasks);

  /// Closes a stage: stamps its end timestamp and records the pool's
  /// queue-depth high-watermark observed while the stage ran.
  void EndStage(std::uint64_t stage_id, std::uint64_t queue_peak);

  /// Records one successful task attempt's metrics (including its phase
  /// timeline when `metrics.profiled`).
  void RecordTask(std::uint64_t stage_id, const TaskMetrics& metrics);

  /// Counts a failed attempt (for retry accounting).
  void RecordFailure(std::uint64_t stage_id);

  /// Adds broadcast traffic (driver -> every executor once).
  void RecordBroadcast(std::uint64_t bytes);

  /// Stages recorded since construction or the last Reset.
  std::vector<StageMetrics> stages() const;
  std::uint64_t broadcast_bytes() const;

  /// Converts recorded stages into a replayable job profile.
  cluster::JobProfile ToJobProfile() const;

  /// Clears all recorded stages (benches call this between configurations).
  void Reset();

 private:
  mutable support::RankedMutex mutex_{support::lock_rank::kMetrics};
  std::vector<StageMetrics> stages_ SS_GUARDED_BY(mutex_);
  std::uint64_t next_stage_id_ SS_GUARDED_BY(mutex_) = 1;
  std::uint64_t broadcast_bytes_ SS_GUARDED_BY(mutex_) = 0;
};

/// Renders recorded stages as an ASCII table (the engine's equivalent of
/// the Spark UI's stage list): id, label, tasks, total/max task seconds,
/// shuffle volumes, failed attempts.
std::string FormatStageReport(const std::vector<StageMetrics>& stages);

/// FormatStageReport plus the storage/traffic summary the stage table
/// alone hides: cache hit/miss/eviction counts and broadcast bytes next
/// to the total shuffle volumes.
std::string FormatRunReport(const std::vector<StageMetrics>& stages,
                            const CacheStats& cache,
                            std::uint64_t broadcast_bytes);

/// Machine-readable run summary (schema "sparkscore-run-metrics-v4"):
/// per-stage task-time stats and log-bucket histograms, shuffle volumes,
/// retry counts, cache hit/miss, broadcast bytes, the task-timeline
/// profile (critical path, per-stage phase breakdown, worker utilization,
/// skew/straggler stats — see profile.hpp), and a dump of the
/// process-global CounterRegistry. v2 added the `timeline` section; v3
/// dropped the spill keys of the `cache` section along with the spill
/// tier; v4 dropped `store.prefetch_frames` along with the I/O lane.
/// `straggler_mad_k` is the MAD multiple above the
/// median task time at which a task is flagged as a straggler. Field
/// reference in docs/OBSERVABILITY.md; validated by tools/check_trace.py.
std::string RunMetricsJson(const std::vector<StageMetrics>& stages,
                           const CacheStats& cache,
                           std::uint64_t broadcast_bytes,
                           std::uint64_t tasks_completed,
                           double straggler_mad_k = 3.0);

}  // namespace ss::engine
