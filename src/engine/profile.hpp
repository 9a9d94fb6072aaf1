// Task-timeline profiler: phase collection hooks + run analysis.
//
// Collection side: EngineContext binds the executing attempt's
// TaskTimeline to a thread-local slot (TaskTimelineScope); instrumented
// layers — the cache manager's store fetch and wait, the DFS/shuffle input
// readers, the packed-genotype decode in the pipeline — open a PhaseTimer
// around the work. When profiling is off (SetProfilingEnabled(false)) or
// no task is bound, a PhaseTimer is a single thread-local load; results
// are bitwise identical either way because the profiler only reads
// clocks, never touches data. Phase timers never nest: an inner timer
// while another phase is open attributes its time to the outer phase, so
// per-task phase spans are disjoint by construction and the accounting
// invariant (phases sum to the task total) holds exactly.
//
// Analysis side: BuildRunProfile turns the recorded per-stage timelines
// into the run's critical path (the chain of stage-binding tasks that
// bounds wall-clock), per-worker utilization and idle-gap inventory, and
// per-stage skew stats (p50/p95/max, records per partition, stragglers
// at a configurable MAD threshold). FormatProfileReport renders it for
// humans; AppendTimelineJson emits the `timeline` section of the
// sparkscore-run-metrics-v3 document (validated by tools/check_trace.py
// and reconciled offline by tools/ss_prof.py).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/metrics.hpp"
#include "engine/task.hpp"

namespace ss::engine {

/// Steady-clock nanoseconds — the one clock every timeline timestamp
/// (stage begin/end, task enqueue/start/end, phase spans) is drawn from.
std::int64_t ProfileNowNs();

/// Process-wide master switch for timeline collection. Defaults to ON
/// (the collection cost is a handful of clock reads per task); `profile=0`
/// in the CLI/benches turns it off to prove the ablation is free.
void SetProfilingEnabled(bool enabled);
bool ProfilingEnabled();

/// The timeline of the task attempt executing on this thread, or nullptr
/// when none is bound (driver code, profiling disabled).
TaskTimeline* ActiveTaskTimeline();

/// RAII binding of a task attempt's timeline to this thread for the
/// duration of the task body. Null `timeline` is a no-op binding.
class TaskTimelineScope {
 public:
  explicit TaskTimelineScope(TaskTimeline* timeline);
  ~TaskTimelineScope();

  TaskTimelineScope(const TaskTimelineScope&) = delete;
  TaskTimelineScope& operator=(const TaskTimelineScope&) = delete;

 private:
  TaskTimeline* previous_;
};

/// RAII phase span: appends [construction, destruction) to the bound
/// timeline under `phase`, and mirrors it as a nested Chrome-trace span
/// (category "phase") when the tracer is enabled. Inert when no timeline
/// is bound or another phase is already open on this thread. Consecutive
/// spans of the same phase coalesce (exact total duration, one entry);
/// pass `trace = false` at per-record call sites so a hot loop does not
/// flood the Chrome trace with thousands of micro-spans.
class PhaseTimer {
 public:
  explicit PhaseTimer(TaskPhase phase, bool trace = true);
  ~PhaseTimer();

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  TaskTimeline* timeline_;  ///< nullptr when inert.
  TaskPhase phase_;
  std::int64_t begin_ns_ = 0;
  bool traced_ = false;
};

/// Per-phase wall seconds of one task attempt: explicit spans, plus the
/// derived queue-wait ([enqueue, start]) and compute (total minus every
/// explicit span) entries. Entries sum to queue_wait + (end - start).
std::array<double, kNumTaskPhases> PhaseSecondsOf(const TaskTimeline& t);

/// Analysis of one stage's timelines.
struct StageTimingStats {
  std::uint64_t stage_id = 0;
  std::string label;
  std::size_t tasks = 0;
  double stage_seconds = 0.0;  ///< BeginStage -> EndStage on the driver.
  std::uint64_t queue_peak = 0;  ///< Pool queue depth high-watermark.

  /// Summed across the stage's tasks, indexed by TaskPhase.
  std::array<double, kNumTaskPhases> phase_seconds{};

  /// Task wall-time (start->end) distribution.
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double max_seconds = 0.0;
  double mad_seconds = 0.0;  ///< Median absolute deviation from the median.

  /// Stragglers: tasks slower than median + k * MAD (k = straggler_mad_k
  /// of the profile; flagged only when the stage has >= 4 tasks).
  double straggler_threshold_seconds = 0.0;
  std::vector<std::uint32_t> straggler_partitions;

  /// Records/bytes skew across partitions.
  std::uint64_t records_total = 0;
  std::uint64_t records_max = 0;
  double records_mean = 0.0;
  std::uint64_t bytes_total = 0;
  std::uint64_t bytes_max = 0;

  /// The task bounding this stage's makespan (latest end timestamp).
  std::uint32_t critical_partition = 0;
  double critical_seconds = 0.0;  ///< Stage begin -> critical task end.
  std::array<double, kNumTaskPhases> critical_phase_seconds{};
};

/// Per-worker occupancy over the run.
struct WorkerStats {
  std::uint32_t worker = 0;
  std::size_t tasks = 0;
  double busy_seconds = 0.0;  ///< Sum of task start->end spans.
  double utilization = 0.0;   ///< busy / run wall span.
  /// Idle gaps between consecutive tasks (and before the first / after
  /// the last, measured against the run span) longer than 1 microsecond.
  std::size_t idle_gaps = 0;
  double idle_total_seconds = 0.0;
  double idle_max_seconds = 0.0;
};

/// The full run analysis.
struct RunProfile {
  bool collected = false;  ///< Any timelines present (profiling was on).
  double wall_seconds = 0.0;  ///< First stage begin -> last task end.
  double straggler_mad_k = 3.0;
  std::vector<StageTimingStats> stages;
  std::vector<WorkerStats> workers;

  /// Stage-DAG critical path. Stages execute sequentially from the
  /// driver, so the path is the per-stage critical task chain; its total
  /// is <= wall_seconds (driver-side gaps between stages are the rest).
  struct CriticalSpan {
    std::uint64_t stage_id = 0;
    std::uint32_t partition = 0;
    double seconds = 0.0;
  };
  std::vector<CriticalSpan> critical_path;
  double critical_path_seconds = 0.0;
};

/// Analyzes recorded stages (their embedded timelines) into a RunProfile.
/// `straggler_mad_k` is the MAD multiple above the median task time at
/// which a task is flagged as a straggler.
RunProfile BuildRunProfile(const std::vector<StageMetrics>& stages,
                           double straggler_mad_k = 3.0);

/// ASCII rendering: critical path, per-stage phase breakdown + skew,
/// per-worker utilization and idle inventory.
std::string FormatProfileReport(const RunProfile& profile);

/// Appends `"timeline":{...}` (no surrounding comma) to `out` — the
/// metrics-JSON section added in v2. Emitted even when profile.collected is false so
/// consumers can key on `collected`.
void AppendTimelineJson(std::string* out, const RunProfile& profile);

}  // namespace ss::engine
