// Per-task execution context and metrics.
//
// A task is the unit the scheduler retries and accounts: the computation of
// one partition of one dataset within one stage. Narrow dependencies are
// pipelined inside a task (computing a MapNode partition pulls its parent's
// partition in the same call stack), exactly like Spark.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "support/rng.hpp"

namespace ss::engine {

/// Lifecycle phases of one task attempt, recorded by the timeline
/// profiler (see profile.hpp). kQueueWait and kCompute are derived:
/// queue-wait is the span from stage submission to the attempt starting
/// on a worker, and compute is the attempt's wall time minus every
/// explicitly timed sub-phase — so the phases of a task always sum to
/// its total by construction.
enum class TaskPhase : std::uint8_t {
  kQueueWait = 0,   ///< Stage submitted -> attempt starts on a worker.
  kFetch = 1,       ///< Input fetch: DFS block read, shuffle bucket read.
  kDecode = 2,      ///< Packed-genotype unpack.
  kCompute = 3,     ///< Kernel/closure execution (the unattributed rest).
  kSpillWrite = 4,  ///< Unused (no spill tier); kept only so perfbench/ compiles.
  kHandoff = 5,     ///< Result copy-out to the driver's stage buffer.
  kPrefetch = 6,    ///< Issuing prefetch jobs to the I/O lane.
  kIoWait = 7,      ///< Blocked on an in-flight I/O-lane store fetch.
};

inline constexpr std::size_t kNumTaskPhases = 8;

/// Lowercase stable identifier used in the metrics JSON and trace.
const char* TaskPhaseName(TaskPhase phase);

/// One explicitly timed sub-phase of a task attempt. Timestamps are raw
/// steady-clock nanoseconds (same clock as TaskTimeline's). Consecutive
/// bursts of the same phase (e.g. per-record packed-genotype decode) are
/// coalesced into one span whose `end_ns - begin_ns` is the exact
/// accumulated duration — so for a coalesced span only `begin_ns` is a
/// real timestamp; the Chrome trace keeps the individual bursts.
struct PhaseSpan {
  TaskPhase phase = TaskPhase::kCompute;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

/// Full lifecycle record of one (final, successful) task attempt.
/// Collected only while profiling is enabled (profile.hpp); flows
/// through TaskMetrics into StageMetrics and the run-metrics timeline.
struct TaskTimeline {
  std::uint32_t partition = 0;
  std::uint32_t worker = 0;      ///< Physical pool worker (driver = ~0u).
  std::int64_t enqueue_ns = 0;   ///< Stage submission (steady clock).
  std::int64_t start_ns = 0;     ///< Attempt began on the worker.
  std::int64_t end_ns = 0;       ///< Attempt finished.
  std::uint64_t records_out = 0;
  std::uint64_t bytes = 0;       ///< Shuffle R+W bytes moved by the task.
  std::vector<PhaseSpan> phases; ///< Explicit sub-phases (fetch/decode/...).
};

/// What one task attempt did; aggregated into StageMetrics.
struct TaskMetrics {
  double compute_seconds = 0.0;       ///< Wall time of the attempt.
  std::uint64_t records_out = 0;      ///< Records in the produced partition.
  std::uint64_t shuffle_write_bytes = 0;
  std::uint64_t shuffle_read_bytes = 0;
  int attempt = 0;                    ///< 0 for first attempt.
  bool profiled = false;              ///< True when `timeline` was collected.
  TaskTimeline timeline;              ///< Phase timeline (profiling only).
};

/// Handed to every task; identifies it and provides per-task randomness.
class TaskContext {
 public:
  TaskContext(std::uint64_t stage_id, std::uint32_t partition, int attempt,
              int executor, int node, std::uint64_t job_seed)
      : stage_id_(stage_id),
        partition_(partition),
        attempt_(attempt),
        executor_(executor),
        node_(node),
        job_seed_(job_seed) {}

  std::uint64_t stage_id() const { return stage_id_; }
  std::uint32_t partition() const { return partition_; }
  int attempt() const { return attempt_; }
  int executor() const { return executor_; }
  int node() const { return node_; }

  /// Deterministic per-(stage, partition, salt) generator — independent of
  /// the attempt number so a retried task reproduces the same randomness,
  /// and independent of scheduling order across partitions.
  Rng MakeRng(std::uint64_t salt = 0) const {
    Rng base(job_seed_);
    return base.Split(stage_id_ * 0x1000003ULL + partition_)
        .Split(salt + 1);
  }

  TaskMetrics& metrics() { return metrics_; }
  const TaskMetrics& metrics() const { return metrics_; }

 private:
  std::uint64_t stage_id_;
  std::uint32_t partition_;
  int attempt_;
  int executor_;
  int node_;
  std::uint64_t job_seed_;
  TaskMetrics metrics_;
};

/// Exception type used for injected/task-internal failures the scheduler
/// should retry.
class TaskFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace ss::engine
