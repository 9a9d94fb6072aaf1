// The engine's I/O lane: a small dedicated thread group that overlaps
// I/O with kernel execution.
//
// Stage workers (the ThreadPool) own compute; the AsyncExecutor owns the
// work that used to serialize against it — fetching store-backed
// partitions ahead of the task that will need them (prefetch), and
// generating the next batch's Monte Carlo Z-block while the current one
// scores. Jobs flow through a bounded support::Channel, so a producer that
// outruns the lane blocks (backpressure) instead of queueing unbounded
// memory.
//
// Two enqueue disciplines, matching the two kinds of work:
//   * Enqueue  — must-run jobs (Submit's Z-blocks): blocks when the queue
//     is full; false only if the executor is shut down, in which case the
//     caller owns running the job inline.
//   * TryEnqueue — advisory jobs (prefetch): dropped when the queue is
//     full, because a prefetch that cannot start before its consumer is
//     pure overhead. Results never depend on a prefetch happening.
//
// Determinism: the lane only *moves* work off the critical path — every
// job either duplicates a pure computation (Z-block) or performs a read
// the consumer would otherwise do itself. Scheduling changes, fold order
// never does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/channel.hpp"
#include "support/check.hpp"
#include "support/ranked_mutex.hpp"

namespace ss::engine {

/// Executor knobs; set on EngineContext::Options::exec (or applied
/// between stages with EngineContext::ApplyExecConfig) and surfaced as
/// the `prefetch=`/`io_threads=` CLI/bench keys.
struct ExecConfig {
  /// Partitions fetched ahead of the stage's compute frontier.
  /// 0 ablates the whole async path: stages run the legacy synchronous
  /// ParallelFor loop and nothing is enqueued on the I/O lane.
  int prefetch_depth = 1;

  /// Threads servicing the I/O lane (min 1 when the lane is active).
  int io_threads = 1;

  /// Bound of the job queue; producers block (Enqueue) or drop
  /// (TryEnqueue) beyond it.
  std::size_t queue_bound = 8;

  bool enabled() const { return prefetch_depth > 0; }
};

class AsyncExecutor {
 public:
  explicit AsyncExecutor(ExecConfig config);

  /// Closes the queue, runs every already-accepted job to completion,
  /// then joins. Must not race Enqueue.
  ~AsyncExecutor();

  AsyncExecutor(const AsyncExecutor&) = delete;
  AsyncExecutor& operator=(const AsyncExecutor&) = delete;

  const ExecConfig& config() const { return config_; }

  /// Must-run job; blocks on backpressure (counted) while the queue is
  /// full. Returns false — job NOT run, caller must run it inline — only
  /// after shutdown started.
  bool Enqueue(std::function<void()> job);

  /// Advisory job; dropped (returns false) when the queue is full or the
  /// executor is shut down.
  bool TryEnqueue(std::function<void()> job);

  /// Enqueues `fn` and returns a future for its result — the Z-block
  /// double-buffer hook. Falls back to running inline (still satisfying
  /// the future) under shutdown, so callers never need a second path.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    if (!Enqueue([task]() { (*task)(); })) (*task)();
    return future;
  }

  /// Blocks until every accepted job has finished. Used before writing
  /// run artifacts (no prefetch span left open) and by tests; NOT needed
  /// at stage boundaries — jobs are self-contained.
  void Drain();

  /// Jobs accepted but not yet finished.
  std::uint64_t pending() const;

 private:
  void IoLoop(int worker_index);

  const ExecConfig config_;
  support::Channel<std::function<void()>> queue_;
  mutable support::RankedMutex state_mutex_{support::lock_rank::kExecState};
  std::condition_variable_any idle_cv_;
  std::uint64_t pending_ SS_GUARDED_BY(state_mutex_) = 0;
  std::vector<std::thread> io_workers_;
};

}  // namespace ss::engine
