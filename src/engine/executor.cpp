#include "engine/executor.hpp"

#include <algorithm>

#include "engine/trace.hpp"
#include "support/log.hpp"

namespace ss::engine {

namespace {

std::atomic<std::uint64_t>& ExecCounter(const char* name) {
  return CounterRegistry::Global().Get(name);
}

}  // namespace

AsyncExecutor::AsyncExecutor(ExecConfig config)
    : config_(config),
      queue_(support::lock_rank::kExecQueue,
             std::max<std::size_t>(1, config.queue_bound)) {
  const int threads = std::max(1, config_.io_threads);
  io_workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    io_workers_.emplace_back([this, i]() { IoLoop(i); });
  }
  SS_LOG(kDebug, "engine") << "io lane up: " << threads
                           << " threads, queue bound " << config_.queue_bound
                           << ", prefetch depth " << config_.prefetch_depth;
}

AsyncExecutor::~AsyncExecutor() {
  queue_.Close();
  // Workers drain the residue (Pop returns queued jobs after Close) before
  // exiting, so every accepted job runs.
  for (std::thread& worker : io_workers_) worker.join();
}

bool AsyncExecutor::Enqueue(std::function<void()> job) {
  static std::atomic<std::uint64_t>& backpressure =
      ExecCounter("exec.backpressure_waits");
  {
    support::MutexLock lock(state_mutex_);
    ++pending_;
  }
  // Probe first so a blocked (backpressured) enqueue is observable.
  if (!queue_.TryPush(job)) {
    backpressure.fetch_add(1, std::memory_order_relaxed);
    if (!queue_.Push(std::move(job))) {
      support::MutexLock lock(state_mutex_);
      --pending_;
      return false;  // shut down; caller runs the job inline
    }
  }
  return true;
}

bool AsyncExecutor::TryEnqueue(std::function<void()> job) {
  {
    support::MutexLock lock(state_mutex_);
    ++pending_;
  }
  if (queue_.TryPush(std::move(job))) return true;
  support::MutexLock lock(state_mutex_);
  --pending_;
  return false;
}

void AsyncExecutor::Drain() {
  support::UniqueLock lock(state_mutex_);
  idle_cv_.wait(lock, [this]() SS_REQUIRES(state_mutex_) {
    return pending_ == 0;
  });
}

std::uint64_t AsyncExecutor::pending() const {
  support::MutexLock lock(state_mutex_);
  return pending_;
}

void AsyncExecutor::IoLoop(int worker_index) {
  static std::atomic<std::uint64_t>& io_jobs = ExecCounter("exec.io_jobs");
  (void)worker_index;
  while (std::optional<std::function<void()>> job = queue_.Pop()) {
    (*job)();
    io_jobs.fetch_add(1, std::memory_order_relaxed);
    {
      support::MutexLock lock(state_mutex_);
      --pending_;
    }
    idle_cv_.notify_all();
  }
}

}  // namespace ss::engine
