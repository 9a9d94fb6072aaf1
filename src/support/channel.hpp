// Bounded multi-producer channel — the task/IO hand-off primitive behind
// the async executor (engine/executor.hpp) and channel-based stage
// dispatch (EngineContext::RunTasks).
//
// Semantics follow the classic Go/oneflow channel shape:
//   * Push blocks while the channel is at capacity (backpressure) and
//     returns false once the channel is closed — a producer can never
//     enqueue work nobody will drain.
//   * Pop blocks while the channel is empty and returns nullopt only
//     after Close() AND the queue has fully drained, so consumers exit
//     exactly once the producers are done.
//   * Close() is idempotent and wakes every waiter.
//
// The lock order rank is injected by the owner (each use site has its own
// registry entry in lock_ranks.hpp — e.g. kExecChannel for stage task
// channels, kExecQueue for the I/O lane's job queue) because a channel's
// place in the acquisition order depends on who pushes while holding
// what. Waits go through support::UniqueLock + condition_variable_any so
// the lock-order analyzer tracks the unlock/relock of every wait.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "support/check.hpp"
#include "support/ranked_mutex.hpp"

namespace ss::support {

template <typename T>
class Channel {
 public:
  /// `capacity` bounds the queue (Push blocks at the bound); 0 means
  /// unbounded (Push never blocks).
  explicit Channel(LockRank rank, std::size_t capacity = 0)
      : capacity_(capacity), mutex_(rank) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Blocks while full; returns false (dropping `value`) if the channel
  /// is or becomes closed before space frees up.
  bool Push(T value) {
    {
      UniqueLock lock(mutex_);
      while (!closed_ && capacity_ != 0 && queue_.size() >= capacity_) {
        ++backpressure_waits_;
        not_full_.wait(lock, [this]() SS_REQUIRES(mutex_) {
          return closed_ || capacity_ == 0 || queue_.size() < capacity_;
        });
      }
      if (closed_) return false;
      queue_.push_back(std::move(value));
      ++pushes_;
    }
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking Push; false when full or closed.
  bool TryPush(T value) {
    {
      UniqueLock lock(mutex_);
      if (closed_ || (capacity_ != 0 && queue_.size() >= capacity_)) {
        return false;
      }
      queue_.push_back(std::move(value));
      ++pushes_;
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty; nullopt once the channel is closed and drained.
  std::optional<T> Pop() {
    std::optional<T> value;
    {
      UniqueLock lock(mutex_);
      not_empty_.wait(lock, [this]() SS_REQUIRES(mutex_) {
        return closed_ || !queue_.empty();
      });
      if (queue_.empty()) return std::nullopt;  // closed and drained
      value = std::move(queue_.front());
      queue_.pop_front();
    }
    not_full_.notify_one();
    return value;
  }

  /// Idempotent; wakes all blocked producers (they return false) and
  /// consumers (they drain the residue, then get nullopt).
  void Close() {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    MutexLock lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    MutexLock lock(mutex_);
    return queue_.size();
  }

  /// Times a Push blocked on a full channel (the backpressure the I/O
  /// lane queue's bound exists to create; mirrored into exec.* counters by the
  /// executor).
  std::uint64_t backpressure_waits() const {
    MutexLock lock(mutex_);
    return backpressure_waits_;
  }

  std::uint64_t pushes() const {
    MutexLock lock(mutex_);
    return pushes_;
  }

 private:
  const std::size_t capacity_;
  mutable RankedMutex mutex_;
  // condition_variable_any so waits go through the annotated UniqueLock
  // (and the lock-order analyzer's held stack), as in ThreadPool.
  std::condition_variable_any not_empty_;
  std::condition_variable_any not_full_;
  std::deque<T> queue_ SS_GUARDED_BY(mutex_);
  bool closed_ SS_GUARDED_BY(mutex_) = false;
  std::uint64_t backpressure_waits_ SS_GUARDED_BY(mutex_) = 0;
  std::uint64_t pushes_ SS_GUARDED_BY(mutex_) = 0;
};

}  // namespace ss::support
