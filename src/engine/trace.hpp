// Engine-wide telemetry: a low-overhead event tracer and a registry of
// named monotonic counters.
//
// The tracer records spans (begin/end pairs) and instant events into
// per-thread buffers — appends take only the owning thread's uncontended
// buffer mutex, so concurrently executing tasks never serialize on a
// shared log — and the driver drains them after a run. Events serialize
// as Chrome `trace_event` JSON, loadable in chrome://tracing or
// https://ui.perfetto.dev, which is this engine's equivalent of the
// Spark UI's event timeline.
//
// Tracing is off by default; every record call is a single relaxed
// atomic load when disabled, so instrumented hot paths (task attempts,
// cache lookups, DFS block reads) cost nothing in production runs.
// Counters, by contrast, are always on: they are plain relaxed atomic
// increments at task/partition granularity, and feed the machine-
// readable run report (see metrics.hpp and docs/OBSERVABILITY.md).
//
// This header sits below the rest of the engine on purpose: it depends
// on nothing but the standard library, so the DFS and cluster layers
// (which the engine itself links) can also emit events through the
// process-global `Tracer::Global()` without a dependency cycle.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "support/ranked_mutex.hpp"

namespace ss::engine {

/// One key/value annotation on an event. Values are kept as strings;
/// use `Arg` to build them from numbers.
using TraceArg = std::pair<std::string, std::string>;
using TraceArgs = std::vector<TraceArg>;

/// Builds a TraceArg from a string or any arithmetic value.
template <typename T>
TraceArg Arg(std::string key, T&& value) {
  if constexpr (std::is_arithmetic_v<std::decay_t<T>>) {
    return {std::move(key), std::to_string(value)};
  } else {
    return {std::move(key), std::string(std::forward<T>(value))};
  }
}

struct TraceEvent {
  /// Chrome trace_event phases: duration begin/end and instant.
  enum class Phase : char { kBegin = 'B', kEnd = 'E', kInstant = 'i' };

  Phase phase = Phase::kInstant;
  std::int64_t ts_ns = 0;      ///< Nanoseconds since the tracer's epoch.
  std::uint32_t tid = 0;       ///< Tracer-local thread id (driver first).
  std::string name;
  const char* category = "";   ///< Static string; groups timeline tracks.
  TraceArgs args;
};

class Tracer {
 public:
  Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Process-global tracer every instrumented layer records into.
  /// Never destroyed (safe to use from static teardown).
  static Tracer& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread. Must be closed by `End` on the
  /// same thread (use TraceSpan for exception safety).
  void Begin(const char* category, std::string name, TraceArgs args = {});
  void End(const char* category, std::string name, TraceArgs args = {});

  /// Records a zero-duration event.
  void Instant(const char* category, std::string name, TraceArgs args = {});

  /// All recorded events, merged across threads and sorted by timestamp.
  std::vector<TraceEvent> Snapshot() const;

  /// Events discarded because a thread buffer hit its cap.
  std::uint64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Drops all recorded events and restarts the clock at zero. Driver
  /// side only: must not race with threads still recording.
  void Clear();

  /// Serializes all events as a Chrome trace_event JSON document.
  std::string ChromeTraceJson() const;

 private:
  struct ThreadLog {
    support::RankedMutex mutex{support::lock_rank::kTraceThreadLog};
    std::vector<TraceEvent> events SS_GUARDED_BY(mutex);
    std::uint32_t tid = 0;  ///< Immutable after registration.
  };

  void Record(TraceEvent event);
  ThreadLog* LogForThisThread();

  const std::uint64_t tracer_id_;  ///< Unique per instance; keys TLS cache.
  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> epoch_ns_;
  std::atomic<std::uint64_t> dropped_{0};
  mutable support::RankedMutex logs_mutex_{support::lock_rank::kTraceRegistry};
  std::vector<std::shared_ptr<ThreadLog>> logs_ SS_GUARDED_BY(logs_mutex_);
};

/// RAII span: Begin on construction (if the tracer is enabled at that
/// point), End on destruction — including during exception unwinding, so
/// failed task attempts still close their spans.
class TraceSpan {
 public:
  TraceSpan(Tracer& tracer, const char* category, std::string name,
            TraceArgs args = {})
      : tracer_(tracer.enabled() ? &tracer : nullptr), category_(category) {
    if (tracer_ != nullptr) {
      name_ = std::move(name);
      tracer_->Begin(category_, name_, std::move(args));
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches an arg to the closing event (for values only known at the
  /// end of the span, e.g. bytes read).
  void AddEndArg(TraceArg arg) {
    if (tracer_ != nullptr) end_args_.push_back(std::move(arg));
  }

  ~TraceSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(category_, std::move(name_), std::move(end_args_));
    }
  }

 private:
  Tracer* tracer_;
  const char* category_;
  std::string name_;
  TraceArgs end_args_;
};

/// Process-global registry of named monotonic counters. Counter lookups
/// take a mutex; hot paths should cache the returned reference:
///
///   static std::atomic<std::uint64_t>& hits =
///       CounterRegistry::Global().Get("cache.hits");
///   hits.fetch_add(1, std::memory_order_relaxed);
///
/// References stay valid for the registry's lifetime (ResetAll zeroes
/// values in place). Counters are process-wide, not per-EngineContext.
class CounterRegistry {
 public:
  CounterRegistry() = default;

  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  /// Never destroyed (safe to use from static teardown).
  static CounterRegistry& Global();

  /// Finds or creates the counter. The reference is stable.
  std::atomic<std::uint64_t>& Get(const std::string& name);

  void Add(const std::string& name, std::uint64_t delta) {
    Get(name).fetch_add(delta, std::memory_order_relaxed);
  }

  /// (name, value) pairs sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> Snapshot() const;

  /// Zeroes every counter, keeping registrations (and references) alive.
  void ResetAll();

 private:
  mutable support::RankedMutex mutex_{support::lock_rank::kCounters};
  std::map<std::string, std::unique_ptr<std::atomic<std::uint64_t>>> counters_
      SS_GUARDED_BY(mutex_);
};

/// RAII timer accumulating elapsed wall-clock nanoseconds into a counter.
/// The always-on complement to TraceSpan for driver loops whose unit of
/// work is coarser than one logical item — e.g. a resampling batch that
/// serves many replicates in one engine pass: `resampling.batch_nanos /
/// resampling.replicates` then recovers honest per-replicate timing even
/// with tracing disabled.
class ScopedCounterTimer {
 public:
  explicit ScopedCounterTimer(std::atomic<std::uint64_t>& counter);

  ScopedCounterTimer(const ScopedCounterTimer&) = delete;
  ScopedCounterTimer& operator=(const ScopedCounterTimer&) = delete;

  ~ScopedCounterTimer();

 private:
  std::atomic<std::uint64_t>& counter_;
  std::int64_t start_ns_;
};

/// Escapes a string for embedding in a JSON string literal (no quotes).
std::string JsonEscape(const std::string& raw);

}  // namespace ss::engine
