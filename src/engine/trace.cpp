#include "engine/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace ss::engine {
namespace {

/// Cap per thread buffer (~a few hundred MB worst case across a big
/// pool); beyond it events are counted as dropped rather than silently
/// growing without bound during very long traced runs.
constexpr std::size_t kMaxEventsPerThread = 1u << 20;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t NextTracerId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1);
}

}  // namespace

Tracer::Tracer() : tracer_id_(NextTracerId()), epoch_ns_(NowNs()) {}

Tracer& Tracer::Global() {
  // ss-lint: allow(naked-new) leaked singleton, usable during teardown
  static Tracer* global = new Tracer();
  return *global;
}

Tracer::ThreadLog* Tracer::LogForThisThread() {
  // One-entry cache keyed by tracer id; ids are never reused, so a stale
  // entry for a destroyed tracer can never alias a live one.
  thread_local struct {
    std::uint64_t tracer_id = 0;
    ThreadLog* log = nullptr;
  } cache;
  if (cache.tracer_id == tracer_id_) return cache.log;
  auto log = std::make_shared<ThreadLog>();
  {
    support::MutexLock lock(logs_mutex_);
    log->tid = static_cast<std::uint32_t>(logs_.size());
    logs_.push_back(log);
  }
  cache.tracer_id = tracer_id_;
  cache.log = log.get();
  return cache.log;
}

void Tracer::Record(TraceEvent event) {
  ThreadLog* log = LogForThisThread();
  event.ts_ns = NowNs() - epoch_ns_.load(std::memory_order_relaxed);
  event.tid = log->tid;
  support::MutexLock lock(log->mutex);
  if (log->events.size() >= kMaxEventsPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  log->events.push_back(std::move(event));
}

void Tracer::Begin(const char* category, std::string name, TraceArgs args) {
  if (!enabled()) return;
  Record({TraceEvent::Phase::kBegin, 0, 0, std::move(name), category,
          std::move(args)});
}

void Tracer::End(const char* category, std::string name, TraceArgs args) {
  if (!enabled()) return;
  Record({TraceEvent::Phase::kEnd, 0, 0, std::move(name), category,
          std::move(args)});
}

void Tracer::Instant(const char* category, std::string name, TraceArgs args) {
  if (!enabled()) return;
  Record({TraceEvent::Phase::kInstant, 0, 0, std::move(name), category,
          std::move(args)});
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  std::vector<TraceEvent> merged;
  {
    support::MutexLock registry_lock(logs_mutex_);
    for (const auto& log : logs_) {
      support::MutexLock log_lock(log->mutex);
      merged.insert(merged.end(), log->events.begin(), log->events.end());
    }
  }
  // Stable: preserves each thread's append order among equal timestamps,
  // which keeps B/E nesting valid per tid.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return merged;
}

void Tracer::Clear() {
  support::MutexLock registry_lock(logs_mutex_);
  for (const auto& log : logs_) {
    support::MutexLock log_lock(log->mutex);
    log->events.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
  epoch_ns_.store(NowNs(), std::memory_order_relaxed);
}

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (unsigned char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string Tracer::ChromeTraceJson() const {
  const std::vector<TraceEvent> events = Snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buffer[64];
  for (const TraceEvent& event : events) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":\"";
    out += JsonEscape(event.name);
    out += "\",\"cat\":\"";
    out += JsonEscape(event.category);
    out += "\",\"ph\":\"";
    out += static_cast<char>(event.phase);
    // Chrome's ts unit is microseconds.
    std::snprintf(buffer, sizeof(buffer), "%.3f",
                  static_cast<double>(event.ts_ns) / 1000.0);
    out += "\",\"ts\":";
    out += buffer;
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(event.tid);
    if (event.phase == TraceEvent::Phase::kInstant) out += ",\"s\":\"t\"";
    if (!event.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const TraceArg& arg : event.args) {
        if (!first_arg) out += ",";
        first_arg = false;
        out += "\"" + JsonEscape(arg.first) + "\":\"" +
               JsonEscape(arg.second) + "\"";
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

CounterRegistry& CounterRegistry::Global() {
  // ss-lint: allow(naked-new) leaked singleton, usable during teardown
  static CounterRegistry* global = new CounterRegistry();
  return *global;
}

std::atomic<std::uint64_t>& CounterRegistry::Get(const std::string& name) {
  support::MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(name, std::make_unique<std::atomic<std::uint64_t>>(0))
             .first;
  }
  return *it->second;
}

std::vector<std::pair<std::string, std::uint64_t>> CounterRegistry::Snapshot()
    const {
  support::MutexLock lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, value] : counters_) {
    out.push_back({name, value->load(std::memory_order_relaxed)});
  }
  return out;
}

void CounterRegistry::ResetAll() {
  support::MutexLock lock(mutex_);
  for (auto& [name, value] : counters_) {
    value->store(0, std::memory_order_relaxed);
  }
}

ScopedCounterTimer::ScopedCounterTimer(std::atomic<std::uint64_t>& counter)
    : counter_(counter), start_ns_(NowNs()) {}

ScopedCounterTimer::~ScopedCounterTimer() {
  const std::int64_t elapsed = NowNs() - start_ns_;
  if (elapsed > 0) {
    counter_.fetch_add(static_cast<std::uint64_t>(elapsed),
                       std::memory_order_relaxed);
  }
}

}  // namespace ss::engine
