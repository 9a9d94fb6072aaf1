#include "ledger.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "engine/trace.hpp"

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::Begin(const std::string& name, const std::string& category,
                   int parent) {
  spans_.push_back({name, category, NowNs(), 0, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) { spans_[static_cast<std::size_t>(id)].end_ns = NowNs(); }

void SpanLog::Add(const std::string& name, const std::string& category,
                  std::int64_t begin_ns, std::int64_t end_ns, int parent) {
  spans_.push_back({name, category, begin_ns, end_ns, parent});
}

double SpanLog::Seconds(int id) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(span.end_ns - span.begin_ns) * 1e-9;
}

std::string SpanLog::ChromeTraceJson() const {
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().begin_ns;
  std::string out = "{\"traceEvents\":[";
  char buffer[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", span.name.c_str(), span.category.c_str(),
                  static_cast<double>(span.begin_ns - origin) * 1e-3,
                  static_cast<double>(span.end_ns - span.begin_ns) * 1e-3, i,
                  span.parent);
    out += buffer;
  }
  out += "]}\n";
  return out;
}

CounterSnapshot SnapshotCounters() {
  CounterSnapshot snapshot;
  for (const auto& [name, value] :
       ss::engine::CounterRegistry::Global().Snapshot()) {
    snapshot[name] = value;
  }
  return snapshot;
}

std::uint64_t Delta(const CounterSnapshot& before, const CounterSnapshot& after,
                    const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0;
  const auto b = before.find(name);
  const std::uint64_t base = b == before.end() ? 0 : b->second;
  return a->second > base ? a->second - base : 0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ReleaseFreeMemory() { malloc_trim(0); }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

}  // namespace perfbench
