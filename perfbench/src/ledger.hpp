// Measurement helpers of the benchmark program: its own in-memory span
// log, counter-registry snapshots, process resource readings and small
// statistics. Everything here observes the program from outside through
// its public API; nothing in the program is instrumented for the
// benchmark.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (the clock the engine's stage timestamps use).
std::int64_t NowNs();

/// Spans recorded by the benchmark around its calls into the program.
/// Kept in memory and written out once, as a Chrome trace, when the run
/// ends. Spans of one analysis share the analysis' span as an ancestor.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string category;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  /// Opens a span and returns its id.
  int Begin(const std::string& name, const std::string& category,
            int parent = -1);
  void End(int id);

  /// Records an already-finished span.
  void Add(const std::string& name, const std::string& category,
           std::int64_t begin_ns, std::int64_t end_ns, int parent);

  const std::vector<Span>& spans() const { return spans_; }
  double Seconds(int id) const;

  /// Chrome trace-event JSON ("X" events, microseconds).
  std::string ChromeTraceJson() const;

 private:
  std::vector<Span> spans_;
};

/// Name -> value copy of engine::CounterRegistry::Global().
using CounterSnapshot = std::map<std::string, std::uint64_t>;
CounterSnapshot SnapshotCounters();

/// after[name] - before[name] (0 when absent or not grown).
std::uint64_t Delta(const CounterSnapshot& before, const CounterSnapshot& after,
                    const std::string& name);

/// Process CPU seconds (user + system) so far.
double ProcessCpuSeconds();

/// Process resident-set high-water mark in MiB.
double PeakRssMiB();

/// Returns freed heap memory to the operating system, so the next
/// analysis starts from the same resident set as the first.
void ReleaseFreeMemory();

double Median(std::vector<double> values);

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);

}  // namespace perfbench
