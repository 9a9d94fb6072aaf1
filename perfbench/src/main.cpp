// sparkscore_perfbench: the benchmark program.
//
//   sparkscore_perfbench --workload <name> --seed <n> --seconds <s>
//                        --trace <0|1> [--scale full|toy]
//                        [--workdir <dir>] [--outdir <dir>]
//
// For one workload it stages a synthetic cohort through the program's own
// ingest path (simdata::GenerateToStore), opens it
// (core::SkatPipeline::OpenFromStore), runs one SparkScore analysis
// through core::RunResampling, and checks the result against the serial
// oracle (oracle.hpp). Analyses run one at a time in this process (a
// closed loop with one client), each on a freshly staged cohort, until
// --seconds is used up; metrics are medians over the analyses.
//
// --trace 0 reports the end-to-end metrics with tracing and the engine's
// task-timeline profile off. --trace 1 runs one untraced and one traced
// analysis and reports the per-layer ledger: the benchmark's own spans
// around its calls into each module, the engine's public counters and
// stage metrics, and standalone probes of the kernel, Z-block and
// analytic-screen functions. Its spans are written as a Chrome trace to
// --outdir when the run ends.
//
// Standard output ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a {"context": {...}} line recording the host and run
// settings. Progress goes to standard error.
#include <algorithm>
#include <array>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hpp"
#include "core/resampling_methods.hpp"
#include "engine/profile.hpp"
#include "engine/trace.hpp"
#include "ledger.hpp"
#include "oracle.hpp"
#include "simdata/dfs_writer.hpp"
#include "simdata/store_codec.hpp"
#include "stats/adaptive_pvalue.hpp"
#include "stats/kernels/kernels.hpp"
#include "stats/resampling.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ss::core::ResamplingMethod;
using ss::core::ResamplingResult;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kMaxAnalyses = 50;

struct Options {
  std::string workload;
  std::string scale = "full";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench-work";
  std::string outdir = ".bench_build/perfbench-out";
};

std::optional<Options> ParseArgs(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--scale") {
      options.scale = value;
    } else if (key == "--workdir") {
      options.workdir = value;
    } else if (key == "--outdir") {
      options.outdir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload) return std::nullopt;
  return options;
}

/// A cohort store and, once opened, the context and pipeline over it.
/// Members are destroyed in reverse order: the pipeline before the context
/// it runs on.
struct Setup {
  std::string store_path;
  std::string spill_dir;
  std::unique_ptr<ss::engine::EngineContext> ctx;
  std::unique_ptr<ss::core::SkatPipeline> pipeline;
  double stage_s = 0.0;
  double open_s = 0.0;
  CounterSnapshot before;  ///< At the start, just after a counter reset.
  CounterSnapshot after_stage;
  CounterSnapshot after_open;
  std::string error;
};

void OpenInto(Setup* setup, const Workload& workload, std::uint64_t seed,
              SpanLog* spans, int parent) {
  fs::create_directories(setup->spill_dir);
  setup->ctx = std::make_unique<ss::engine::EngineContext>(
      EngineFor(workload, seed, setup->spill_dir));
  const int span = spans->Begin("OpenFromStore", "setup", parent);
  auto opened = ss::core::SkatPipeline::OpenFromStore(
      *setup->ctx, setup->store_path, PipelineFor(workload, seed),
      ss::simdata::StoreFingerprint(GeneratorFor(workload, seed)));
  spans->End(span);
  setup->open_s = spans->Seconds(span);
  setup->after_open = SnapshotCounters();
  if (!opened.ok()) {
    setup->error = "open: " + opened.status().ToString();
    return;
  }
  setup->pipeline =
      std::make_unique<ss::core::SkatPipeline>(std::move(opened).value());
}

/// Opens the staged store at `store_path` on a fresh context, with its own
/// spill directory `spill_dir`. Counters are reset first so the snapshots
/// start at zero (the pipeline re-stamps gauges such as kernel.dispatch).
Setup Open(const Workload& workload, std::uint64_t seed,
           const std::string& store_path, const std::string& spill_dir,
           SpanLog* spans, int parent) {
  Setup setup;
  setup.store_path = store_path;
  setup.spill_dir = spill_dir;
  ss::engine::CounterRegistry::Global().ResetAll();
  setup.before = SnapshotCounters();
  setup.after_stage = setup.before;
  OpenInto(&setup, workload, seed, spans, parent);
  return setup;
}

/// Stages the workload's cohort into a fresh store file under `dir`
/// (simdata::GenerateToStore) and opens it.
Setup StageAndOpen(const Workload& workload, std::uint64_t seed,
                   const fs::path& dir, int index, SpanLog* spans, int parent) {
  Setup setup;
  setup.store_path = (dir / ("cohort-" + std::to_string(index) + ".ssg")).string();
  setup.spill_dir = (dir / ("spill-" + std::to_string(index))).string();
  fs::remove(setup.store_path);
  ss::engine::CounterRegistry::Global().ResetAll();
  setup.before = SnapshotCounters();
  const int span = spans->Begin("GenerateToStore", "setup", parent);
  auto staged = ss::simdata::GenerateToStore(GeneratorFor(workload, seed),
                                             setup.store_path,
                                             workload.partitions);
  spans->End(span);
  setup.stage_s = spans->Seconds(span);
  setup.after_stage = SnapshotCounters();
  if (!staged.ok()) {
    setup.error = "staging: " + staged.status().ToString();
    return setup;
  }
  OpenInto(&setup, workload, seed, spans, parent);
  return setup;
}

/// Closes the pipeline and context and deletes the spill frames; the store
/// file too unless `keep_store`.
void Teardown(Setup* setup, bool keep_store) {
  setup->pipeline.reset();
  setup->ctx.reset();
  ReleaseFreeMemory();
  std::error_code ignored;
  fs::remove_all(setup->spill_dir, ignored);
  if (!keep_store) fs::remove(setup->store_path, ignored);
}

/// Observes an analysis from the driver thread: one span per batch, and
/// for permutation one span per replicate pass.
class LedgerSink final : public ss::core::ProgressSink {
 public:
  LedgerSink(SpanLog* spans, int parent, bool per_replicate)
      : spans_(spans), parent_(parent), per_replicate_(per_replicate) {}

  void OnBatchBegin(std::uint64_t batch_index, std::uint64_t /*begin*/,
                    std::uint64_t /*end*/) override {
    batch_span_ =
        spans_->Begin("batch " + std::to_string(batch_index), "batch", parent_);
    last_ns_ = NowNs();
  }

  void OnReplicate(std::uint64_t b) override {
    const std::int64_t now = NowNs();
    if (per_replicate_) {
      spans_->Add("replicate " + std::to_string(b), "replicate", last_ns_, now,
                  batch_span_);
      pass_s.push_back(static_cast<double>(now - last_ns_) * 1e-9);
    }
    last_ns_ = now;
  }

  void OnBatchEnd(std::uint64_t /*batch_index*/, std::uint64_t /*begin*/,
                  std::uint64_t /*end*/) override {
    spans_->End(batch_span_);
    batch_s.push_back(spans_->Seconds(batch_span_));
  }

  std::vector<double> pass_s;   ///< Permutation replicate passes.
  std::vector<double> batch_s;  ///< Batch wall times.

 private:
  SpanLog* spans_;
  int parent_;
  bool per_replicate_;
  int batch_span_ = -1;
  std::int64_t last_ns_ = 0;
};

struct Analysis {
  double seconds = 0.0;
  double cpu_s = 0.0;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  ResamplingResult result;
  CounterSnapshot after;
  std::string error;
};

Analysis Analyze(Setup& setup, const Workload& workload, std::uint64_t seed,
                 SpanLog* spans, int parent, ss::core::ProgressSink* sink) {
  Analysis analysis;
  const ss::core::ResamplingRequest request = RequestFor(workload, seed, sink);
  const int span = spans->Begin("RunResampling", "analysis", parent);
  const double cpu_before = ProcessCpuSeconds();
  analysis.begin_ns = spans->spans()[static_cast<std::size_t>(span)].begin_ns;
  try {
    analysis.result = ss::core::RunResampling(*setup.pipeline, request).scores;
  } catch (const std::exception& e) {
    analysis.error = std::string("analysis: ") + e.what();
  }
  spans->End(span);
  analysis.end_ns = spans->spans()[static_cast<std::size_t>(span)].end_ns;
  analysis.cpu_s = ProcessCpuSeconds() - cpu_before;
  analysis.seconds = spans->Seconds(span);
  analysis.after = SnapshotCounters();
  if (analysis.error.empty() &&
      Delta(setup.before, analysis.after, "store.corrupt") != 0) {
    analysis.error = "store.corrupt > 0";
  }
  return analysis;
}

/// The analytic screen recomputed from the pipeline's Gram matrices with
/// the public stats functions, at the reference's observed statistics.
struct Screen {
  double gram_s = 0.0;
  double spectrum_s = 0.0;  ///< Sum over sets of NullSpectrumFromGram.
  double tail_s = 0.0;      ///< Sum over sets of SaddlepointPValue.
  std::unordered_map<std::uint32_t, double> p;
};

Screen RecomputeScreen(
    ss::core::SkatPipeline& pipeline,
    const std::unordered_map<std::uint32_t, double>& observed,
    std::size_t threads, SpanLog* spans, int parent) {
  Screen screen;
  const int gram_span = spans->Begin("CollectSetGramMatrices", "probe", parent);
  const auto grams = pipeline.CollectSetGramMatrices();
  spans->End(gram_span);
  screen.gram_s = spans->Seconds(gram_span);

  std::vector<std::uint32_t> ids;
  for (const auto& [id, statistic] : observed) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  std::vector<double> p(ids.size(), 1.0);
  std::vector<double> spectrum_s(ids.size(), 0.0);
  std::vector<double> tail_s(ids.size(), 0.0);
  const auto work = [&](std::size_t first, std::size_t step) {
    for (std::size_t i = first; i < ids.size(); i += step) {
      std::vector<double> lambda;
      const std::int64_t t0 = NowNs();
      const auto it = grams.find(ids[i]);
      if (it != grams.end()) lambda = ss::stats::NullSpectrumFromGram(it->second);
      const std::int64_t t1 = NowNs();
      p[i] = ss::stats::SaddlepointPValue(lambda, observed.at(ids[i]));
      const std::int64_t t2 = NowNs();
      spectrum_s[i] = static_cast<double>(t1 - t0) * 1e-9;
      tail_s[i] = static_cast<double>(t2 - t1) * 1e-9;
    }
  };
  const int span = spans->Begin("NullSpectrumFromGram+SaddlepointPValue",
                                "probe", parent);
  std::vector<std::thread> workers;
  for (std::size_t t = 1; t < threads; ++t) workers.emplace_back(work, t, threads);
  work(0, threads);
  for (std::thread& worker : workers) worker.join();
  spans->End(span);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    screen.p[ids[i]] = p[i];
    screen.spectrum_s += spectrum_s[i];
    screen.tail_s += tail_s[i];
  }
  return screen;
}

/// Completes the serial reference and checks every analysis against it.
/// For hybrid runs the screen p-values come from `screen` when given, else
/// they are recomputed here from a pipeline over `store_path`. Returns the
/// number of failed checks.
int CheckAll(const Workload& workload, std::uint64_t seed, Reference& ref,
             const std::vector<ResamplingResult>& results,
             const std::string& store_path, const Screen* screen,
             SpanLog* spans, int parent) {
  const int span = spans->Begin("serial oracle", "check", parent);
  std::vector<std::uint32_t> ids;
  if (workload.pvalue == ss::core::PValueMethod::kHybrid) {
    Screen recomputed;
    if (screen == nullptr) {
      ss::engine::EngineContext ctx(EngineFor(workload, seed, ""));
      auto opened = ss::core::SkatPipeline::OpenFromStore(
          ctx, store_path, PipelineFor(workload, seed));
      if (!opened.ok()) {
        std::fprintf(stderr, "check: %s\n", opened.status().ToString().c_str());
        spans->End(span);
        return static_cast<int>(results.size());
      }
      recomputed = RecomputeScreen(opened.value(), ref.observed(),
                                   ThreadsForHost().workers + 1, spans, span);
      screen = &recomputed;
    }
    for (const auto& [id, p] : screen->p) {
      if (p < workload.refine_threshold) ids.push_back(id);
    }
    ref.SetScreenPValues(screen->p);
  } else {
    ids = ref.SampleSets(workload.oracle_sets);
  }
  ref.ComputeExceedances(ids);
  spans->End(span);
  std::fprintf(stderr,
               "check: observed statistics of %zu sets, exceedance counts of "
               "%zu sets (%.2fs)\n",
               ref.observed().size(), ref.exceedance_sets(),
               spans->Seconds(span));
  int failed = 0;
  for (const ResamplingResult& result : results) {
    const std::string mismatch = ref.Check(result);
    if (!mismatch.empty()) {
      std::fprintf(stderr, "check FAILED: %s\n", mismatch.c_str());
      ++failed;
    }
  }
  return failed;
}

/// Single-thread stats::BatchedReplicateScores rate in GMAC/s at the
/// workload's patient count and batch width (median of five trials).
double MacGmacs(std::size_t n, std::size_t batch, std::uint64_t seed) {
  const std::vector<double> zblock = ss::stats::MonteCarloZBlock(seed, n, 0, batch);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal;
  std::vector<std::vector<double>> rows(32, std::vector<double>(n));
  for (auto& row : rows) {
    for (double& value : row) value = normal(rng);
  }
  std::vector<double> out;
  std::vector<double> rates;
  for (int trial = 0; trial < 5; ++trial) {
    const std::int64_t t0 = NowNs();
    std::uint64_t calls = 0;
    std::int64_t elapsed = 0;
    do {
      for (const auto& row : rows) {
        ss::stats::BatchedReplicateScores(row, zblock.data(), batch, &out);
      }
      calls += rows.size();
      elapsed = NowNs() - t0;
    } while (elapsed < 60'000'000);
    rates.push_back(static_cast<double>(n * batch * calls) /
                    static_cast<double>(elapsed));  // MAC/ns = GMAC/s
  }
  return Median(rates);
}

/// Wall time of generating every Z block the workload's B needs.
double ZBlockSeconds(const Workload& workload, std::uint64_t seed) {
  const std::int64_t t0 = NowNs();
  for (std::uint64_t begin = 0; begin < workload.replicates;
       begin += workload.batch) {
    const std::size_t count = static_cast<std::size_t>(
        std::min(workload.batch, workload.replicates - begin));
    ss::stats::MonteCarloZBlock(seed, workload.patients, begin, count);
  }
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Hex(std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
  return buffer;
}

std::string ContextJson(const Options& options, const Workload& workload,
                        int analyses, int setups, std::uint64_t result_hash) {
  const Threads threads = ThreadsForHost();
  const auto level = ss::stats::kernels::ActiveDispatchLevel();
  // The gauge the pipeline stamps at construction.
  const std::uint64_t dispatch =
      ss::engine::CounterRegistry::Global().Get("kernel.dispatch").load();
  char buffer[1536];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"context\": {\"workload\": \"%s\", \"scale\": \"%s\", \"seed\": %" PRIu64
      ", \"trace\": %d, \"seconds\": %.17g, \"nproc\": %u, \"workers\": %zu, "
      "\"io_threads\": %d, \"kernel.dispatch\": %" PRIu64
      ", \"kernel_level\": \"%s\", \"build_type\": \"%s\", "
      "\"cache_budget_bytes\": %" PRIu64 ", \"file_spill\": %s, "
      "\"replicates\": %" PRIu64 ", \"batch\": %" PRIu64
      ", \"patients\": %u, \"snps\": %u, \"sets\": %u, \"partitions\": %u, "
      "\"cohort_seed\": %" PRIu64 ", \"fingerprint\": \"%s\", "
      "\"analyses\": %d, \"setups\": %d, "
      "\"result_hash\": \"%s\"}}",
      workload.name.c_str(), options.scale.c_str(), options.seed,
      options.trace ? 1 : 0, options.seconds,
      std::max(1u, std::thread::hardware_concurrency()), threads.workers,
      threads.io, dispatch, ss::stats::kernels::DispatchLevelName(level),
      PERFBENCH_BUILD_TYPE, workload.cache_budget,
      workload.file_spill ? "true" : "false", workload.replicates,
      workload.batch, workload.patients, workload.snps, workload.sets,
      workload.partitions, GeneratorFor(workload, options.seed).seed,
      Hex(ss::simdata::StoreFingerprint(GeneratorFor(workload, options.seed)))
          .c_str(),
      analyses, setups, Hex(result_hash).c_str());
  return buffer;
}

std::string ResultJson(bool correct, int attempted, int failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buffer[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buffer;
  }
  out += "}}";
  return out;
}

/// Writes the context and result lines to stdout and to a result file.
void Emit(const Options& options, const std::string& context,
          const std::string& result, const SpanLog& spans) {
  std::error_code ignored;
  fs::create_directories(options.outdir, ignored);
  const std::string stem = (fs::path(options.outdir) /
                            (options.workload + "-seed" +
                             std::to_string(options.seed) + "-trace" +
                             (options.trace ? "1" : "0")))
                               .string();
  std::ofstream(stem + ".result.json") << context << "\n" << result << "\n";
  std::ofstream(stem + ".spans.json") << spans.ChromeTraceJson();
  std::printf("%s\n%s\n", context.c_str(), result.c_str());
  std::fflush(stdout);
}

std::uint64_t ResultHash(const CounterSnapshot& before,
                         const CounterSnapshot& after) {
  return Delta(before, after, "resampling.result_hash");
}

/// Analyses per run: at least three, more when --seconds holds more
/// nominal-length analyses. The count depends on --seconds only, never on
/// how fast the build under test is, so every run of a workload has one
/// structure.
int AnalysesFor(const Workload& workload, double seconds) {
  return std::max(3, static_cast<int>(std::lround(seconds / workload.nominal_s)));
}

/// A run whose set-up failed: nothing was analysed.
int EmitSetupFailure(const Options& options, const Workload& workload,
                     const std::string& error, SpanLog* spans) {
  std::fprintf(stderr, "%s\n", error.c_str());
  spans->End(0);
  Emit(options, ContextJson(options, workload, 0, 0, 0),
       ResultJson(false, 1, 1, {}), *spans);
  return 0;
}

/// Runs one analysis on `setup`, appending its result (or counting its
/// failure).
Analysis AnalyzeInto(Setup& setup, const Workload& workload,
                     std::uint64_t seed, SpanLog* spans, int parent,
                     ss::core::ProgressSink* sink,
                     std::vector<ResamplingResult>* results, int* failed) {
  if (!setup.error.empty()) {
    std::fprintf(stderr, "%s\n", setup.error.c_str());
    ++*failed;
    return {};
  }
  Analysis analysis = Analyze(setup, workload, seed, spans, parent, sink);
  if (analysis.error.empty()) {
    results->push_back(analysis.result);
  } else {
    std::fprintf(stderr, "%s\n", analysis.error.c_str());
    ++*failed;
  }
  return analysis;
}

int RunEndToEnd(const Options& options, const Workload& workload,
                const fs::path& dir) {
  ss::engine::SetProfilingEnabled(false);
  SpanLog spans;
  const int root = spans.Begin(workload.name, "run");

  // Set-up time: cohorts staged and opened back to back. The analyses run
  // on the last one's store, each on a freshly opened pipeline.
  std::vector<double> setup_s;
  std::string store;
  for (int i = 0; i < workload.setup_reps; ++i) {
    Setup setup = StageAndOpen(workload, options.seed, dir, i, &spans, root);
    if (!setup.error.empty()) {
      Teardown(&setup, false);
      return EmitSetupFailure(options, workload, setup.error, &spans);
    }
    setup_s.push_back(setup.stage_s + setup.open_s);
    std::fprintf(stderr, "setup %d: stage %.3fs, open %.3fs\n", i,
                 setup.stage_s, setup.open_s);
    const bool last = i + 1 == workload.setup_reps;
    Teardown(&setup, last);
    if (last) store = setup.store_path;
  }

  std::vector<double> analysis_s;
  std::vector<double> cpu_s;
  double peak_rss = 0.0;
  std::vector<ResamplingResult> results;
  std::uint64_t result_hash = 0;
  const int attempted = AnalysesFor(workload, options.seconds);
  int failed = 0;
  for (int i = 0; i < attempted; ++i) {
    const int span = spans.Begin("analysis " + std::to_string(i), "rep", root);
    Setup setup = Open(workload, options.seed, store,
                       (dir / ("spill-a" + std::to_string(i))).string(), &spans,
                       span);
    const Analysis analysis = AnalyzeInto(setup, workload, options.seed, &spans,
                                          span, nullptr, &results, &failed);
    if (setup.error.empty() && analysis.error.empty()) {
      analysis_s.push_back(analysis.seconds);
      cpu_s.push_back(analysis.cpu_s);
      result_hash = ResultHash(setup.after_open, analysis.after);
      // What a process that stages, opens and analyses once peaks at:
      // later analyses inherit this process's fragmented heap.
      if (peak_rss == 0.0) peak_rss = PeakRssMiB();
      std::fprintf(stderr, "analysis %d: %.3fs (cpu %.3fs)\n", i,
                   analysis.seconds, analysis.cpu_s);
    }
    Teardown(&setup, true);
    spans.End(span);
  }
  Reference ref(workload, options.seed);
  failed += CheckAll(workload, options.seed, ref, results, store, nullptr,
                     &spans, root);
  fs::remove(store);
  spans.End(root);

  const double analysis = Median(analysis_s);
  const std::vector<Metric> metrics = {
      {"analysis_s", analysis, "s"},
      {"snp_replicates_per_s",
       analysis > 0.0 ? static_cast<double>(workload.snps) *
                            static_cast<double>(workload.replicates) / analysis
                      : 0.0,
       "1/s"},
      {"setup_s", Median(setup_s), "s"},
      {"cpu_s", Median(cpu_s), "s"},
      {"peak_rss_mib", peak_rss, "MiB"},
  };
  const bool correct = failed == 0 && !results.empty();
  Emit(options,
       ContextJson(options, workload, static_cast<int>(analysis_s.size()),
                   static_cast<int>(setup_s.size()), result_hash),
       ResultJson(correct, attempted, failed, metrics), spans);
  return 0;
}

/// Engine-side ledger of the traced analysis, from the context's stage
/// metrics and task-timeline profile.
struct EngineLedger {
  double stage_s = 0.0;     ///< Sum of stage wall times.
  double idle_s = 0.0;      ///< Analysis time with no stage running.
  std::vector<double> task_s;
  std::array<double, ss::engine::kNumTaskPhases> phase_s{};
};

EngineLedger ReadEngineLedger(ss::engine::EngineContext& ctx,
                              std::int64_t begin_ns, std::int64_t end_ns) {
  EngineLedger ledger;
  std::vector<ss::engine::StageMetrics> stages;
  for (ss::engine::StageMetrics& stage : ctx.metrics().stages()) {
    if (stage.begin_ns >= begin_ns && stage.end_ns <= end_ns) {
      stages.push_back(std::move(stage));
    }
  }
  std::sort(stages.begin(), stages.end(),
            [](const auto& a, const auto& b) { return a.begin_ns < b.begin_ns; });
  std::int64_t covered_until = begin_ns;
  std::int64_t idle_ns = 0;
  for (const ss::engine::StageMetrics& stage : stages) {
    ledger.stage_s += static_cast<double>(stage.end_ns - stage.begin_ns) * 1e-9;
    if (stage.begin_ns > covered_until) idle_ns += stage.begin_ns - covered_until;
    covered_until = std::max(covered_until, stage.end_ns);
    ledger.task_s.insert(ledger.task_s.end(), stage.task_seconds.begin(),
                         stage.task_seconds.end());
  }
  idle_ns += std::max<std::int64_t>(0, end_ns - covered_until);
  ledger.idle_s = static_cast<double>(idle_ns) * 1e-9;
  const ss::engine::RunProfile profile = ss::engine::BuildRunProfile(stages);
  for (const ss::engine::StageTimingStats& stage : profile.stages) {
    for (std::size_t p = 0; p < ss::engine::kNumTaskPhases; ++p) {
      ledger.phase_s[p] += stage.phase_seconds[p];
    }
  }
  return ledger;
}

int RunTraced(const Options& options, const Workload& workload,
              const fs::path& dir) {
  SpanLog spans;
  const int root = spans.Begin(workload.name + " (traced)", "run");
  std::vector<ResamplingResult> results;
  int failed = 0;
  const int attempted = 3;

  // A cold untraced analysis, the traced one, then a warm untraced twin:
  // the tracing overhead compares the two warm analyses.
  ss::engine::SetProfilingEnabled(false);
  Setup staged = StageAndOpen(workload, options.seed, dir, 0, &spans, root);
  if (!staged.error.empty()) {
    Teardown(&staged, false);
    return EmitSetupFailure(options, workload, staged.error, &spans);
  }
  const std::string store = staged.store_path;
  const double store_write_mib =
      static_cast<double>(Delta(staged.before, staged.after_stage,
                                "store.write_bytes")) / kMiB;
  std::vector<double> open_s = {staged.open_s};
  AnalyzeInto(staged, workload, options.seed, &spans, root, nullptr, &results,
              &failed);
  Teardown(&staged, true);

  ss::engine::SetProfilingEnabled(true);
  const int rep_span = spans.Begin("traced analysis", "rep", root);
  Setup setup = Open(workload, options.seed, store,
                     (dir / "spill-traced").string(), &spans, rep_span);
  LedgerSink sink(&spans, rep_span,
                  workload.method == ResamplingMethod::kPermutation);
  const Analysis analysis = AnalyzeInto(setup, workload, options.seed, &spans,
                                        rep_span, &sink, &results, &failed);
  EngineLedger engine;
  if (setup.ctx != nullptr) {
    engine = ReadEngineLedger(*setup.ctx, analysis.begin_ns, analysis.end_ns);
  }
  open_s.push_back(setup.open_s);
  const CounterSnapshot& s0 = setup.before;
  const CounterSnapshot& s2 = setup.after_open;
  const CounterSnapshot& s3 = analysis.after;
  const std::uint64_t result_hash = ResultHash(s2, s3);
  Teardown(&setup, true);
  spans.End(rep_span);
  ss::engine::SetProfilingEnabled(false);

  Setup warm = Open(workload, options.seed, store,
                    (dir / "spill-warm").string(), &spans, root);
  const double untraced_s =
      AnalyzeInto(warm, workload, options.seed, &spans, root, nullptr, &results,
                  &failed)
          .seconds;
  open_s.push_back(warm.open_s);
  Teardown(&warm, true);

  // Standalone probes on a fresh pipeline over the same store.
  double observed_s = 0.0;
  Screen screen;
  const bool hybrid = workload.pvalue == ss::core::PValueMethod::kHybrid;
  Reference ref(workload, options.seed);
  {
    const int probe_span = spans.Begin("probes", "probe", root);
    Setup probe = Open(workload, options.seed, store,
                       (dir / "spill-probe").string(), &spans, probe_span);
    if (probe.error.empty()) {
      const int span = spans.Begin("CollectObservedScores", "probe", probe_span);
      probe.pipeline->CollectObservedScores();
      spans.End(span);
      observed_s = spans.Seconds(span);
      if (hybrid) {
        screen = RecomputeScreen(*probe.pipeline, ref.observed(), 1, &spans,
                                 probe_span);
      }
    } else {
      std::fprintf(stderr, "probe: %s\n", probe.error.c_str());
      ++failed;
    }
    Teardown(&probe, true);
    spans.End(probe_span);
  }
  const Threads threads = ThreadsForHost();
  const int kernel_span = spans.Begin("BatchedReplicateScores", "probe", root);
  const double gmacs = MacGmacs(workload.patients, workload.batch, options.seed);
  spans.End(kernel_span);
  const int zblock_span = spans.Begin("MonteCarloZBlock", "probe", root);
  const double zblock_s = ZBlockSeconds(workload, options.seed);
  spans.End(zblock_span);

  failed += CheckAll(workload, options.seed, ref, results, store,
                     hybrid ? &screen : nullptr, &spans, root);
  fs::remove(store);
  spans.End(root);

  const auto count = [&](const char* name) {
    return static_cast<double>(Delta(s2, s3, name));
  };
  const auto mib = [&](const char* name) { return count(name) / kMiB; };
  const auto seconds = [&](const char* name) { return count(name) * 1e-9; };
  const double analysis_s = analysis.seconds;
  const double hits = count("cache.hits");
  const double misses = count("cache.misses");
  const double prefetches = count("exec.prefetches");
  const double busy_s = static_cast<double>(s3.count("pool.busy_nanos")
                                                ? s3.at("pool.busy_nanos")
                                                : 0) * 1e-9;
  const double macs = static_cast<double>(workload.snps) * workload.patients *
                      static_cast<double>(workload.replicates);
  const double bound_s =
      macs / (static_cast<double>(threads.workers) * gmacs * 1e9);
  const double driver_s = engine.idle_s;
  using ss::engine::TaskPhase;
  const auto phase = [&](TaskPhase p) {
    return engine.phase_s[static_cast<std::size_t>(p)];
  };
  const double nominal =
      static_cast<double>(workload.sets) * static_cast<double>(workload.replicates);
  const std::vector<Metric> metrics = {
      // simdata / dfs
      {"stage.s", staged.stage_s, "s"},
      {"open.s", Median(open_s), "s"},
      {"store.write_mib", store_write_mib, "MiB"},
      {"store.read_mib", mib("store.read_bytes"), "MiB"},
      {"store.frame_reads", count("store.frame_reads"), "count"},
      {"store.prefetch_frames", count("store.prefetch_frames"), "count"},
      {"store.corrupt", static_cast<double>(Delta(s0, s3, "store.corrupt")), "count"},
      // core.pipeline
      {"observed.s", observed_s, "s"},
      {"genotype.unpacked_mib", mib("genotype.unpacked_bytes"), "MiB"},
      {"perm.pass_s.p50", Percentile(sink.pass_s, 0.5), "s"},
      {"perm.pass_s.p90", Percentile(sink.pass_s, 0.9), "s"},
      {"perm.pass_s.count", static_cast<double>(sink.pass_s.size()), "count"},
      // engine: stages and pool
      {"engine.stage_s", engine.stage_s, "s"},
      {"engine.tasks", static_cast<double>(engine.task_s.size()), "count"},
      {"task_s.p50", Percentile(engine.task_s, 0.5), "s"},
      {"task_s.p99", Percentile(engine.task_s, 0.99), "s"},
      {"task_s.count", static_cast<double>(engine.task_s.size()), "count"},
      {"engine.shuffle_mib", mib("engine.shuffle.write_bytes"), "MiB"},
      {"broadcast.mib", mib("broadcast.bytes"), "MiB"},
      {"pool.busy_s", busy_s, "s"},
      {"pool.utilization",
       analysis_s > 0.0 ? busy_s / (static_cast<double>(threads.workers) * analysis_s) : 0.0,
       "ratio"},
      // engine: cache
      {"cache.hits", hits, "count"},
      {"cache.misses", misses, "count"},
      {"cache.hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio"},
      {"cache.spills", count("cache.spills"), "count"},
      {"cache.spill_mib", mib("cache.spill_bytes"), "MiB"},
      {"cache.reloads", count("cache.reloads"), "count"},
      {"cache.reload_s", seconds("cache.reload_nanos"), "s"},
      {"cache.compute_s", seconds("cache.compute_nanos"), "s"},
      // engine: executor
      {"exec.prefetches", prefetches, "count"},
      {"exec.prefetch_declined", count("exec.prefetch_declined"), "count"},
      {"exec.prefetch_ratio",
       prefetches > 0.0
           ? (count("exec.prefetch_reloads") + count("store.prefetch_frames")) / prefetches
           : 0.0,
       "ratio"},
      {"exec.io_wait_s", seconds("exec.io_wait_nanos"), "s"},
      {"exec.backpressure_waits", count("exec.backpressure_waits"), "count"},
      // engine: phase totals as the engine attributes them
      {"phase.decode_s", phase(TaskPhase::kDecode), "s"},
      {"phase.compute_s", phase(TaskPhase::kCompute), "s"},
      {"phase.spill_write_s", phase(TaskPhase::kSpillWrite), "s"},
      {"phase.io_wait_s", phase(TaskPhase::kIoWait), "s"},
      // stats.kernels
      {"kernel.mac_gmacs", gmacs, "GMAC/s"},
      {"kernel.bound_s", bound_s, "s"},
      {"kernel.bound_ratio", analysis_s > 0.0 ? bound_s / analysis_s : 0.0, "ratio"},
      {"zblock.s", zblock_s, "s"},
      // core.resampling
      {"driver.s", driver_s, "s"},
      {"ledger.unaccounted_s", analysis_s - engine.stage_s - driver_s, "s"},
      {"resampling.batches", count("resampling.batches"), "count"},
      {"resampling.replicates", count("resampling.replicates"), "count"},
      {"batch.s.median", Median(sink.batch_s), "s"},
      {"resampling.result_hash",
       static_cast<double>(result_hash & ((std::uint64_t{1} << 53) - 1)), "count"},
      // stats.adaptive_pvalue
      {"screen.gram_s", screen.gram_s, "s"},
      {"screen.spectrum_s", screen.spectrum_s, "s"},
      {"screen.tail_s", screen.tail_s, "s"},
      {"pvalue.refined_sets", count("pvalue.refined_sets"), "count"},
      {"pvalue.replicates_saved", count("pvalue.replicates_saved"), "count"},
      {"pvalue.saved_ratio",
       nominal > 0.0 ? count("pvalue.replicates_saved") / nominal : 0.0, "ratio"},
      // tracing
      {"analysis_s.traced", analysis_s, "s"},
      {"analysis_s.untraced", untraced_s, "s"},
      {"trace.overhead", untraced_s > 0.0 ? analysis_s / untraced_s - 1.0 : 0.0, "ratio"},
  };
  const bool correct = failed == 0 && results.size() == 3;
  Emit(options, ContextJson(options, workload, 3, 1, result_hash),
       ResultJson(correct, attempted, failed, metrics), spans);
  return 0;
}

int Main(int argc, char** argv) {
  const std::optional<Options> options = ParseArgs(argc, argv);
  if (!options.has_value()) {
    std::fprintf(stderr,
                 "usage: sparkscore_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scale full|toy] "
                 "[--workdir <dir>] [--outdir <dir>]\n");
    return 2;
  }
  const std::optional<Workload> workload =
      FindWorkload(options->workload, options->scale);
  if (!workload.has_value()) {
    std::fprintf(stderr, "unknown workload '%s' or scale '%s'\n",
                 options->workload.c_str(), options->scale.c_str());
    return 2;
  }
  // Stores and spill frames of this run live under the work directory and
  // are deleted as the run goes.
  const fs::path dir = fs::path(options->workdir) / options->workload;
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  fs::create_directories(dir);
  const int status = options->trace ? RunTraced(*options, *workload, dir)
                                    : RunEndToEnd(*options, *workload, dir);
  fs::remove_all(dir, ignored);
  return status;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
