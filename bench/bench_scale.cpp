// Out-of-core paper scale: the 1M-SNP x 1k-patient cohort the paper's
// cluster handles, on one machine, under a cache budget far below the
// data size. The cohort is staged once into a memory-mapped packed
// genotype store (simdata::GenerateToStore — streaming, never holding
// the dense matrix); every configuration then reopens that file
// (core::OpenStudy's store= policy) and runs budget-constrained Monte
// Carlo resampling over partitions streamed off the mmap.
//
// What the table shows, per cache budget:
//   * throughput (replicate-SNP scores/s) — the cost of streaming vs
//     keeping everything resident;
//   * peak RSS — the point of the store: it must track budget + a fixed
//     driver-side slack, not the data size. Budgets run tightest-first
//     and the unlimited baseline last, so each constrained run's RSS
//     delta is measured before the resident-everything run inflates the
//     process footprint. The store file is read once, untimed, before
//     the ladder, so the tightest rung does not also pay a cold page
//     cache.
//
// Gates (exit code): result hashes bitwise identical across budgets,
// zero store corruption, and the flat-RSS assertion
// peak_rss - baseline <= budget + rss_slack_mb for every constrained
// run. Throughput ratios are reported in the datapoint and gated by
// tools/check_bench.py (tight budget must stay within 2x of unlimited).
// A datapoint= file that cannot be written also fails the run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "bench_common.hpp"
#include "core/resampling_methods.hpp"
#include "engine/trace.hpp"
#include "simdata/store_codec.hpp"
#include "support/string_util.hpp"

namespace ss::bench {
namespace {

std::uint64_t Counter(const char* name) {
  return engine::CounterRegistry::Global().Get(name).load();
}

/// Resident-set size of this process in bytes (0 where unsupported).
std::uint64_t CurrentRssBytes() {
#if defined(__linux__)
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long long pages_total = 0;
  unsigned long long pages_resident = 0;
  const int got = std::fscanf(statm, "%llu %llu", &pages_total, &pages_resident);
  std::fclose(statm);
  if (got != 2) return 0;
  return static_cast<std::uint64_t>(pages_resident) *
         static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
#else
  return 0;
#endif
}

/// Samples RSS on a background thread for the duration of one run and
/// keeps the maximum — the mmap'd store pages count toward it, so frame
/// retirement (MADV_DONTNEED) is part of what this measures.
class RssSampler {
 public:
  RssSampler()
      : baseline_(CurrentRssBytes()),
        peak_(baseline_),
        thread_([this] { Loop(); }) {}

  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  ~RssSampler() { Stop(); }

  void Stop() {
    if (!stopped_.exchange(true) && thread_.joinable()) {
      thread_.join();
      Sample();  // one final sample after the workload finished
    }
  }

  std::uint64_t baseline() const { return baseline_; }
  std::uint64_t peak() const { return peak_.load(); }

 private:
  void Loop() {
    while (!stopped_.load()) {
      Sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  void Sample() {
    const std::uint64_t now = CurrentRssBytes();
    std::uint64_t seen = peak_.load();
    while (now > seen && !peak_.compare_exchange_weak(seen, now)) {
    }
  }

  std::uint64_t baseline_;
  std::atomic<std::uint64_t> peak_;
  std::atomic<bool> stopped_{false};
  std::thread thread_;
};

struct ScaleRun {
  std::uint64_t budget = 0;  ///< cache budget in bytes; 0 = unlimited
  double seconds = 0.0;
  double scores_per_sec = 0.0;  ///< snps * iters / seconds
  std::uint64_t result_hash = 0;
  std::uint64_t baseline_rss = 0;
  std::uint64_t peak_rss = 0;
  std::uint64_t evictions = 0;
  std::uint64_t computes = 0;
  std::uint64_t store_opens = 0;
  std::uint64_t frame_reads = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t corrupt = 0;

  std::uint64_t RssDelta() const {
    return peak_rss > baseline_rss ? peak_rss - baseline_rss : 0;
  }
};

/// One budget configuration: the study reopened from the staged store
/// under `budget`, one timed resampling run, counters snapshotted after.
ScaleRun RunBudget(const core::StudySpec& base, std::uint64_t budget,
                   std::uint64_t iters, const Args* args) {
  core::StudySpec spec = base;
  spec.engine.cache_capacity_bytes = budget;
  core::Study study = core::OpenStudy(spec).value();

  ScaleRun run;
  run.budget = budget;
  RssSampler rss;
  run.seconds = TimeOnce([&] {
    core::RunResampling(*study.pipeline,
                        {core::ResamplingMethod::kMonteCarlo, iters});
  });
  rss.Stop();
  run.baseline_rss = rss.baseline();
  run.peak_rss = rss.peak();
  run.scores_per_sec =
      run.seconds > 0.0
          ? static_cast<double>(base.generator.num_snps) *
                static_cast<double>(iters) / run.seconds
          : 0.0;
  run.result_hash = Counter("resampling.result_hash");
  run.evictions = Counter("cache.evictions");
  run.computes = Counter("cache.computes");
  run.store_opens = Counter("store.opens");
  run.frame_reads = Counter("store.frame_reads");
  run.read_bytes = Counter("store.read_bytes");
  run.corrupt = Counter("store.corrupt");
  if (args != nullptr) core::WriteRunArtifacts(*args, *study.ctx);
  return run;
}

/// Reads the whole file through a small buffer and discards the bytes:
/// its pages land in the OS page cache without being mapped into this
/// process, so RSS does not grow.
void WarmPageCache(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::vector<char> buffer(64 * 1024);
  while (file.read(buffer.data(), static_cast<std::streamsize>(buffer.size()))) {
  }
}

/// The budgets= list in bytes (0 = unlimited); empty when not given. A
/// token that is not a byte count fails closed.
std::vector<std::uint64_t> ParseBudgets(const std::string& text) {
  std::vector<std::uint64_t> budgets;
  for (const std::string& token : Split(text, ',')) {
    std::int64_t budget = 0;
    if (token.empty()) continue;
    if (!ParseI64(token, &budget) || budget < 0) {
      throw StatusError(Status::InvalidArgument(
          "budgets= takes byte counts, got '" + token + "'"));
    }
    budgets.push_back(static_cast<std::uint64_t>(budget));
  }
  return budgets;
}

/// The ladder the runs take: `budgets`, or by default the unlimited
/// baseline plus budgets at the packed file size and far below it (the
/// out-of-core regime the store exists for). Tightest first, unlimited
/// (0) last: constrained runs measure their RSS before the
/// resident-everything baseline bloats the allocator.
std::vector<std::uint64_t> BudgetLadder(std::vector<std::uint64_t> budgets,
                                        std::uint64_t store_bytes) {
  if (budgets.empty()) {
    budgets = {0, store_bytes, store_bytes / 4, store_bytes / 16};
  }
  std::sort(budgets.begin(), budgets.end(), [](std::uint64_t a, std::uint64_t b) {
    if ((a == 0) != (b == 0)) return b == 0;
    return a < b;
  });
  budgets.erase(std::unique(budgets.begin(), budgets.end()), budgets.end());
  return budgets;
}

int Run(const Args& args) {
  // Paper-scale defaults (Table II's 1M-SNP row): override for smoke runs.
  core::StudySpec base = BenchSpec(/*snps=*/1'000'000, /*sets=*/1'000);
  base.generator.num_patients = 1'000;
  base.use_dfs = false;
  // The O(n^2)-per-SNP faithful Cox regime is for the timing benches;
  // at 10^9 genotype cells this bench times the streaming machinery, so
  // it defaults to the O(n) path.
  base.pipeline.paper_faithful_scores = false;
  base.pipeline.resampling_batch_size = 32;
  // The cache budget is what this bench sweeps (budgets=; cache_budget=
  // is not accepted).
  base = core::ApplyStudyKeys(args, base).value();
  // ~1000 SNP rows per store frame keeps per-task transients (one decoded
  // partition + its U block) small relative to any sane budget.
  if (!args.Has("partitions")) {
    base.pipeline.num_partitions = std::max<std::uint32_t>(
        1, base.generator.num_snps / 1000);
  }
  // Cache the decoded genotype partitions (dropped and re-read off the
  // mmap under a tight budget) and, with faithful=1 only, the observed U
  // RDD that paper-faithful Monte Carlo reuses (recomputed through its
  // lineage when a tight budget evicts it). The default Monte Carlo path
  // scores genotype × V(z) blocks and never builds U. cache_u=0 ablates
  // both to recompute-per-pass.
  base.pipeline.cache_contributions = args.GetBool("cache_u", true);
  // The default store is named by the cohort's fingerprint, so a default
  // run never meets a store of another cohort.
  const std::uint64_t fingerprint = simdata::StoreFingerprint(base.generator);
  if (base.store.empty()) {
    char name[64];
    std::snprintf(name, sizeof(name), "ss_bench_scale_%016llx.ssg",
                  static_cast<unsigned long long>(fingerprint));
    base.store = (std::filesystem::temp_directory_path() / name).string();
  }

  // Resampling depth amortizes the streaming I/O: each MC replicate reuses
  // the same U partitions, so out-of-core overhead shrinks as B grows —
  // the paper's workload runs B=1000 replicates. 32 keeps the bench under
  // a half hour on one core while staying in the amortized regime.
  const std::uint64_t iters = args.GetU64("iters", 32);
  const std::uint64_t slack_mb = args.GetU64("rss_slack_mb", 1024);
  const std::vector<std::uint64_t> requested_budgets =
      ParseBudgets(args.GetStr("budgets", ""));

  // Stage the store once, or reopen it (core::OpenStudy): a file holding
  // another cohort, or a corrupt one, is refused before any run.
  std::optional<simdata::StoreStageResult> staged;
  const double open_seconds =
      TimeOnce([&] { staged = core::OpenStudy(base).value().staged; });
  const double stage_seconds = staged ? open_seconds : 0.0;

  char scale[320];
  std::snprintf(scale, sizeof(scale),
                "patients=%u snps=%u sets=%u partitions=%u iters=%llu "
                "batch=%llu cache_u=%d faithful=%d",
                base.generator.num_patients, base.generator.num_snps,
                base.generator.num_sets, base.pipeline.num_partitions,
                static_cast<unsigned long long>(iters),
                static_cast<unsigned long long>(
                    base.pipeline.resampling_batch_size),
                base.pipeline.cache_contributions ? 1 : 0,
                base.pipeline.paper_faithful_scores ? 1 : 0);
  PrintBanner("bench_scale",
              "Out-of-core paper scale: mmap'd genotype store + streaming "
              "partitions under a cache budget",
              scale);
  const std::string& store_path = base.store;
  if (staged) {
    std::printf("  store: staged %s in %.1fs (streamed, no dense matrix)\n",
                store_path.c_str(), stage_seconds);
  } else {
    std::printf("  store: reusing %s (fingerprint %016llx)\n",
                store_path.c_str(),
                static_cast<unsigned long long>(fingerprint));
  }
  const std::uint64_t store_bytes = std::filesystem::file_size(store_path);
  std::printf("  store file: %.1f MiB packed (2-bit genotypes + aux frames)\n\n",
              static_cast<double>(store_bytes) / (1024.0 * 1024.0));

  const std::vector<std::uint64_t> budgets =
      BudgetLadder(requested_budgets, store_bytes);
  WarmPageCache(store_path);

  std::vector<ScaleRun> runs;
  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const bool last = i + 1 == budgets.size();
    runs.push_back(
        RunBudget(base, budgets[i], iters, last ? &args : nullptr));
  }

  Table table("Streaming MC @ " + std::to_string(iters) + " iters, store=" +
                  std::to_string(store_bytes) + " bytes",
              {"budget (bytes)", "seconds", "Mscores/s", "peak RSS MiB",
               "dRSS MiB", "evictions", "computes", "frame reads"});
  for (const ScaleRun& run : runs) {
    table.AddRow(
        {run.budget == 0 ? "unlimited" : std::to_string(run.budget),
         Table::Num(run.seconds, 3), Table::Num(run.scores_per_sec / 1e6, 3),
         Table::Num(static_cast<double>(run.peak_rss) / (1024.0 * 1024.0), 1),
         Table::Num(static_cast<double>(run.RssDelta()) / (1024.0 * 1024.0), 1),
         std::to_string(run.evictions), std::to_string(run.computes),
         std::to_string(run.frame_reads)});
  }
  table.Print();

  bool hashes_identical = true;
  for (const ScaleRun& run : runs) {
    if (run.result_hash != runs.front().result_hash) hashes_identical = false;
  }
  std::printf("  determinism: result hashes %s across %zu budgets "
              "(%016llx reference)\n",
              hashes_identical ? "IDENTICAL" : "DIFFER", runs.size(),
              static_cast<unsigned long long>(runs.front().result_hash));

  // The flat-RSS assertion: every constrained run's growth over its own
  // pre-run baseline stays within budget + fixed driver-side slack.
  const std::uint64_t slack_bytes = slack_mb * 1024 * 1024;
  bool rss_ok = true;
  bool corrupt_free = true;
  for (const ScaleRun& run : runs) {
    corrupt_free = corrupt_free && run.corrupt == 0;
    if (run.budget == 0 || run.peak_rss == 0) continue;  // unlimited / no /proc
    const bool ok = run.RssDelta() <= run.budget + slack_bytes;
    rss_ok = rss_ok && ok;
    std::printf("  flat-RSS: budget=%llu dRSS=%.1f MiB <= budget+%llu MiB: %s\n",
                static_cast<unsigned long long>(run.budget),
                static_cast<double>(run.RssDelta()) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(slack_mb),
                ok ? "PASS" : "FAIL");
  }
  const ScaleRun* unlimited = nullptr;
  for (const ScaleRun& run : runs) {
    if (run.budget == 0) unlimited = &run;
  }
  if (unlimited != nullptr && runs.size() > 1) {
    const double tight = runs.front().scores_per_sec;
    std::printf("  throughput: tightest budget runs at %.2fx the unlimited "
                "baseline (gated >= 0.5x by tools/check_bench.py)\n\n",
                unlimited->scores_per_sec > 0.0
                    ? tight / unlimited->scores_per_sec
                    : 0.0);
  }

  const std::string datapoint_path = args.GetStr("datapoint", "");
  if (!datapoint_path.empty()) {
    std::FILE* out = std::fopen(datapoint_path.c_str(), "w");
    if (out != nullptr) {
      std::fprintf(
          out,
          "{\"bench\":\"bench_scale\",\"patients\":%u,\"snps\":%u,"
          "\"sets\":%u,\"partitions\":%u,\"iters\":%llu,\"batch\":%llu,"
          "\"cache_u\":%s,\"faithful\":%s,\"store_bytes\":%llu,"
          "\"stage_seconds\":%.3f,\"rss_slack_mb\":%llu,"
          "\"hashes_identical\":%s,\"rss_within_budget\":%s,\"runs\":[",
          base.generator.num_patients, base.generator.num_snps,
          base.generator.num_sets, base.pipeline.num_partitions,
          static_cast<unsigned long long>(iters),
          static_cast<unsigned long long>(base.pipeline.resampling_batch_size),
          base.pipeline.cache_contributions ? "true" : "false",
          base.pipeline.paper_faithful_scores ? "true" : "false",
          static_cast<unsigned long long>(store_bytes), stage_seconds,
          static_cast<unsigned long long>(slack_mb),
          hashes_identical ? "true" : "false", rss_ok ? "true" : "false");
      for (std::size_t i = 0; i < runs.size(); ++i) {
        const ScaleRun& run = runs[i];
        std::fprintf(
            out,
            "%s{\"budget_bytes\":%llu,\"seconds\":%.6f,"
            "\"scores_per_sec\":%.1f,\"result_hash\":\"%016llx\","
            "\"baseline_rss_bytes\":%llu,\"peak_rss_bytes\":%llu,"
            "\"rss_delta_bytes\":%llu,\"evictions\":%llu,\"computes\":%llu,"
            "\"store_opens\":%llu,\"frame_reads\":%llu,\"read_bytes\":%llu,"
            "\"corrupt\":%llu}",
            i == 0 ? "" : ",",
            static_cast<unsigned long long>(run.budget), run.seconds,
            run.scores_per_sec,
            static_cast<unsigned long long>(run.result_hash),
            static_cast<unsigned long long>(run.baseline_rss),
            static_cast<unsigned long long>(run.peak_rss),
            static_cast<unsigned long long>(run.RssDelta()),
            static_cast<unsigned long long>(run.evictions),
            static_cast<unsigned long long>(run.computes),
            static_cast<unsigned long long>(run.store_opens),
            static_cast<unsigned long long>(run.frame_reads),
            static_cast<unsigned long long>(run.read_bytes),
            static_cast<unsigned long long>(run.corrupt));
      }
      std::fprintf(out, "]}\n");
      std::fclose(out);
      std::printf("datapoint written to %s\n", datapoint_path.c_str());
    } else {
      std::fprintf(stderr, "could not write datapoint to %s\n",
                   datapoint_path.c_str());
      return 1;
    }
  }

  return (hashes_identical && rss_ok && corrupt_free) ? 0 : 1;
}

}  // namespace
}  // namespace ss::bench

int main(int argc, char** argv) {
  return ss::bench::RunBench(argc, argv,
                             {"iters", "rss_slack_mb", "budgets", "cache_u",
                              "datapoint"},
                             ss::bench::Run, /*fixed=*/{"cache_budget"});
}
