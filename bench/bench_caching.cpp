// Experiment B — impact of RDD caching on the Monte Carlo method.
// Reproduces Figures 4 & 5 and Tables IV & V.
//
// Paper shape to reproduce:
//   * cached MC is dramatically faster than uncached at every iteration
//     count > 0 (uncached recomputes the genotype -> U lineage, including
//     the DFS read + parse, every replicate);
//   * small matrix (Fig 4, 10k SNPs): cached @ 10000 iters beats uncached
//     @ 200 iters;
//   * large matrix (Fig 5, 1M SNPs): cached @ 1000 iters beats uncached
//     @ 10 iters.
//
// Paper scale (Table IV): n=1000, 10k & 1M SNPs, 1000 sets, 18 nodes.
// Defaults here shrink SNPs to 500 & 5000; override via `snps_small=
// snps_large= patients= reps=`.
#include <cstdio>

#include "bench_common.hpp"
#include "engine/trace.hpp"

namespace ss::bench {
namespace {

/// One Fig-4/5-style sweep over iteration counts, cached vs uncached.
/// The uncached sweep stops early (`uncached_max`) exactly as the paper's
/// N/A cells do — the configuration becomes impractically slow.
void RunSweep(const char* figure, const core::StudySpec& base,
              const std::vector<std::uint64_t>& iteration_counts,
              std::uint64_t uncached_max, int reps, const Args* args) {
  Table table(figure, {"iterations", "MC w/ cache", "MC w/o cache"});
  double cached_at_max = 0.0;
  double uncached_at_cutoff = 0.0;
  for (std::uint64_t iters : iteration_counts) {
    core::StudySpec cached = base;
    cached.pipeline.cache_contributions = true;
    const auto cached_runs = TimeAnalysisRuns(
        cached, reps,
        [&](core::SkatPipeline& pipeline) {
          core::RunResampling(pipeline,
                              {core::ResamplingMethod::kMonteCarlo, iters});
        },
        args);
    cached_at_max = Mean(cached_runs);

    std::string uncached_cell = "N/A";
    if (iters <= uncached_max) {
      core::StudySpec uncached = base;
      uncached.pipeline.cache_contributions = false;
      // Keep the paper's uncached cost model honest: a batched pass would
      // amortize the lineage recomputation over the whole batch, which is
      // exactly the effect Figures 4/5 exist to show the absence of.
      uncached.pipeline.resampling_batch_size = 1;
      const auto uncached_runs =
          TimeAnalysisRuns(uncached, reps, [&](core::SkatPipeline& pipeline) {
            core::RunResampling(pipeline,
                                {core::ResamplingMethod::kMonteCarlo, iters});
          });
      uncached_cell = MeanStdevCell(uncached_runs);
      uncached_at_cutoff = Mean(uncached_runs);
    }
    table.AddRow({std::to_string(iters), MeanStdevCell(cached_runs),
                  uncached_cell});
  }
  table.Print();
  std::printf("  shape check: cached @ %llu iters (%.3fs) %s uncached @ %llu "
              "iters (%.3fs)\n\n",
              static_cast<unsigned long long>(iteration_counts.back()),
              cached_at_max,
              cached_at_max < uncached_at_cutoff ? "BEATS" : "does NOT beat",
              static_cast<unsigned long long>(uncached_max),
              uncached_at_cutoff);
}

/// Constrained-budget mode: a cache budget small enough to force eviction
/// of the cached U partitions, run two ways at the same iteration count:
///   unlimited — every U partition stays resident (reference);
///   tight     — evictions drop partitions, and misses replay the lineage.
/// In the paper-faithful cost regime a U partition costs O(n²) per SNP to
/// recompute, so the tight run pays for every evicted partition it reads
/// again; the printed ratio is that cost. `datapoint=<file>` records the
/// result as JSON. Returns false when that file cannot be written.
bool RunConstrainedBudget(const core::StudySpec& base, int reps,
                          const Args& args) {
  // Default budget: ~a quarter of the U RDD footprint (one row of n
  // doubles per SNP), forcing evictions while keeping some partitions.
  const std::uint64_t u_bytes =
      static_cast<std::uint64_t>(base.generator.num_snps) *
      (static_cast<std::uint64_t>(base.generator.num_patients) * 8 + 48);
  const std::uint64_t budget =
      args.GetU64("budget", std::max<std::uint64_t>(1, u_bytes / 4));
  const std::uint64_t iters = args.GetU64("budget_iters", 100);

  core::StudySpec unlimited = base;
  unlimited.pipeline.cache_contributions = true;
  core::StudySpec tight = unlimited;
  tight.engine.cache_capacity_bytes = budget;

  const auto mc = [iters](core::SkatPipeline& pipeline) {
    core::RunResampling(pipeline, {core::ResamplingMethod::kMonteCarlo, iters});
  };
  // Medians, not means: one slow rep (host noise) must not decide a
  // millisecond-scale comparison.
  const auto median = [](const std::vector<double>& seconds) {
    return Quantile(seconds, 0.5);
  };
  const double t_unlimited = median(TimeAnalysisRuns(unlimited, reps, mc));
  // Runs last with args so metrics=/trace= artifacts capture a run whose
  // cache stats include nonzero evictions. core::OpenStudy zeroes the
  // counter registry, so the counters read after it describe exactly the
  // last timed repetition.
  const double t_tight = median(TimeAnalysisRuns(tight, reps, mc, &args));
  auto& registry = engine::CounterRegistry::Global();
  const std::uint64_t evictions = registry.Get("cache.evictions").load();
  const std::uint64_t computes = registry.Get("cache.computes").load();

  Table table("Constrained budget — MC @ " + std::to_string(iters) +
                  " iters, budget=" + std::to_string(budget) + " bytes",
              {"configuration", "seconds"});
  table.AddRow({"unlimited memory", Table::Num(t_unlimited, 3)});
  table.AddRow({"tight, lineage recompute", Table::Num(t_tight, 3)});
  table.Print();
  std::printf("  cache traffic (last run): %llu evictions, %llu partition "
              "computes\n",
              static_cast<unsigned long long>(evictions),
              static_cast<unsigned long long>(computes));
  std::printf("  budget cost: tight (%.3fs) takes %.2fx unlimited (%.3fs) "
              "under budget=%llu\n\n",
              t_tight, t_unlimited > 0.0 ? t_tight / t_unlimited : 0.0,
              t_unlimited, static_cast<unsigned long long>(budget));

  const std::string datapoint_path = args.GetStr("datapoint", "");
  if (datapoint_path.empty()) return true;
  std::FILE* out = std::fopen(datapoint_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "could not write datapoint to %s\n",
                 datapoint_path.c_str());
    return false;
  }
  std::fprintf(
      out,
      "{\"bench\":\"bench_caching\",\"mode\":\"constrained_budget\","
      "\"patients\":%u,\"snps\":%u,\"iters\":%llu,\"budget_bytes\":%llu,"
      "\"faithful\":%s,"
      "\"seconds\":{\"unlimited\":%.6f,\"tight_recompute\":%.6f},"
      "\"evictions\":%llu,\"computes\":%llu}\n",
      base.generator.num_patients, base.generator.num_snps,
      static_cast<unsigned long long>(iters),
      static_cast<unsigned long long>(budget),
      base.pipeline.paper_faithful_scores ? "true" : "false",
      t_unlimited, t_tight, static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(computes));
  std::fclose(out);
  std::printf("datapoint written to %s\n", datapoint_path.c_str());
  return true;
}

int Run(const Args& args) {
  const std::uint64_t snps_small = args.GetU64("snps_small", 500);
  const std::uint64_t snps_large = args.GetU64("snps_large", 5000);
  const int reps = static_cast<int>(args.GetU64("reps", 2));
  // `mode=budget` skips the figure sweeps and runs only the constrained-
  // budget comparison.
  const bool sweeps = args.GetStr("mode", "all") != "budget";

  // The small and large figures set their own SNP and set counts (snps=
  // and sets= are not accepted); every other workload and engine key
  // (patients=, seed=, batch=, threads=, ...) applies to both. The
  // constrained-budget comparison runs on one worker unless threads= says
  // otherwise: tasks then reach the LRU cache in partition order, so its
  // eviction and compute counts repeat from run to run (with more workers
  // the order in which a pass's last tasks finish decides which
  // partitions survive it).
  const auto figure_spec = [&args](std::uint64_t snps, bool one_worker) {
    core::StudySpec spec = BenchSpec(static_cast<std::uint32_t>(snps),
                                     static_cast<std::uint32_t>(snps / 10));
    spec.engine.topology = cluster::EmrCluster(18);
    if (one_worker) spec.engine.physical_threads = 1;
    return core::ApplyStudyKeys(args, spec).value();
  };
  const core::StudySpec small = figure_spec(snps_small, false);
  const core::StudySpec large = figure_spec(snps_large, false);
  const core::StudySpec budget = figure_spec(snps_small, true);

  char scale[256];
  std::snprintf(scale, sizeof(scale),
                "snps_small=%llu snps_large=%llu reps=%d batch=%llu (paper "
                "Table IV: 10k & 1M SNPs, n=1000, 18 nodes, 5 reps)",
                static_cast<unsigned long long>(snps_small),
                static_cast<unsigned long long>(snps_large), reps,
                static_cast<unsigned long long>(
                    small.pipeline.resampling_batch_size));
  PrintBanner("bench_caching",
              "Figures 4 & 5 + Tables IV & V (MC with vs without caching)",
              scale);

  if (sweeps) {
    // Fig 4's x-axis (10, 100, ..., 10000) scaled down by ~10.
    RunSweep("Figure 4 / Table V — small genotype matrix (seconds)", small,
             {0, 10, 50, 100, 200, 500, 1000},
             /*uncached_max=*/100, reps, &args);

    // Fig 5's x-axis (10..1000) scaled down by ~10.
    RunSweep("Figure 5 — large genotype matrix (seconds)", large,
             {0, 10, 50, 100}, /*uncached_max=*/10, reps, &args);
  }

  // Beyond the paper: what a budget too small for the U RDD costs
  // (budget= budget_iters= datapoint= keys).
  const bool datapoint_ok = RunConstrainedBudget(budget, reps, args);

  // Per-replicate cost of the last timed run (each study opens with
  // zeroed counters), amortized over its batches — the honest
  // per-replicate figure now that one engine pass serves a whole batch
  // (see docs/OBSERVABILITY.md, `resampling.*` counters).
  const std::uint64_t nanos =
      engine::CounterRegistry::Global().Get("resampling.batch_nanos").load();
  const std::uint64_t replicates =
      engine::CounterRegistry::Global().Get("resampling.replicates").load();
  const std::uint64_t batches =
      engine::CounterRegistry::Global().Get("resampling.batches").load();
  if (replicates > 0) {
    std::printf("Replicate accounting: %llu replicates in %llu engine "
                "batches, %.3f ms/replicate amortized\n",
                static_cast<unsigned long long>(replicates),
                static_cast<unsigned long long>(batches),
                static_cast<double>(nanos) / 1e6 /
                    static_cast<double>(replicates));
  }
  return datapoint_ok ? 0 : 1;
}

}  // namespace
}  // namespace ss::bench

int main(int argc, char** argv) {
  return ss::bench::RunBench(argc, argv,
                             {"snps_small", "snps_large", "reps", "mode",
                              "budget", "budget_iters", "datapoint"},
                             ss::bench::Run, /*fixed=*/{"snps", "sets"});
}
