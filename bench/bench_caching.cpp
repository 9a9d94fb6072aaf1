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
void RunSweep(const char* figure, const Workload& base,
              const std::vector<std::uint64_t>& iteration_counts,
              std::uint64_t uncached_max, int reps, const Args* args) {
  Table table(figure, {"iterations", "MC w/ cache", "MC w/o cache"});
  double cached_at_max = 0.0;
  double uncached_at_cutoff = 0.0;
  for (std::uint64_t iters : iteration_counts) {
    Workload cached = base;
    cached.pipeline.cache_contributions = true;
    const auto cached_runs = TimeAnalysisRuns(
        cached, reps,
        [&](core::SkatPipeline& pipeline) {
          core::RunResampling(pipeline, {core::ResamplingMethod::kMonteCarlo, iters}).scores;
        },
        args);
    cached_at_max = Mean(cached_runs);

    std::string uncached_cell = "N/A";
    if (iters <= uncached_max) {
      Workload uncached = base;
      uncached.pipeline.cache_contributions = false;
      // Keep the paper's uncached cost model honest: a batched pass would
      // amortize the lineage recomputation over the whole batch, which is
      // exactly the effect Figures 4/5 exist to show the absence of.
      uncached.pipeline.resampling_batch_size = 1;
      const auto uncached_runs =
          TimeAnalysisRuns(uncached, reps, [&](core::SkatPipeline& pipeline) {
            core::RunResampling(pipeline, {core::ResamplingMethod::kMonteCarlo, iters}).scores;
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
/// of the cached U partitions, run three ways at the same iteration count:
///   unlimited     — every U partition stays resident (reference);
///   tight+spill   — evicted partitions move to the spill tier, misses
///                   reload + decode them;
///   tight w/o spill — evictions discard, misses replay the lineage.
/// In the paper-faithful cost regime a U partition costs O(n²) per SNP to
/// recompute but only O(bytes) to reload, so the spill tier must win; the
/// shape check (and tools/check_spill_benefit.py in the smoke suite)
/// asserts exactly that. `datapoint=<file>` records the result as JSON.
void RunConstrainedBudget(const Workload& base, int reps, const Args& args) {
  // Default budget: ~a quarter of the U RDD footprint (one row of n
  // doubles per SNP), forcing evictions while keeping some partitions.
  const std::uint64_t u_bytes =
      static_cast<std::uint64_t>(base.generator.num_snps) *
      (static_cast<std::uint64_t>(base.generator.num_patients) * 8 + 48);
  const std::uint64_t budget =
      args.GetU64("budget", std::max<std::uint64_t>(1, u_bytes / 4));
  const std::uint64_t iters = args.GetU64("budget_iters", 100);

  Workload unlimited = base;
  unlimited.pipeline.cache_contributions = true;
  Workload tight = unlimited;
  tight.engine.cache_capacity_bytes = budget;
  tight.pipeline.cache_budget_bytes = budget;
  Workload no_spill = tight;
  no_spill.engine.cache_spill = false;

  const auto mc = [iters](core::SkatPipeline& pipeline) {
    core::RunResampling(pipeline, {core::ResamplingMethod::kMonteCarlo, iters}).scores;
  };
  // Medians, not means: one slow rep (host noise) must not decide a
  // millisecond-scale comparison.
  const auto median = [](const std::vector<double>& seconds) {
    return Quantile(seconds, 0.5);
  };
  const double t_unlimited = median(TimeAnalysisRuns(unlimited, reps, mc));
  const double t_recompute = median(TimeAnalysisRuns(no_spill, reps, mc));
  auto& spills_counter = engine::CounterRegistry::Global().Get("cache.spills");
  auto& reloads_counter =
      engine::CounterRegistry::Global().Get("cache.reloads");
  const std::uint64_t spills_before = spills_counter.load();
  const std::uint64_t reloads_before = reloads_counter.load();
  // Runs last with args so metrics=/trace= artifacts capture a run whose
  // cache stats include nonzero spills and reloads.
  const double t_spill = median(TimeAnalysisRuns(tight, reps, mc, &args));
  const std::uint64_t spills = spills_counter.load() - spills_before;
  const std::uint64_t reloads = reloads_counter.load() - reloads_before;

  Table table("Constrained budget — MC @ " + std::to_string(iters) +
                  " iters, budget=" + std::to_string(budget) + " bytes",
              {"configuration", "seconds"});
  table.AddRow({"unlimited memory", Table::Num(t_unlimited, 3)});
  table.AddRow({"tight + spill tier", Table::Num(t_spill, 3)});
  table.AddRow({"tight, lineage recompute", Table::Num(t_recompute, 3)});
  table.Print();
  std::printf("  spill traffic: %llu spills, %llu reloads\n",
              static_cast<unsigned long long>(spills),
              static_cast<unsigned long long>(reloads));
  std::printf("  shape check: reload-from-spill (%.3fs) %s lineage "
              "recompute (%.3fs) under budget=%llu\n\n",
              t_spill, t_spill < t_recompute ? "BEATS" : "does NOT beat",
              t_recompute, static_cast<unsigned long long>(budget));

  const std::string datapoint_path = args.GetStr("datapoint", "");
  if (!datapoint_path.empty()) {
    std::FILE* out = std::fopen(datapoint_path.c_str(), "w");
    if (out != nullptr) {
      std::fprintf(
          out,
          "{\"bench\":\"bench_caching\",\"mode\":\"constrained_budget\","
          "\"patients\":%u,\"snps\":%u,\"iters\":%llu,\"budget_bytes\":%llu,"
          "\"faithful\":%s,"
          "\"seconds\":{\"unlimited\":%.6f,\"tight_spill\":%.6f,"
          "\"tight_recompute\":%.6f},"
          "\"spills\":%llu,\"reloads\":%llu}\n",
          base.generator.num_patients, base.generator.num_snps,
          static_cast<unsigned long long>(iters),
          static_cast<unsigned long long>(budget),
          base.pipeline.paper_faithful_scores ? "true" : "false",
          t_unlimited, t_spill, t_recompute,
          static_cast<unsigned long long>(spills),
          static_cast<unsigned long long>(reloads));
      std::fclose(out);
      std::printf("datapoint written to %s\n", datapoint_path.c_str());
    } else {
      std::fprintf(stderr, "could not write datapoint to %s\n",
                   datapoint_path.c_str());
    }
  }
}

int Run(int argc, char** argv) {
  const Args args(argc, argv);
  ConfigureObservability(args);
  const std::uint64_t snps_small = args.GetU64("snps_small", 500);
  const std::uint64_t snps_large = args.GetU64("snps_large", 5000);
  const int reps = static_cast<int>(args.GetU64("reps", 2));

  // The small/large sweeps override snps/sets per figure; every other key
  // (patients=, seed=, batch=, threads=, ...) flows through DefaultWorkload.
  Workload small = DefaultWorkload(args, snps_small, snps_small / 10);
  small.generator.num_snps = static_cast<std::uint32_t>(snps_small);
  small.generator.num_sets = static_cast<std::uint32_t>(snps_small / 10);

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

  small.engine.topology = cluster::EmrCluster(18);
  // `mode=budget` skips the figure sweeps and runs only the constrained-
  // budget comparison (used by the bench_smoke spill-benefit check).
  const bool sweeps = args.GetStr("mode", "all") != "budget";
  if (sweeps) {
    // Fig 4's x-axis (10, 100, ..., 10000) scaled down by ~10.
    RunSweep("Figure 4 / Table V — small genotype matrix (seconds)", small,
             {0, 10, 50, 100, 200, 500, 1000},
             /*uncached_max=*/100, reps, &args);

    Workload large = small;
    large.generator.num_snps = static_cast<std::uint32_t>(snps_large);
    large.generator.num_sets = static_cast<std::uint32_t>(snps_large / 10);
    // Fig 5's x-axis (10..1000) scaled down by ~10.
    RunSweep("Figure 5 — large genotype matrix (seconds)", large,
             {0, 10, 50, 100}, /*uncached_max=*/10, reps, &args);
  }

  // Beyond the paper: what a budget too small for the U RDD costs, with
  // and without the spill tier (budget= budget_iters= datapoint= keys).
  RunConstrainedBudget(small, reps, args);

  // Per-replicate cost, amortized over every batch the sweeps ran — the
  // honest per-replicate figure now that one engine pass serves a whole
  // batch (see docs/OBSERVABILITY.md, `resampling.*` counters).
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
  args.WarnUnknownKeys("bench_caching");
  return 0;
}

}  // namespace
}  // namespace ss::bench

int main(int argc, char** argv) { return ss::bench::Run(argc, argv); }
