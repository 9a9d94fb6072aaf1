// Beyond the paper: what the async executor buys on a budget-constrained
// Monte Carlo run — the configuration where compute shares the critical
// path with lineage recomputes of evicted partitions and per-batch
// Z-block generation.
//
// Two runs of the same workload:
//   synchronous — prefetch=0: the legacy loop; every Z-block runs inline
//                 on the driver between stages;
//   overlapped  — prefetch=N: the next batch's Z-block is staged on the
//                 I/O lane while the current one scores, and the lane
//                 warms resident or store-backed partitions ahead of the
//                 compute frontier.
//
// The hard gate (bench_executor_smoke) is bitwise identity:
// `resampling.result_hash` must not move between the two runs — the lane
// changes scheduling, never results. Timing is reported (and recorded in
// the datapoint) but only the structural overlap evidence is gated:
// exec.io_jobs > 0 and staged Z-blocks when batching.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "engine/trace.hpp"

namespace ss::bench {
namespace {

std::uint64_t Counter(const char* name) {
  return engine::CounterRegistry::Global().Get(name).load();
}

struct ConfigResult {
  double seconds = 0.0;
  std::uint64_t result_hash = 0;
  std::uint64_t prefetches = 0;
  std::uint64_t io_jobs = 0;
  std::uint64_t zblock_prefetches = 0;
  std::uint64_t backpressure_waits = 0;
  std::uint64_t evictions = 0;
  std::uint64_t computes = 0;
};

/// Times `reps` runs of the workload and snapshots the executor/cache
/// counters of the LAST run (Workload::Build zeroes the registry per run,
/// so post-run counters describe exactly one run).
ConfigResult RunConfig(const Workload& workload, std::uint64_t iters,
                       int reps, const Args* args) {
  ConfigResult out;
  out.seconds = Mean(TimeAnalysisRuns(
      workload, reps,
      [&](core::SkatPipeline& pipeline) {
        core::RunResampling(
            pipeline, {core::ResamplingMethod::kMonteCarlo, iters});
      },
      args));
  out.result_hash = Counter("resampling.result_hash");
  out.prefetches = Counter("exec.prefetches");
  out.io_jobs = Counter("exec.io_jobs");
  out.zblock_prefetches = Counter("exec.zblock_prefetches");
  out.backpressure_waits = Counter("exec.backpressure_waits");
  out.evictions = Counter("cache.evictions");
  out.computes = Counter("cache.computes");
  return out;
}

int Run(int argc, char** argv) {
  const Args args(argc, argv);
  ConfigureObservability(args);
  const int reps = static_cast<int>(args.GetU64("reps", 2));
  const std::uint64_t iters = args.GetU64("budget_iters", 80);

  Workload base = DefaultWorkload(args, /*snps_default=*/400,
                                  /*sets_default=*/40);
  base.pipeline.cache_contributions = true;
  // Budget small enough to force eviction of cached U partitions, so the
  // run recomputes evicted partitions between batches (same default shape
  // as bench_caching's constrained-budget mode).
  const std::uint64_t u_bytes =
      static_cast<std::uint64_t>(base.generator.num_snps) *
      (static_cast<std::uint64_t>(base.generator.num_patients) * 8 + 48);
  const std::uint64_t budget =
      args.GetU64("budget", std::max<std::uint64_t>(1, u_bytes / 4));
  base.engine.cache_capacity_bytes = budget;
  base.pipeline.cache_budget_bytes = budget;

  char scale[256];
  std::snprintf(scale, sizeof(scale),
                "patients=%u snps=%u sets=%u budget=%llu budget_iters=%llu "
                "batch=%llu reps=%d",
                base.generator.num_patients, base.generator.num_snps,
                base.generator.num_sets,
                static_cast<unsigned long long>(budget),
                static_cast<unsigned long long>(iters),
                static_cast<unsigned long long>(
                    base.pipeline.resampling_batch_size),
                reps);
  PrintBanner("bench_executor",
              "Beyond the paper: async I/O lane vs synchronous stage loop "
              "(budget-constrained MC)",
              scale);

  Workload sync = base;
  sync.engine.exec.prefetch_depth = 0;
  const ConfigResult sync_result = RunConfig(sync, iters, reps, nullptr);

  Workload overlap = base;
  overlap.engine.exec.prefetch_depth =
      static_cast<int>(args.GetU64("prefetch", 2));
  if (overlap.engine.exec.prefetch_depth <= 0) {
    overlap.engine.exec.prefetch_depth = 2;  // the point of this bench
  }
  overlap.engine.exec.io_threads =
      static_cast<int>(std::max<std::uint64_t>(1, args.GetU64("io_threads", 2)));
  // Runs last with args so metrics=/trace= artifacts capture the
  // overlapped configuration (prefetch spans, exec.* counters).
  const ConfigResult overlap_result = RunConfig(overlap, iters, reps, &args);

  Table table("Budget-constrained MC @ " + std::to_string(iters) +
                  " iters, budget=" + std::to_string(budget) + " bytes",
              {"configuration", "seconds", "evictions", "computes",
               "io jobs"});
  table.AddRow({"synchronous (prefetch=0)", Table::Num(sync_result.seconds, 3),
                std::to_string(sync_result.evictions),
                std::to_string(sync_result.computes),
                std::to_string(sync_result.io_jobs)});
  table.AddRow({"overlapped (prefetch=" +
                    std::to_string(overlap.engine.exec.prefetch_depth) + ")",
                Table::Num(overlap_result.seconds, 3),
                std::to_string(overlap_result.evictions),
                std::to_string(overlap_result.computes),
                std::to_string(overlap_result.io_jobs)});
  table.Print();

  const bool identical = sync_result.result_hash == overlap_result.result_hash;
  std::printf("  determinism: result hashes %s (%016llx vs %016llx)\n",
              identical ? "IDENTICAL" : "DIFFER",
              static_cast<unsigned long long>(sync_result.result_hash),
              static_cast<unsigned long long>(overlap_result.result_hash));
  std::printf("  overlap traffic: %llu prefetches, %llu z-blocks staged, "
              "%llu backpressure waits\n",
              static_cast<unsigned long long>(overlap_result.prefetches),
              static_cast<unsigned long long>(overlap_result.zblock_prefetches),
              static_cast<unsigned long long>(
                  overlap_result.backpressure_waits));
  std::printf("  shape check: overlapped (%.3fs) %s synchronous (%.3fs)\n\n",
              overlap_result.seconds,
              overlap_result.seconds < sync_result.seconds ? "BEATS"
                                                           : "does NOT beat",
              sync_result.seconds);

  const std::string datapoint_path = args.GetStr("datapoint", "");
  if (!datapoint_path.empty()) {
    std::FILE* out = std::fopen(datapoint_path.c_str(), "w");
    if (out != nullptr) {
      std::fprintf(
          out,
          "{\"bench\":\"bench_executor\",\"mode\":\"budget\","
          "\"patients\":%u,\"snps\":%u,\"sets\":%u,\"iters\":%llu,"
          "\"budget_bytes\":%llu,\"batch\":%llu,"
          "\"prefetch\":%d,\"io_threads\":%d,"
          "\"faithful\":%s,"
          "\"hashes_identical\":%s,"
          "\"result_hash\":{\"sync\":\"%016llx\",\"overlap\":\"%016llx\"},"
          "\"seconds\":{\"sync\":%.6f,\"overlap\":%.6f},"
          "\"exec\":{\"prefetches\":%llu,"
          "\"io_jobs\":%llu,\"zblock_prefetches\":%llu,"
          "\"backpressure_waits\":%llu},"
          "\"evictions\":{\"sync\":%llu,\"overlap\":%llu},"
          "\"computes\":{\"sync\":%llu,\"overlap\":%llu}}\n",
          base.generator.num_patients, base.generator.num_snps,
          base.generator.num_sets, static_cast<unsigned long long>(iters),
          static_cast<unsigned long long>(budget),
          static_cast<unsigned long long>(
              base.pipeline.resampling_batch_size),
          overlap.engine.exec.prefetch_depth, overlap.engine.exec.io_threads,
          base.pipeline.paper_faithful_scores ? "true" : "false",
          identical ? "true" : "false",
          static_cast<unsigned long long>(sync_result.result_hash),
          static_cast<unsigned long long>(overlap_result.result_hash),
          sync_result.seconds, overlap_result.seconds,
          static_cast<unsigned long long>(overlap_result.prefetches),
          static_cast<unsigned long long>(overlap_result.io_jobs),
          static_cast<unsigned long long>(overlap_result.zblock_prefetches),
          static_cast<unsigned long long>(overlap_result.backpressure_waits),
          static_cast<unsigned long long>(sync_result.evictions),
          static_cast<unsigned long long>(overlap_result.evictions),
          static_cast<unsigned long long>(sync_result.computes),
          static_cast<unsigned long long>(overlap_result.computes));
      std::fclose(out);
      std::printf("datapoint written to %s\n", datapoint_path.c_str());
    } else {
      std::fprintf(stderr, "could not write datapoint to %s\n",
                   datapoint_path.c_str());
    }
  }

  args.WarnUnknownKeys("bench_executor");
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace ss::bench

int main(int argc, char** argv) { return ss::bench::Run(argc, argv); }
