// Experiment C (second part) — Spark run-time properties on YARN.
// Reproduces Figure 7 and Tables VII & VIII: the same 1M-SNP job under
// three container configurations on a 36-node cluster — 42 x (10 GiB, 6
// cores), 84 x (5 GiB, 3 cores), 126 x (3 GiB, 2 cores).
//
// Paper shape: the performance difference between container splits at a
// fixed node count is almost negligible (the slot total barely moves and
// the workload is compute-bound).
#include <cstdio>

#include "bench_common.hpp"

namespace ss::bench {
namespace {

int Run(int argc, char** argv) {
  const Args args(argc, argv);
  ConfigureObservability(args);
  Workload workload = DefaultWorkload(args, /*snps_default=*/5000,
                                      /*sets_default=*/200);
  workload.pipeline.num_partitions =
      static_cast<std::uint32_t>(args.GetU64("partitions", 512));
  workload.pipeline.num_reducers =
      static_cast<std::uint32_t>(args.GetU64("reducers", 64));

  char scale[256];
  std::snprintf(scale, sizeof(scale),
                "patients=%u snps=%u sets=%u partitions=%u (paper Table VII: "
                "n=1000, 1M SNPs, 1000 sets, 36 nodes)",
                workload.generator.num_patients, workload.generator.num_snps,
                workload.generator.num_sets,
                workload.pipeline.num_partitions);
  PrintBanner("bench_containers",
              "Figure 7 + Tables VII & VIII (container auto-tuning on YARN)",
              scale);

  // Table VIII rows, with the YARN placement check (core::IsPlaceable).
  const std::vector<cluster::ClusterTopology> configs =
      core::ContainerSweepCandidates();
  Table table8("Table VIII — container configurations (36 nodes)",
               {"containers", "memory/container (GiB)", "cores/container",
                "total slots", "placeable"});
  for (const auto& topology : configs) {
    table8.AddRow({std::to_string(topology.TotalExecutors()),
                   Table::Num(topology.memory_per_executor_gib, 0),
                   std::to_string(topology.cores_per_executor),
                   std::to_string(topology.TotalSlots()),
                   core::IsPlaceable(topology) ? "yes" : "no"});
  }
  table8.Print();

  const std::vector<std::uint64_t> iteration_counts = {0, 10, 100};
  Table figure7("Figure 7 — predicted execution time (seconds) per container "
                "configuration",
                {"iterations", "42 containers", "84 containers",
                 "126 containers", "max/min"});
  for (std::uint64_t iters : iteration_counts) {
    Workload::Instance instance = workload.Build();
    instance.ctx->metrics().Reset();
    core::RunResampling(*instance.pipeline, {core::ResamplingMethod::kMonteCarlo, iters}).scores;
    if (iters == iteration_counts.back()) {
      WriteRunArtifacts(args, *instance.ctx);
    }

    std::vector<std::string> row = {std::to_string(iters)};
    double lo = 1e100;
    double hi = 0.0;
    for (const auto& topology : configs) {
      const double t = instance.ctx->ReplayOn(topology).total_s;
      row.push_back(Table::Num(t, 2));
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
    row.push_back(Table::Num(hi / std::max(1e-9, lo), 3) + "x");
    figure7.AddRow(std::move(row));
  }
  figure7.Print();

  std::printf("\nShape check: max/min spread per row should stay close to "
              "1.0 (paper: \"performance difference ... is almost "
              "negligible\").\n");
  return 0;
}

}  // namespace
}  // namespace ss::bench

int main(int argc, char** argv) { return ss::bench::Run(argc, argv); }
