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

int Run(const Args& args) {
  core::StudySpec spec = BenchSpec(/*snps=*/5000, /*sets=*/200);
  spec.pipeline.num_partitions = 512;
  spec.pipeline.num_reducers = 64;
  spec = core::ApplyStudyKeys(args, spec).value();

  char scale[256];
  std::snprintf(scale, sizeof(scale),
                "patients=%u snps=%u sets=%u partitions=%u (paper Table VII: "
                "n=1000, 1M SNPs, 1000 sets, 36 nodes)",
                spec.generator.num_patients, spec.generator.num_snps,
                spec.generator.num_sets, spec.pipeline.num_partitions);
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
    core::Study study = core::OpenStudy(spec).value();
    study.ctx->metrics().Reset();
    core::RunResampling(*study.pipeline,
                        {core::ResamplingMethod::kMonteCarlo, iters});
    if (iters == iteration_counts.back()) {
      core::WriteRunArtifacts(args, *study.ctx);
    }

    std::vector<std::string> row = {std::to_string(iters)};
    double lo = 1e100;
    double hi = 0.0;
    for (const auto& topology : configs) {
      const double t = study.ctx->ReplayOn(topology).total_s;
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

int main(int argc, char** argv) {
  return ss::bench::RunBench(argc, argv, {}, ss::bench::Run);
}
