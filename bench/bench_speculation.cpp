// Ablation: speculative execution under stragglers (DESIGN.md §5).
//
// Not a paper table — the paper runs on EMR where Spark's speculation and
// straggler mitigation are ambient. This bench quantifies what that
// machinery is worth for SparkScore's stage profile: the same recorded
// Monte Carlo job is replayed on an 18-node cluster (nodes=) while the
// straggler probability sweeps upward, with and without speculation.
#include <cstdio>
#include <string>

#include "bench_common.hpp"

namespace ss::bench {
namespace {

int Run(const Args& args) {
  core::StudySpec spec = BenchSpec(/*snps=*/2000, /*sets=*/100);
  spec.pipeline.num_partitions = 144;
  spec.engine.topology = cluster::EmrCluster(18);
  spec = core::ApplyStudyKeys(args, spec).value();

  char scale[256];
  std::snprintf(scale, sizeof(scale), "patients=%u snps=%u partitions=%u",
                spec.generator.num_patients, spec.generator.num_snps,
                spec.pipeline.num_partitions);
  PrintBanner("bench_speculation",
              "Ablation: speculative execution vs stragglers (" +
                  std::to_string(spec.engine.topology.num_nodes) + " nodes)",
              scale);

  // One real execution provides the task profile.
  core::Study study = core::OpenStudy(spec).value();
  study.ctx->metrics().Reset();
  core::RunResampling(*study.pipeline,
                      {core::ResamplingMethod::kMonteCarlo, 10});
  const cluster::JobProfile profile = study.ctx->metrics().ToJobProfile();
  core::WriteRunArtifacts(args, *study.ctx);

  Table table("Predicted makespan (seconds) vs straggler rate",
              {"straggler probability", "no speculation", "speculation",
               "recovered"});
  for (double p : {0.0, 0.01, 0.02, 0.05, 0.10}) {
    cluster::CostModel model = spec.engine.cost_model;
    model.straggler_probability = p;
    model.straggler_slowdown = 10.0;
    const double plain =
        cluster::VirtualScheduler(spec.engine.topology, model)
            .Simulate(profile)
            .total_s;
    const double speculated =
        cluster::VirtualScheduler(spec.engine.topology, model, true)
            .Simulate(profile)
            .total_s;
    const double clean =
        cluster::VirtualScheduler(spec.engine.topology,
                                  spec.engine.cost_model)
            .Simulate(profile)
            .total_s;
    const double recovered =
        plain > clean ? (plain - speculated) / (plain - clean) : 0.0;
    table.AddRow({Table::Num(p, 2), Table::Num(plain, 2),
                  Table::Num(speculated, 2),
                  Table::Num(100.0 * recovered, 0) + "%"});
  }
  table.Print();
  std::printf("\nShape check: speculation should recover most of the "
              "straggler-induced slowdown at every rate.\n");
  return 0;
}

}  // namespace
}  // namespace ss::bench

int main(int argc, char** argv) {
  return ss::bench::RunBench(argc, argv, {}, ss::bench::Run);
}
