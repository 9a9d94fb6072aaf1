// Experiment A — scalability & runtime predictability of Monte Carlo vs
// permutation resampling. Reproduces Figure 2 (runtime vs iterations for
// both methods) and Table III (mean ± stdev over repeated runs).
//
// Paper shape to reproduce:
//   * permutation grows steeply (≈ linearly) with the iteration count;
//   * Monte Carlo stays nearly flat through hundreds of iterations;
//   * MC at the largest iteration count still beats permutation at 16;
//   * standard deviations stay small relative to means (predictability).
//
// Paper scale (Table II): n=1000 patients, 100k SNPs, 1000 sets, 6 nodes.
// Default scale here is ~50x smaller per dimension; override via
// `patients= snps= sets= mc_max_iters= reps=`.
#include <cstdio>

#include "bench_common.hpp"

namespace ss::bench {
namespace {

int Run(const Args& args) {
  core::StudySpec spec = BenchSpec(/*snps=*/2000, /*sets=*/100);
  spec.generator.num_patients = 300;
  spec = core::ApplyStudyKeys(args, spec).value();
  const std::uint64_t mc_max = args.GetU64("mc_max_iters", 1000);
  const int reps = static_cast<int>(args.GetU64("reps", 5));

  char scale[256];
  std::snprintf(scale, sizeof(scale),
                "patients=%u snps=%u sets=%u nodes=%d reps=%d batch=%llu "
                "(paper: 1000/100000/1000/6/5)",
                spec.generator.num_patients, spec.generator.num_snps,
                spec.generator.num_sets,
                spec.engine.topology.num_nodes, reps,
                static_cast<unsigned long long>(
                    spec.pipeline.resampling_batch_size));
  PrintBanner("bench_experiment_a",
              "Figure 2 + Tables II & III (MC vs permutation scalability)",
              scale);

  const std::vector<std::uint64_t> both_methods = {0, 2, 4, 8, 16};
  std::vector<std::uint64_t> mc_only;
  for (std::uint64_t b : {100ULL, 1000ULL, 10000ULL}) {
    if (b <= mc_max) mc_only.push_back(b);
  }

  Table figure2("Figure 2 — execution time (seconds) vs iterations",
                {"iterations", "Monte Carlo", "Permutation"});
  Table table3("Table III — mean ± stdev over repeated runs (seconds)",
               {"iterations", "Monte Carlo", "Permutation"});

  std::vector<double> mc16;
  std::vector<double> perm16;
  for (std::uint64_t iters : both_methods) {
    const auto mc_runs =
        TimeAnalysisRuns(spec, reps, [&](core::SkatPipeline& pipeline) {
          core::RunResampling(pipeline,
                              {core::ResamplingMethod::kMonteCarlo, iters});
        });
    const auto perm_runs =
        TimeAnalysisRuns(spec, reps, [&](core::SkatPipeline& pipeline) {
          core::RunResampling(pipeline,
                              {core::ResamplingMethod::kPermutation, iters});
        });
    figure2.AddRow({std::to_string(iters), Table::Num(Mean(mc_runs), 3),
                    Table::Num(Mean(perm_runs), 3)});
    table3.AddRow({std::to_string(iters), MeanStdevCell(mc_runs),
                   MeanStdevCell(perm_runs)});
    if (iters == 16) {
      mc16 = mc_runs;
      perm16 = perm_runs;
    }
  }

  double mc_at_max = 0.0;
  for (std::uint64_t iters : mc_only) {
    const auto mc_runs = TimeAnalysisRuns(
        spec, std::min(reps, 2), [&](core::SkatPipeline& pipeline) {
          core::RunResampling(pipeline,
                              {core::ResamplingMethod::kMonteCarlo, iters});
        });
    figure2.AddRow({std::to_string(iters), Table::Num(Mean(mc_runs), 3),
                    "N/A (too slow in the paper as well)"});
    table3.AddRow({std::to_string(iters), MeanStdevCell(mc_runs), "N/A"});
    mc_at_max = Mean(mc_runs);
  }

  figure2.Print();
  table3.Print();

  // Honesty row: the serial (engine-free) baseline on the same data and
  // seed. On one physical machine the engine cannot beat it — this
  // quantifies the orchestration overhead the distributed machinery costs
  // at this scale (the engine pays off only with real parallel hardware,
  // which the strong-scaling bench models).
  {
    const simdata::SyntheticDataset dataset =
        simdata::Generate(spec.generator);
    const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
    baseline::SkatInputs inputs{&dataset.genotypes, &phenotype,
                                &dataset.weights, &dataset.sets};
    const double serial_seconds = TimeOnce([&]() {
      baseline::SerialMonteCarlo(inputs, spec.generator.seed, 16);
    });
    const auto engine_runs = TimeAnalysisRuns(
        spec, 1,
        [&](core::SkatPipeline& pipeline) {
          core::RunResampling(pipeline,
                              {core::ResamplingMethod::kMonteCarlo, 16});
        },
        &args);
    std::printf("\nSerial baseline (engine-free, fast scores), MC B=16: "
                "%.3fs; engine (1 machine, faithful scores): %.3fs — the "
                "engine's overhead buys fault tolerance and the ability to "
                "scale out.\n",
                serial_seconds, Mean(engine_runs));
  }

  const double speedup16 = Mean(perm16) / std::max(1e-9, Mean(mc16));
  std::printf("\nShape checks (paper claims in parentheses):\n");
  std::printf("  MC speedup over permutation at 16 iterations: %.1fx "
              "(paper: ~an order of magnitude)\n", speedup16);
  if (!mc_only.empty()) {
    std::printf("  MC at %llu iterations %s permutation at 16 iterations "
                "(paper: MC@10000 < permutation@16): %.3fs vs %.3fs\n",
                static_cast<unsigned long long>(mc_only.back()),
                mc_at_max < Mean(perm16) ? "BEATS" : "does NOT beat",
                mc_at_max, Mean(perm16));
  }
  return 0;
}

}  // namespace
}  // namespace ss::bench

int main(int argc, char** argv) {
  return ss::bench::RunBench(argc, argv, {"mc_max_iters", "reps"},
                             ss::bench::Run);
}
