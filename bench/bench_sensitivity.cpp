// Sensitivity — Figure 3: with the product iterations x SNPs held
// constant, runtime within each method stays roughly flat (the same total
// work), while Monte Carlo beats permutation at every configuration.
//
// Paper configurations: 1000x10k, 100x100k, 10x1M (n=1000 patients).
// Default scale here divides both factors by ~10-20; override via
// `patients= work= reps=` where `work` = iterations x SNPs.
#include <cstdio>

#include "bench_common.hpp"

namespace ss::bench {
namespace {

int Run(const Args& args) {
  // Iteration counts are kept large relative to the single observed pass
  // (as in the paper, where even the 10-iteration configuration amortizes
  // the observed 1M-SNP pass); otherwise the observed pass skews the
  // few-iteration configurations upward.
  // Each configuration sets the SNP and set counts (snps= and sets= are
  // not accepted); every other workload and engine key applies.
  core::StudySpec base = BenchSpec(/*snps=*/1000, /*sets=*/10);
  base.generator.num_patients = 100;
  base = core::ApplyStudyKeys(args, base).value();
  const std::uint64_t work = args.GetU64("work", 300000);  // iters x snps
  const int reps = static_cast<int>(args.GetU64("reps", 2));

  char scale[256];
  std::snprintf(scale, sizeof(scale),
                "patients=%llu iterations*snps=%llu reps=%d (paper: "
                "n=1000, product=10^7)",
                static_cast<unsigned long long>(base.generator.num_patients),
                static_cast<unsigned long long>(work), reps);
  PrintBanner("bench_sensitivity",
              "Figure 3 (runtime under constant iterations x SNPs)", scale);

  // Three configurations spanning two orders of magnitude in the split,
  // like the paper's 1000x10k / 100x100k / 10x1M.
  struct Config {
    std::uint64_t iterations;
    std::uint64_t snps;
  };
  const std::vector<Config> configs = {
      {work / 1000, 1000}, {work / 10000, 10000}, {std::max<std::uint64_t>(work / 100000, 1), 100000}};

  Table figure3("Figure 3 — execution time (seconds), iterations x SNPs constant",
                {"iterations x SNPs", "Monte Carlo", "Permutation"});

  std::vector<double> mc_means;
  std::vector<double> perm_means;
  for (const Config& config : configs) {
    core::StudySpec spec = base;
    spec.generator.num_snps = static_cast<std::uint32_t>(config.snps);
    spec.generator.num_sets = static_cast<std::uint32_t>(
        std::max<std::uint64_t>(config.snps / 100, 1));

    const auto mc_runs =
        TimeAnalysisRuns(spec, reps, [&](core::SkatPipeline& pipeline) {
          core::RunResampling(pipeline, {core::ResamplingMethod::kMonteCarlo,
                                         config.iterations});
        });
    const auto perm_runs = TimeAnalysisRuns(
        spec, reps,
        [&](core::SkatPipeline& pipeline) {
          core::RunResampling(pipeline, {core::ResamplingMethod::kPermutation,
                                         config.iterations});
        },
        &args);
    mc_means.push_back(Mean(mc_runs));
    perm_means.push_back(Mean(perm_runs));
    figure3.AddRow({std::to_string(config.iterations) + " x " +
                        std::to_string(config.snps),
                    Table::Num(mc_means.back(), 3),
                    Table::Num(perm_means.back(), 3)});
  }
  figure3.Print();

  std::printf("\nShape checks:\n");
  for (std::size_t i = 0; i < configs.size(); ++i) {
    std::printf("  config %zu: MC %s permutation (%.3fs vs %.3fs)\n", i + 1,
                mc_means[i] < perm_means[i] ? "beats" : "does NOT beat",
                mc_means[i], perm_means[i]);
  }
  const double perm_spread =
      *std::max_element(perm_means.begin(), perm_means.end()) /
      std::max(1e-9, *std::min_element(perm_means.begin(), perm_means.end()));
  std::printf("  permutation spread across configs: %.2fx (paper: ~flat; "
              "per-iteration fixed costs make the few-iteration configs "
              "relatively cheaper at this scale)\n", perm_spread);
  return 0;
}

}  // namespace
}  // namespace ss::bench

int main(int argc, char** argv) {
  return ss::bench::RunBench(argc, argv, {"work", "reps"}, ss::bench::Run,
                             /*fixed=*/{"snps", "sets"});
}
