// Ablation benches for the paper's Section II motivation and for our own
// design choices (DESIGN.md §5):
//
//   1. Efficient score vs Wald/LRT (per-SNP Newton-Raphson): the paper
//      argues the score statistic's one-pass evaluation is what makes
//      GWAS-scale resampling feasible. We measure per-SNP cost of both and
//      report the Newton iteration counts and convergence failures the
//      Wald path must babysit.
//   2. O(n log n) risk-set suffix sums vs the naive O(n^2) definition.
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "stats/cox_score.hpp"
#include "stats/wald.hpp"

namespace ss::bench {
namespace {

int Run(const Args& args) {
  const auto patients = static_cast<std::uint32_t>(args.GetU64("patients", 1000));
  const auto snps = static_cast<std::uint32_t>(args.GetU64("snps", 400));

  char scale[256];
  std::snprintf(scale, sizeof(scale), "patients=%u snps=%u", patients, snps);
  PrintBanner("bench_score_vs_wald",
              "Section II motivation (score vs Wald/LRT) + risk-set ablation",
              scale);

  simdata::GeneratorConfig config;
  config.num_patients = patients;
  config.num_snps = snps;
  config.num_sets = std::max(1u, snps / 50);
  const simdata::SyntheticDataset dataset = simdata::Generate(config);
  const stats::RiskSetIndex index(dataset.survival);

  // -- 1. score vs Newton-Raphson MLE ----------------------------------------
  double score_total = 0.0;  // keep the optimizer honest
  const double score_seconds = TimeOnce([&]() {
    for (std::uint32_t j = 0; j < snps; ++j) {
      const auto u = stats::CoxScoreContributions(dataset.survival, index,
                                                  dataset.genotypes.by_snp[j]);
      score_total += stats::CoxScoreStatistic(u);
    }
  });

  long total_newton_iterations = 0;
  int non_converged = 0;
  double wald_total = 0.0;
  const double wald_seconds = TimeOnce([&]() {
    for (std::uint32_t j = 0; j < snps; ++j) {
      const stats::CoxMleResult result = stats::FitCoxMle(
          dataset.survival, index, dataset.genotypes.by_snp[j]);
      total_newton_iterations += result.iterations;
      if (!result.converged) ++non_converged;
      wald_total += result.wald_statistic;
    }
  });

  Table table1("Score test vs Wald/LRT (all SNPs, one analysis pass)",
               {"method", "total (s)", "us/SNP", "Newton iters/SNP",
                "non-converged"});
  table1.AddRow({"efficient score", Table::Num(score_seconds, 4),
                 Table::Num(1e6 * score_seconds / snps, 2), "0 (closed form)",
                 "0"});
  table1.AddRow({"Wald/LRT (Newton-Raphson)", Table::Num(wald_seconds, 4),
                 Table::Num(1e6 * wald_seconds / snps, 2),
                 Table::Num(static_cast<double>(total_newton_iterations) / snps, 2),
                 std::to_string(non_converged)});
  table1.Print();
  std::printf("  speedup of score over Wald/LRT: %.1fx (checksums %.3g/%.3g)\n\n",
              wald_seconds / std::max(1e-12, score_seconds), score_total,
              wald_total);

  // -- 2. fast vs naive risk-set computation ---------------------------------
  const std::uint32_t naive_snps = std::min(snps, 50u);  // O(n^2) is slow
  double fast_sum = 0.0;
  const double fast_seconds = TimeOnce([&]() {
    for (std::uint32_t j = 0; j < naive_snps; ++j) {
      for (double u : stats::CoxScoreContributions(
               dataset.survival, index, dataset.genotypes.by_snp[j])) {
        fast_sum += u;
      }
    }
  });
  double naive_sum = 0.0;
  const double naive_seconds = TimeOnce([&]() {
    for (std::uint32_t j = 0; j < naive_snps; ++j) {
      for (double u : stats::CoxScoreContributionsNaive(
               dataset.survival, dataset.genotypes.by_snp[j])) {
        naive_sum += u;
      }
    }
  });
  Table table2("Risk-set ablation: suffix sums vs naive O(n^2) definition",
               {"implementation", "SNPs", "total (s)", "us/SNP"});
  table2.AddRow({"suffix sums (O(n log n) setup + O(n)/SNP)",
                 std::to_string(naive_snps), Table::Num(fast_seconds, 4),
                 Table::Num(1e6 * fast_seconds / naive_snps, 2)});
  table2.AddRow({"naive O(n^2)/SNP", std::to_string(naive_snps),
                 Table::Num(naive_seconds, 4),
                 Table::Num(1e6 * naive_seconds / naive_snps, 2)});
  table2.Print();
  std::printf("  speedup: %.1fx; results agree to %.2e\n",
              naive_seconds / std::max(1e-12, fast_seconds),
              std::fabs(fast_sum - naive_sum));
  return 0;
}

}  // namespace
}  // namespace ss::bench

int main(int argc, char** argv) {
  return ss::core::RunStudyTool(argc, argv, /*begin=*/1,
                                {.keys = {"patients", "snps", "loglevel"}},
                                ss::LogLevel::kWarn, ss::bench::Run);
}
