// bench_pvalue — adaptive p-value engine: replicate savings vs the
// exhaustive resampling baseline, with the statistical-equivalence
// contract re-checked on the measured run (a speedup that changed the
// answers would be meaningless).
//
// Runs the same generated study twice from the same seed: once with the
// legacy exhaustive counter (pmethod=resampling) and once in hybrid mode
// (saddlepoint screen + Besag–Clifford early stopping). Reports replicate
// consumption, wall time, per-set agreement, and the savings ratio.
//
// Keys: reps= h= threshold= datapoint=<json path>, plus the workload and
// engine keys; trace= and metrics= describe the hybrid run.
// `datapoint=` writes a BENCH_pvalue.json datapoint consumed by
// tools/check_bench.py (the bench_pvalue_smoke ctest gate:
// savings >= 10x, zero classification disagreements, tolerances hold).
// The datapoint also records wall_ratio (hybrid seconds / exhaustive
// seconds) with the host's core count and kernel level; wall time is
// reported, not gated — at smoke scale a run lasts a fraction of a
// second and its timing would flake.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "stats/kernels/kernels.hpp"

namespace ss::bench {
namespace {

/// Equivalence tolerance, same contract as the integration battery:
/// 5 MC standard errors + 3% relative, plus the stopped estimator's own
/// noise for early-stopped sets.
double Tolerance(double p_exh, std::uint64_t replicates, bool early_stopped,
                 std::uint64_t h) {
  const double mc_sd =
      std::sqrt(std::max(p_exh * (1.0 - p_exh), 1e-12) /
                static_cast<double>(replicates));
  double tol = 5.0 * mc_sd + 0.03 * p_exh;
  if (early_stopped && h > 1) {
    tol += 5.0 * p_exh / std::sqrt(static_cast<double>(h - 1));
  }
  return tol;
}

int Run(const Args& args) {
  core::StudySpec spec = BenchSpec(/*snps=*/1200, /*sets=*/60);
  spec.use_dfs = false;  // the p-value engine, not the ingest path
  spec = core::ApplyStudyKeys(args, spec).value();
  const std::uint64_t replicates = args.GetU64("reps", 1000);
  const std::uint64_t h = args.GetU64("h", 9);
  const double threshold = args.GetDouble("threshold", 0.05);
  const std::uint64_t seed = spec.generator.seed;

  char scale[200];
  std::snprintf(scale, sizeof(scale),
                "patients=%u snps=%u sets=%u reps=%llu h=%llu threshold=%g",
                spec.generator.num_patients, spec.generator.num_snps,
                spec.generator.num_sets,
                static_cast<unsigned long long>(replicates),
                static_cast<unsigned long long>(h), threshold);
  PrintBanner("bench_pvalue",
              "adaptive p-value engine: hybrid screen + early stopping vs "
              "exhaustive resampling",
              scale);

  core::ResamplingResult exhaustive;
  double exhaustive_seconds = 0.0;
  {
    core::Study study = core::OpenStudy(spec).value();
    core::ResamplingRequest request(core::ResamplingMethod::kMonteCarlo,
                                    replicates);
    exhaustive_seconds = TimeOnce([&] {
      exhaustive = core::RunResampling(*study.pipeline, request).scores;
    });
  }

  core::ResamplingResult hybrid;
  double hybrid_seconds = 0.0;
  {
    core::Study study = core::OpenStudy(spec).value();
    core::ResamplingRequest request(core::ResamplingMethod::kMonteCarlo,
                                    replicates);
    request.pvalue_method = core::PValueMethod::kHybrid;
    request.refine_threshold = threshold;
    request.early_stop = h;
    hybrid_seconds = TimeOnce([&] {
      hybrid = core::RunResampling(*study.pipeline, request).scores;
    });
    core::WriteRunArtifacts(args, *study.ctx);
  }

  const std::uint64_t num_sets = hybrid.inference.size();
  const std::uint64_t exhaustive_replicates = replicates * num_sets;
  std::uint64_t hybrid_replicates = 0;
  std::uint64_t refined_sets = 0;
  std::uint64_t early_stops = 0;
  std::uint64_t disagreements = 0;
  std::uint64_t tolerance_violations = 0;
  double max_abs_diff = 0.0;
  constexpr double kAlpha = 0.05;
  for (const auto& [set_id, info] : hybrid.inference) {
    hybrid_replicates += info.replicates_used;
    if (info.refined) ++refined_sets;
    if (info.early_stopped) ++early_stops;
    const double p_exh = exhaustive.PValue(set_id);
    const double p_hyb = hybrid.PValue(set_id);
    const double diff = std::fabs(p_hyb - p_exh);
    max_abs_diff = std::max(max_abs_diff, diff);
    if (diff > Tolerance(p_exh, replicates, info.early_stopped, h)) {
      ++tolerance_violations;
      std::fprintf(stderr, "TOLERANCE set %u: exhaustive %.6g hybrid %.6g\n",
                   set_id, p_exh, p_hyb);
    }
    // Classification agreement outside the exemption band [alpha/2, 2*alpha].
    if ((p_exh < 0.5 * kAlpha || p_exh > 2.0 * kAlpha) &&
        (p_exh < kAlpha) != (p_hyb < kAlpha)) {
      ++disagreements;
      std::fprintf(stderr, "DISAGREEMENT set %u: exhaustive %.6g hybrid %.6g\n",
                   set_id, p_exh, p_hyb);
    }
  }
  const double savings =
      static_cast<double>(exhaustive_replicates) /
      static_cast<double>(std::max<std::uint64_t>(1, hybrid_replicates));
  const double wall_ratio = hybrid_seconds / exhaustive_seconds;
  const unsigned nproc = std::thread::hardware_concurrency();
  const char* kernel_level = stats::kernels::DispatchLevelName(
      stats::kernels::ActiveDispatchLevel());

  Table table("Adaptive p-value engine — replicate consumption",
              {"mode", "set-replicates", "seconds"});
  table.AddRow({"exhaustive", std::to_string(exhaustive_replicates),
                MeanStdevCell({exhaustive_seconds})});
  table.AddRow({"hybrid", std::to_string(hybrid_replicates),
                MeanStdevCell({hybrid_seconds})});
  table.Print();
  std::printf(
      "savings %.1fx | wall ratio %.3f (hybrid/exhaustive, %u cores, %s) | "
      "%llu/%llu sets refined, %llu early-stopped | "
      "max |dp| %.3g | %llu disagreements, %llu tolerance violations\n",
      savings, wall_ratio, nproc, kernel_level,
      static_cast<unsigned long long>(refined_sets),
      static_cast<unsigned long long>(num_sets),
      static_cast<unsigned long long>(early_stops), max_abs_diff,
      static_cast<unsigned long long>(disagreements),
      static_cast<unsigned long long>(tolerance_violations));

  const std::string out_path = args.GetStr("datapoint", "");
  if (!out_path.empty()) {
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "could not write datapoint to %s\n",
                   out_path.c_str());
      return 1;
    }
    std::fprintf(
        out,
        "{\"bench\":\"bench_pvalue\",\"patients\":%u,\"snps\":%u,"
        "\"sets\":%u,\"reps\":%llu,\"h\":%llu,\"threshold\":%g,"
        "\"seed\":%llu,\"nproc\":%u,\"kernel_level\":\"%s\","
        "\"exhaustive\":{\"set_replicates\":%llu,\"seconds\":%.6f},"
        "\"hybrid\":{\"set_replicates\":%llu,\"seconds\":%.6f,"
        "\"refined_sets\":%llu,\"early_stops\":%llu},"
        "\"savings_ratio\":%.4f,\"wall_ratio\":%.4f,"
        "\"max_abs_diff\":%.9g,"
        "\"disagreements\":%llu,\"tolerance_violations\":%llu}\n",
        spec.generator.num_patients, spec.generator.num_snps,
        spec.generator.num_sets,
        static_cast<unsigned long long>(replicates),
        static_cast<unsigned long long>(h), threshold,
        static_cast<unsigned long long>(seed), nproc, kernel_level,
        static_cast<unsigned long long>(exhaustive_replicates),
        exhaustive_seconds,
        static_cast<unsigned long long>(hybrid_replicates), hybrid_seconds,
        static_cast<unsigned long long>(refined_sets),
        static_cast<unsigned long long>(early_stops), savings, wall_ratio,
        max_abs_diff,
        static_cast<unsigned long long>(disagreements),
        static_cast<unsigned long long>(tolerance_violations));
    std::fclose(out);
    std::printf("datapoint written to %s\n", out_path.c_str());
  }

  return (disagreements == 0 && tolerance_violations == 0) ? 0 : 1;
}

}  // namespace
}  // namespace ss::bench

int main(int argc, char** argv) {
  return ss::bench::RunBench(argc, argv,
                             {"reps", "h", "threshold", "datapoint"},
                             ss::bench::Run);
}
