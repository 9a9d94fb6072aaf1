// Serial-oracle reference for one workload and seed.
//
// The cohort is regenerated in memory with simdata::Generate (bitwise the
// data GenerateToStore staged) and analysed with the engine-free
// baseline::Serial* functions:
//   * observed statistics of every set (baseline::SerialObserved);
//   * exceedance counts (baseline::SerialMonteCarlo / SerialPermutation)
//     for a chosen list of sets. Sets partition the SNPs and each set's
//     statistic depends only on its own SNPs and the patient-level
//     multipliers or permutations, so the oracle runs on the sub-cohort
//     of those sets' SNPs — exact counts at a fraction of the cost — and
//     spreads the sets over threads.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/resampling_methods.hpp"
#include "simdata/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

class Reference {
 public:
  Reference(const Workload& workload, std::uint64_t seed);

  /// Observed statistic per set id, for every set.
  const std::unordered_map<std::uint32_t, double>& observed() const {
    return observed_;
  }
  const std::vector<ss::stats::SnpSet>& sets() const { return dataset_.sets; }

  /// Seeded sample of `count` set ids (all sets when count is 0 or
  /// covers them), ascending.
  std::vector<std::uint32_t> SampleSets(std::uint32_t count) const;

  /// Computes the workload's serial exceedance counts for `set_ids`.
  void ComputeExceedances(const std::vector<std::uint32_t>& set_ids);

  /// Analytic screen p-values the hybrid check compares against (set id ->
  /// p), recomputed by the caller from the pipeline's Gram matrices.
  void SetScreenPValues(std::unordered_map<std::uint32_t, double> screen_p) {
    screen_p_ = std::move(screen_p);
  }

  /// Empty when `result` matches the reference, else the first mismatch:
  /// exceedance counts exactly equal, observed statistics within 1e-9
  /// relative, analytic p-values within 1e-6 relative, and for hybrid
  /// runs the refined-set choice and per-set replicate use.
  std::string Check(const ss::core::ResamplingResult& result) const;

  std::size_t exceedance_sets() const { return exceed_.size(); }

 private:
  Workload workload_;
  std::uint64_t seed_;
  ss::simdata::SyntheticDataset dataset_;
  std::unordered_map<std::uint32_t, double> observed_;
  std::unordered_map<std::uint32_t, std::uint64_t> exceed_;
  std::unordered_map<std::uint32_t, double> screen_p_;
};

}  // namespace perfbench
