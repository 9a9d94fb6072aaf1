// SNP-set aggregation: the Sequence Kernel Association Test statistic
// (Wu et al. 2011; paper Section II).
//
//     S_k = Σ_{j ∈ I_k} ω_j² U_j²
//
// where I_k is the set of SNPs in gene/pathway k and ω_j a per-SNP weight
// (genotyping quality, allelic frequency, predicted deleteriousness, ...).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/status.hpp"

namespace ss::stats {

/// A SNP-set (gene): id plus member SNP indices. Mirrors the paper's
/// partition {I_1, ..., I_K} of SNPs 1..J.
struct SnpSet {
  std::uint32_t id = 0;
  std::vector<std::uint32_t> snps;
};

/// Validates that `sets` form a partition-like family over SNPs 0..J-1:
/// each set non-empty, all member indices < J. (The paper's sets are a
/// partition; the statistic itself tolerates overlap, so overlap is
/// allowed but emptiness is not.) Set ids must be distinct
/// (CheckDistinctSetIds).
Status ValidateSnpSets(const std::vector<SnpSet>& sets, std::uint32_t num_snps);

/// InvalidArgument naming the first repeated set id, if any. Results are
/// keyed by set id, so two sets sharing one would overwrite each other.
Status CheckDistinctSetIds(const std::vector<SnpSet>& sets);

/// Union of all member SNP indices, deduplicated and sorted — Algorithm 1
/// step 4 filters the genotype matrix to this set.
std::vector<std::uint32_t> UnionOfSets(const std::vector<SnpSet>& sets);

/// S_k for one set given per-SNP squared scores and weights.
/// `squared_scores[j]` = U_j², `weights[j]` = ω_j.
double SkatStatistic(const SnpSet& set,
                     const std::unordered_map<std::uint32_t, double>& squared_scores,
                     const std::unordered_map<std::uint32_t, double>& weights);

/// All S_k at once; result[k] corresponds to sets[k].
std::vector<double> SkatStatistics(
    const std::vector<SnpSet>& sets,
    const std::unordered_map<std::uint32_t, double>& squared_scores,
    const std::unordered_map<std::uint32_t, double>& weights);

}  // namespace ss::stats
