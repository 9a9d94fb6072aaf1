#include "stats/skat.hpp"

#include <algorithm>
#include <unordered_set>

namespace ss::stats {

Status ValidateSnpSets(const std::vector<SnpSet>& sets,
                       std::uint32_t num_snps) {
  if (sets.empty()) return Status::InvalidArgument("no SNP-sets");
  for (const SnpSet& set : sets) {
    if (set.snps.empty()) {
      return Status::InvalidArgument("SNP-set " + std::to_string(set.id) +
                                     " is empty");
    }
    for (std::uint32_t snp : set.snps) {
      if (snp >= num_snps) {
        return Status::InvalidArgument(
            "SNP-set " + std::to_string(set.id) + " references SNP " +
            std::to_string(snp) + " >= J=" + std::to_string(num_snps));
      }
    }
  }
  return CheckDistinctSetIds(sets);
}

Status CheckDistinctSetIds(const std::vector<SnpSet>& sets) {
  std::unordered_set<std::uint32_t> seen;
  seen.reserve(sets.size());
  for (const SnpSet& set : sets) {
    if (!seen.insert(set.id).second) {
      return Status::InvalidArgument("SNP-set id " + std::to_string(set.id) +
                                     " is repeated");
    }
  }
  return Status::Ok();
}

std::vector<std::uint32_t> UnionOfSets(const std::vector<SnpSet>& sets) {
  std::vector<std::uint32_t> all;
  for (const SnpSet& set : sets) {
    all.insert(all.end(), set.snps.begin(), set.snps.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

double SkatStatistic(
    const SnpSet& set,
    const std::unordered_map<std::uint32_t, double>& squared_scores,
    const std::unordered_map<std::uint32_t, double>& weights) {
  double statistic = 0.0;
  for (std::uint32_t snp : set.snps) {
    auto score_it = squared_scores.find(snp);
    if (score_it == squared_scores.end()) continue;  // SNP filtered out
    auto weight_it = weights.find(snp);
    const double w = weight_it == weights.end() ? 1.0 : weight_it->second;
    statistic += w * w * score_it->second;
  }
  return statistic;
}

std::vector<double> SkatStatistics(
    const std::vector<SnpSet>& sets,
    const std::unordered_map<std::uint32_t, double>& squared_scores,
    const std::unordered_map<std::uint32_t, double>& weights) {
  std::vector<double> statistics;
  statistics.reserve(sets.size());
  for (const SnpSet& set : sets) {
    statistics.push_back(SkatStatistic(set, squared_scores, weights));
  }
  return statistics;
}

}  // namespace ss::stats
