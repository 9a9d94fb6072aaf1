#include "stats/cox_score.hpp"

#include "stats/kernels/kernels.hpp"
#include "support/status.hpp"

namespace ss::stats {

std::vector<double> CoxScoreContributions(
    const SurvivalData& data, const RiskSetIndex& index,
    const std::vector<std::uint8_t>& genotypes) {
  const std::size_t n = data.n();
  SS_CHECK(genotypes.size() == n);
  SS_CHECK(index.n() == n);

  // Prefix sums of genotype over the time-descending order: prefix[k] =
  // Σ_{r<k} G[order[r]]. Then a_ij = prefix[prefix_end(i)].
  const std::vector<std::uint32_t>& order = index.order();
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    prefix[k + 1] = prefix[k] + static_cast<double>(genotypes[order[k]]);
  }

  // The per-patient scan is a routed kernel (risk_count(i) ==
  // prefix_end(i), so the kernel derives b from the prefix-end array).
  std::vector<double> contributions(n);
  kernels::ActiveKernels().cox_scan(data.event.data(), genotypes.data(),
                                    prefix.data(), index.prefix_ends().data(),
                                    n, contributions.data());
  return contributions;
}

std::vector<double> CoxScoreCoefficients(
    const RiskSetIndex& index, const std::vector<double>& event_weights,
    std::size_t count) {
  const std::size_t n = index.n();
  SS_CHECK(event_weights.size() == n * count);
  const std::vector<std::uint32_t>& order = index.order();
  std::vector<double> coefficients(n * count);
  // `order` is time-descending and a tie group [begin, end) shares
  // prefix_end == end == b, so walking it backwards is ascending time.
  std::vector<double> hazard(count, 0.0);  // Σ w_i / b_i, groups seen so far
  std::size_t end = n;
  while (end > 0) {
    std::size_t begin = end;
    while (begin > 0 && index.prefix_end(order[begin - 1]) == end) --begin;
    const double b = static_cast<double>(end);
    for (std::size_t k = begin; k < end; ++k) {
      const double* w = &event_weights[order[k] * count];
      for (std::size_t r = 0; r < count; ++r) hazard[r] += w[r] / b;
    }
    for (std::size_t k = begin; k < end; ++k) {
      const double* w = &event_weights[order[k] * count];
      double* v = &coefficients[order[k] * count];
      for (std::size_t r = 0; r < count; ++r) v[r] = w[r] - hazard[r];
    }
    end = begin;
  }
  return coefficients;
}

std::vector<double> CoxScoreContributionsNaive(
    const SurvivalData& data, const std::vector<std::uint8_t>& genotypes) {
  const std::size_t n = data.n();
  SS_CHECK(genotypes.size() == n);
  std::vector<double> contributions(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (data.event[i] == 0) continue;
    double a = 0.0;
    double b = 0.0;
    for (std::size_t l = 0; l < n; ++l) {
      if (data.time[l] >= data.time[i]) {
        a += static_cast<double>(genotypes[l]);
        b += 1.0;
      }
    }
    contributions[i] = static_cast<double>(genotypes[i]) - a / b;
  }
  return contributions;
}

double CoxScoreStatistic(const std::vector<double>& contributions) {
  double total = 0.0;
  for (double u : contributions) total += u;
  return total;
}

double CoxScoreVariance(const std::vector<double>& contributions) {
  double total = 0.0;
  for (double u : contributions) total += u * u;
  return total;
}

}  // namespace ss::stats
