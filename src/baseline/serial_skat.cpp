#include "baseline/serial_skat.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "stats/pvalue.hpp"
#include "stats/resampling.hpp"
#include "support/status.hpp"

namespace ss::baseline {
namespace {

void CheckInputs(const SkatInputs& inputs) {
  SS_CHECK(inputs.genotypes != nullptr);
  SS_CHECK(inputs.phenotype != nullptr);
  SS_CHECK(inputs.weights != nullptr);
  SS_CHECK(inputs.sets != nullptr);
  SS_CHECK(inputs.genotypes->num_patients == inputs.phenotype->n());
  SS_CHECK(inputs.weights->size() == inputs.genotypes->num_snps());
}

/// SKAT statistics for all sets given per-SNP marginal scores U_j.
std::vector<double> SkatFromScores(const SkatInputs& inputs,
                                   const std::vector<double>& scores) {
  std::unordered_map<std::uint32_t, double> squared;
  squared.reserve(scores.size());
  for (std::uint32_t j = 0; j < scores.size(); ++j) {
    squared[j] = scores[j] * scores[j];
  }
  std::unordered_map<std::uint32_t, double> weights;
  weights.reserve(inputs.weights->size());
  for (std::uint32_t j = 0; j < inputs.weights->size(); ++j) {
    weights[j] = (*inputs.weights)[j];
  }
  return stats::SkatStatistics(*inputs.sets, squared, weights);
}

/// Marginal scores U_j for all SNPs under `engine`'s phenotype.
std::vector<double> MarginalScores(const SkatInputs& inputs,
                                   const stats::ScoreEngine& engine) {
  const std::uint32_t m = inputs.genotypes->num_snps();
  std::vector<double> scores(m);
  for (std::uint32_t j = 0; j < m; ++j) {
    double total = 0.0;
    for (double u : engine.Contributions(inputs.genotypes->by_snp[j])) {
      total += u;
    }
    scores[j] = total;
  }
  return scores;
}

/// Observed per-patient contributions U_ij (by SNP) plus the marginal
/// scores U_j — the Algorithm 3 state computed once and reused by every
/// replicate (what caching makes cheap in the distributed version).
struct ObservedContributions {
  std::vector<std::vector<double>> by_snp;
  std::vector<double> scores;
};

ObservedContributions ComputeObservedContributions(
    const SkatInputs& inputs, const stats::ScoreEngine& engine) {
  const std::uint32_t m = inputs.genotypes->num_snps();
  ObservedContributions observed;
  observed.by_snp.resize(m);
  observed.scores.resize(m);
  for (std::uint32_t j = 0; j < m; ++j) {
    observed.by_snp[j] = engine.Contributions(inputs.genotypes->by_snp[j]);
    double total = 0.0;
    for (double u : observed.by_snp[j]) total += u;
    observed.scores[j] = total;
  }
  return observed;
}

}  // namespace

double SkatAnalysis::PValue(std::size_t k) const {
  return stats::EmpiricalPValue(exceed_count[k], replicates);
}

SkatAnalysis SerialObserved(const SkatInputs& inputs) {
  CheckInputs(inputs);
  stats::ScoreEngine engine(*inputs.phenotype);
  SkatAnalysis analysis;
  analysis.observed = SkatFromScores(inputs, MarginalScores(inputs, engine));
  analysis.exceed_count.assign(inputs.sets->size(), 0);
  return analysis;
}

SkatAnalysis SerialPermutation(const SkatInputs& inputs, std::uint64_t seed,
                               std::uint64_t replicates) {
  SkatAnalysis analysis = SerialObserved(inputs);
  analysis.replicates = replicates;
  const stats::PermutationPlan plan(seed, inputs.phenotype->n(), replicates);
  for (std::uint64_t b = 0; b < replicates; ++b) {
    // Full recomputation per replicate: new phenotype ordering, new
    // SNP-invariant structures, new scores — exactly Algorithm 2.
    const stats::Phenotype permuted = inputs.phenotype->Permuted(plan.Get(b));
    stats::ScoreEngine engine(permuted);
    const std::vector<double> statistics =
        SkatFromScores(inputs, MarginalScores(inputs, engine));
    for (std::size_t k = 0; k < statistics.size(); ++k) {
      if (statistics[k] >= analysis.observed[k]) ++analysis.exceed_count[k];
    }
  }
  return analysis;
}

SkatAnalysis SerialMonteCarlo(const SkatInputs& inputs, std::uint64_t seed,
                              std::uint64_t replicates) {
  CheckInputs(inputs);
  stats::ScoreEngine engine(*inputs.phenotype);
  const std::uint32_t m = inputs.genotypes->num_snps();
  const ObservedContributions observed =
      ComputeObservedContributions(inputs, engine);

  SkatAnalysis analysis;
  analysis.observed = SkatFromScores(inputs, observed.scores);
  analysis.exceed_count.assign(inputs.sets->size(), 0);
  analysis.replicates = replicates;

  const stats::MonteCarloWeights mc(seed, inputs.phenotype->n(), replicates);
  std::vector<double> replicate_scores(m);
  for (std::uint64_t b = 0; b < replicates; ++b) {
    const std::vector<double>& z = mc.Get(b);
    for (std::uint32_t j = 0; j < m; ++j) {
      replicate_scores[j] =
          stats::MonteCarloReplicateScore(observed.by_snp[j], z);
    }
    const std::vector<double> statistics =
        SkatFromScores(inputs, replicate_scores);
    for (std::size_t k = 0; k < statistics.size(); ++k) {
      if (statistics[k] >= analysis.observed[k]) ++analysis.exceed_count[k];
    }
  }
  return analysis;
}

std::vector<std::vector<double>> SerialMonteCarloReplicateStatistics(
    const SkatInputs& inputs, std::uint64_t seed, std::uint64_t replicates) {
  CheckInputs(inputs);
  stats::ScoreEngine engine(*inputs.phenotype);
  const std::uint32_t m = inputs.genotypes->num_snps();
  const ObservedContributions observed =
      ComputeObservedContributions(inputs, engine);

  const stats::MonteCarloWeights mc(seed, inputs.phenotype->n(), replicates);
  std::vector<std::vector<double>> statistics;
  statistics.reserve(replicates);
  std::vector<double> replicate_scores(m);
  for (std::uint64_t b = 0; b < replicates; ++b) {
    const std::vector<double>& z = mc.Get(b);
    for (std::uint32_t j = 0; j < m; ++j) {
      replicate_scores[j] =
          stats::MonteCarloReplicateScore(observed.by_snp[j], z);
    }
    statistics.push_back(SkatFromScores(inputs, replicate_scores));
  }
  return statistics;
}

SkatAnalysis SerialMonteCarloFactored(
    const SkatInputs& inputs, std::uint64_t seed, std::uint64_t replicates,
    std::vector<std::vector<double>>* replicate_statistics) {
  CheckInputs(inputs);
  const stats::ScoreEngine engine(*inputs.phenotype);
  const std::uint32_t m = inputs.genotypes->num_snps();
  const bool zero_sum_columns = engine.MultiplierColumnsSumToZero();
  std::vector<double> scores(m);
  const auto score_genotypes = [&](const std::vector<double>& v) {
    for (std::uint32_t j = 0; j < m; ++j) {
      const std::vector<std::uint8_t>& g = inputs.genotypes->by_snp[j];
      double total = 0.0;
      if (!zero_sum_columns ||
          std::adjacent_find(g.begin(), g.end(), std::not_equal_to<>()) !=
              g.end()) {
        for (std::size_t l = 0; l < g.size(); ++l) {
          total += v[l] * static_cast<double>(g[l]);
        }
      }
      scores[j] = total;
    }
    return SkatFromScores(inputs, scores);
  };

  SkatAnalysis analysis;
  analysis.observed = score_genotypes(engine.Coefficients());
  analysis.exceed_count.assign(inputs.sets->size(), 0);
  analysis.replicates = replicates;
  if (replicate_statistics != nullptr) replicate_statistics->clear();
  for (std::uint64_t b = 0; b < replicates; ++b) {
    const std::vector<double> statistics = score_genotypes(
        stats::MonteCarloCoefficientBlock(seed, engine, b, 1));
    for (std::size_t k = 0; k < statistics.size(); ++k) {
      if (statistics[k] >= analysis.observed[k]) ++analysis.exceed_count[k];
    }
    if (replicate_statistics != nullptr) {
      replicate_statistics->push_back(statistics);
    }
  }
  return analysis;
}

SkatAnalysis SerialMonteCarloBatched(const SkatInputs& inputs,
                                     std::uint64_t seed,
                                     std::uint64_t replicates,
                                     std::uint64_t batch_size) {
  CheckInputs(inputs);
  stats::ScoreEngine engine(*inputs.phenotype);
  const std::uint32_t m = inputs.genotypes->num_snps();
  const ObservedContributions observed =
      ComputeObservedContributions(inputs, engine);

  SkatAnalysis analysis;
  analysis.observed = SkatFromScores(inputs, observed.scores);
  analysis.exceed_count.assign(inputs.sets->size(), 0);
  analysis.replicates = replicates;

  const std::uint64_t batch = std::max<std::uint64_t>(1, batch_size);
  const std::size_t n = inputs.phenotype->n();
  std::vector<std::vector<double>> block_scores(m);  // [snp][replicate]
  std::vector<double> replicate_scores(m);
  for (std::uint64_t begin = 0; begin < replicates; begin += batch) {
    const std::size_t count =
        static_cast<std::size_t>(std::min(replicates, begin + batch) - begin);
    const std::vector<double> zblock =
        stats::MonteCarloZBlock(seed, n, begin, count);
    for (std::uint32_t j = 0; j < m; ++j) {
      stats::BatchedReplicateScores(observed.by_snp[j], zblock.data(), count,
                                    &block_scores[j]);
    }
    for (std::size_t r = 0; r < count; ++r) {
      for (std::uint32_t j = 0; j < m; ++j) {
        replicate_scores[j] = block_scores[j][r];
      }
      const std::vector<double> statistics =
          SkatFromScores(inputs, replicate_scores);
      for (std::size_t k = 0; k < statistics.size(); ++k) {
        if (statistics[k] >= analysis.observed[k]) ++analysis.exceed_count[k];
      }
    }
  }
  return analysis;
}

}  // namespace ss::baseline
