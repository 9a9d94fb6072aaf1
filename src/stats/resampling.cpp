#include "stats/resampling.hpp"

#include "stats/kernels/kernels.hpp"
#include "support/distributions.hpp"
#include "support/status.hpp"

namespace ss::stats {

PermutationPlan::PermutationPlan(std::uint64_t seed, std::size_t n,
                                 std::size_t replicates)
    : n_(n) {
  permutations_.reserve(replicates);
  Rng root(seed);
  for (std::size_t b = 0; b < replicates; ++b) {
    Rng rng = root.Split(b + 1);
    permutations_.push_back(SamplePermutation(rng, n));
  }
}

MonteCarloWeights::MonteCarloWeights(std::uint64_t seed, std::size_t n,
                                     std::size_t replicates)
    : n_(n) {
  weights_.reserve(replicates);
  Rng root(seed);
  for (std::size_t b = 0; b < replicates; ++b) {
    Rng rng = root.Split(b + 1);
    weights_.push_back(SampleNormalVector(rng, n));
  }
}

double MonteCarloReplicateScore(const std::vector<double>& contributions,
                                const std::vector<double>& multipliers) {
  SS_CHECK(contributions.size() == multipliers.size());
  double score = 0.0;
  for (std::size_t i = 0; i < contributions.size(); ++i) {
    score += multipliers[i] * contributions[i];
  }
  return score;
}

std::vector<double> MonteCarloZBlock(std::uint64_t seed, std::size_t n,
                                     std::uint64_t first, std::size_t count) {
  std::vector<double> block(n * count);
  Rng root(seed);
  for (std::size_t r = 0; r < count; ++r) {
    // Replicate r's draws come from the same splittable stream as the
    // per-replicate path; only the storage is transposed to patient-major
    // so the MAC kernels read each patient's `count` multipliers as one
    // contiguous vector (no transpose or strided loads on the hot path).
    Rng rng = root.Split(first + r + 1);
    const std::vector<double> row = SampleNormalVector(rng, n);
    for (std::size_t i = 0; i < n; ++i) block[i * count + r] = row[i];
  }
  return block;
}

std::vector<double> PermutedCoefficientBlock(std::uint64_t seed,
                                             const std::vector<double>& v,
                                             std::uint64_t first,
                                             std::size_t count) {
  const std::size_t n = v.size();
  std::vector<double> block(n * count);
  Rng root(seed);
  for (std::size_t r = 0; r < count; ++r) {
    Rng rng = root.Split(first + r + 1);
    const std::vector<std::uint32_t> perm = SamplePermutation(rng, n);
    for (std::size_t i = 0; i < n; ++i) block[i * count + r] = v[perm[i]];
  }
  return block;
}

std::vector<double> MonteCarloCoefficientBlock(std::uint64_t seed,
                                               const ScoreEngine& engine,
                                               std::uint64_t first,
                                               std::size_t count) {
  return engine.CoefficientBlock(
      MonteCarloZBlock(seed, engine.n(), first, count), count);
}

void BatchedReplicateScores(const std::vector<double>& contributions,
                            const double* zblock, std::size_t count,
                            std::vector<double>* out) {
  out->resize(count);
  BatchedReplicateScores(contributions, zblock, count, out->data());
}

void BatchedReplicateScores(const std::vector<double>& contributions,
                            const double* zblock, std::size_t count,
                            double* out) {
  // The blocked scalar MAC moved to kernels::internal::BatchedMacScalar;
  // the dispatch table selects it or a bitwise-identical SIMD variant.
  kernels::ActiveKernels().batched_mac(contributions.data(),
                                       contributions.size(), zblock, count,
                                       out);
}

}  // namespace ss::stats
