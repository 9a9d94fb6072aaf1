#include "stats/resampling.hpp"

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
    // Replicate r's draws come from the same splittable stream, in the
    // same order, as the per-replicate path; each lands straight in its
    // patient-major slot so the kernels read each patient's `count`
    // multipliers as one contiguous vector.
    Rng rng = root.Split(first + r + 1);
    for (std::size_t i = 0; i < n; ++i) block[i * count + r] = SampleNormal(rng);
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
  const double* u = contributions.data();
  const std::size_t n = contributions.size();
  std::size_t r = 0;
  // Four replicates per pass: each contribution is loaded once and feeds
  // four independent accumulators, which also hides the FP add latency
  // the single-accumulator dot product serializes on. The patient-major
  // Z layout puts the four replicates' multipliers for patient i in the
  // four adjacent slots at zblock[i*count + r].
  for (; r + 4 <= count; r += 4) {
    double acc0 = 0.0;
    double acc1 = 0.0;
    double acc2 = 0.0;
    double acc3 = 0.0;
    const double* z = zblock + r;
    for (std::size_t i = 0; i < n; ++i, z += count) {
      const double ui = u[i];
      acc0 += z[0] * ui;
      acc1 += z[1] * ui;
      acc2 += z[2] * ui;
      acc3 += z[3] * ui;
    }
    out[r + 0] = acc0;
    out[r + 1] = acc1;
    out[r + 2] = acc2;
    out[r + 3] = acc3;
  }
  for (; r < count; ++r) {
    const double* z = zblock + r;
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i, z += count) acc += z[0] * u[i];
    out[r] = acc;
  }
}

}  // namespace ss::stats
