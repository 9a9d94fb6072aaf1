// Resampling plans: the randomness of Algorithms 2 and 3, generated up
// front so replicate b is a pure function of (seed, b) — independent of
// how replicates are scheduled across the cluster.
//
//   * PermutationPlan: B random shufflings of the phenotype pairs
//     (Algorithm 2 step 2).
//   * MonteCarloWeights: B x n standard-normal multipliers Z_i (Lin 2005;
//     Algorithm 3 step 3), applied as Ũ_j = Σ_i Z_i U_ij — or, with the
//     sums swapped, as Ũ_j = g_jᵀV(Z) (MonteCarloCoefficientBlock).
#pragma once

#include <cstdint>
#include <vector>

#include "stats/score_engine.hpp"

namespace ss::stats {

/// B permutations of 0..n-1.
class PermutationPlan {
 public:
  PermutationPlan(std::uint64_t seed, std::size_t n, std::size_t replicates);

  std::size_t replicates() const { return permutations_.size(); }
  std::size_t n() const { return n_; }

  /// Permutation for replicate b (deterministic in (seed, b)).
  const std::vector<std::uint32_t>& Get(std::size_t b) const {
    return permutations_[b];
  }

 private:
  std::size_t n_;
  std::vector<std::vector<std::uint32_t>> permutations_;
};

/// B vectors of n standard-normal Monte Carlo multipliers.
class MonteCarloWeights {
 public:
  MonteCarloWeights(std::uint64_t seed, std::size_t n, std::size_t replicates);

  std::size_t replicates() const { return weights_.size(); }
  std::size_t n() const { return n_; }

  const std::vector<double>& Get(std::size_t b) const { return weights_[b]; }

 private:
  std::size_t n_;
  std::vector<std::vector<double>> weights_;
};

/// Ũ_j for one replicate: dot product of the multipliers with the observed
/// per-patient contributions — the O(n) inner loop that makes Algorithm 3
/// cheap compared to recomputing scores from scratch.
double MonteCarloReplicateScore(const std::vector<double>& contributions,
                                const std::vector<double>& multipliers);

/// Contiguous patient-major block of standard-normal multipliers for
/// replicates [first, first+count): replicate r's multiplier for patient
/// i sits at [i*count + r], i.e. each patient's `count` multipliers are
/// adjacent. That layout is what lets the batched MAC kernels load a
/// vector of replicate lanes with one contiguous read instead of a
/// transpose. Each replicate is drawn from the same splittable stream as
/// MonteCarloWeights — Rng(seed).Split(b+1) — so replicate b's
/// multipliers are bitwise identical for every partitioning of the
/// replicate range into batches.
std::vector<double> MonteCarloZBlock(std::uint64_t seed, std::size_t n,
                                     std::uint64_t first, std::size_t count);

/// Algorithm 2's coefficient block: replicate r of [first, first+count)
/// shuffles the observed score coefficients `v` (ScoreEngine::
/// Coefficients()) by PermutationPlan's permutation π_{first+r}, stored
/// patient-major like MonteCarloZBlock: [i*count + r] = v[π_{first+r}[i]].
/// The permutations come from the same streams as PermutationPlan, so the
/// block is a pure function of (seed, v, first, count).
std::vector<double> PermutedCoefficientBlock(std::uint64_t seed,
                                             const std::vector<double>& v,
                                             std::uint64_t first,
                                             std::size_t count);

/// Algorithm 3's coefficient block: V(z) (ScoreEngine::CoefficientBlock)
/// of MonteCarloZBlock(seed, engine.n(), first, count), same layout. The
/// multipliers come from MonteCarloWeights' streams and every column is
/// computed on its own, so the block is a pure function of (seed, first,
/// count) and replicate b's column is bitwise the same in every batch.
std::vector<double> MonteCarloCoefficientBlock(std::uint64_t seed,
                                               const ScoreEngine& engine,
                                               std::uint64_t first,
                                               std::size_t count);

/// The batched form of MonteCarloReplicateScore: one pass over the
/// contributions computes Ũ_jb for all `count` replicates of a Z block
/// (MonteCarloZBlock layout), writing out[r] = Σ_i Z[i*count+r] · U_i. The
/// kernel is blocked over replicates so each contribution load feeds
/// several accumulators, but every accumulator still sums over i in
/// ascending order — out[r] is bitwise equal to
/// MonteCarloReplicateScore(contributions, row r).
void BatchedReplicateScores(const std::vector<double>& contributions,
                            const double* zblock, std::size_t count,
                            std::vector<double>* out);

/// The same scores written to `out[0..count)` in place (a row of a flat
/// score buffer).
void BatchedReplicateScores(const std::vector<double>& contributions,
                            const double* zblock, std::size_t count,
                            double* out);

}  // namespace ss::stats
