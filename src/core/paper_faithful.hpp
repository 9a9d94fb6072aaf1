// The paper-faithful regime (PipelineConfig::paper_faithful_scores): the U
// RDD of Algorithm 1 steps 6-7 and everything that reads it, run as the
// paper runs it.
//
//   - Steps 6-12 over U: the observed per-set scores (ComputeObserved) and
//     Algorithm 2's full per-replicate rebuild under a permuted phenotype
//     (ComputePermutationReplicate).
//   - Algorithm 3 over the cached U: one pass per batch of N(0,1)
//     multiplier blocks (ComputeMonteCarloScoreBlock), which builds U on
//     its first call. The observed marginal scores U_j are the pass of the
//     all-ones column (fl(1·U_ij) = U_ij), which the resampling driver
//     puts first in an exhaustive run's first block, as it does the
//     coefficients v on the default path; the pipeline's
//     CollectObservedScores is that column's count-1 pass.
//
// The default system never builds U: it scores packed genotypes against
// coefficient blocks (SkatPipeline::ComputeGenotypeScoreBlock). The
// pipeline creates this unit on its first paper-faithful call and keeps
// the same-named members as the entry points the faithful drivers and
// tests call.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "engine/broadcast.hpp"
#include "engine/dataset.hpp"
#include "stats/kernels/packed_genotype.hpp"
#include "stats/score_engine.hpp"
#include "stats/skat.hpp"

namespace ss::core {

class PaperFaithful {
 public:
  using WeightDataset = engine::Dataset<std::pair<std::uint32_t, double>>;

  /// Shares the pipeline's genotype and ω datasets (the engine caches
  /// per node, so a cached genotype partition serves both) and copies the
  /// driver-side phenotype and set membership it needs.
  PaperFaithful(engine::EngineContext& ctx, const PipelineConfig& config,
                engine::Dataset<stats::PackedSnpRecord> genotypes,
                WeightDataset weights, stats::Phenotype phenotype,
                const std::vector<stats::SnpSet>& sets);

  /// See SkatPipeline::ComputeObserved.
  SetScores ComputeObserved();

  /// See SkatPipeline::ComputeMonteCarloScoreBlock.
  ScoreBlock ComputeMonteCarloScoreBlock(
      const std::vector<double>& zblock, std::size_t count,
      std::shared_ptr<const std::unordered_set<std::uint32_t>> live_snps);

  /// See SkatPipeline::ComputePermutationReplicate.
  SetScores ComputePermutationReplicate(const std::vector<std::uint32_t>& perm);

 private:
  using UDataset =
      engine::Dataset<std::pair<std::uint32_t, std::vector<double>>>;

  /// (SNP, per-patient contributions) under `engine` — steps 6-7.
  UDataset BuildU(const engine::Broadcast<stats::ScoreEngine>& engine) const;

  /// Steps 8-12 from a U dataset: aggregate to per-set scores.
  SetScores SetScoresFromU(const UDataset& u) const;

  /// Materializes the observed U RDD if needed (shared by ComputeObserved
  /// and every Monte Carlo pass); caches it when Algorithm 3 will re-read
  /// it.
  void EnsureUBuilt();

  engine::EngineContext* ctx_ = nullptr;
  PipelineConfig config_;
  engine::Dataset<stats::PackedSnpRecord> genotypes_;
  WeightDataset weights_;
  stats::Phenotype phenotype_;
  std::vector<std::uint32_t> set_ids_;

  /// snp -> ids of sets containing it (broadcast for step 11).
  engine::Broadcast<std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>>
      snp_to_sets_;

  /// Observed-phenotype U RDD, kept so Algorithm 3 reuses it.
  UDataset u_observed_;
  bool u_built_ = false;
};

}  // namespace ss::core
