// Algorithm 1: the SKAT dataflow on the minispark engine.
//
// Pipeline stages, numbered as in the paper:
//   1.  read input text files from the (mini-)DFS;
//   2.  Weights RDD:   line -> (SNP j, ω_j²);
//   3.  GM RDD:        line -> (SNP j, [G_1j ... G_nj]);
//   4.  FGM RDD:       filter GM to the union of all SNP-sets;
//   5.  broadcast the phenotype pairs (wrapped in a ScoreEngine that also
//       carries the SNP-invariant b_i risk counts) to all nodes;
//   6-7. U RDD:        (SNP j, [U_1j ... U_nj]);
//   8.  InnerSigma:    (SNP j, U_j²) with U_j = Σ_i U_ij;
//   9.  Join:          Weights ⋈ InnerSigma on SNP;
//   10. SNP score:     (SNP j, ω_j² U_j²);
//   11-12. per-set aggregation: S_k = Σ_{j∈I_k} score_j, returned as the
//       HashMap (SNP-set -> S_k).
//
// The U RDD is exposed so paper-faithful Algorithm 3 can cache and reuse
// it. Every other resampling run avoids it: U_j = Σ_l G_lj v_l with v the
// phenotype's score coefficients, a permutation only permutes v, and Monte
// Carlo multipliers z only change it to V(z) (Σ_i z_i U_ij = g_jᵀV(z)),
// so replicates score the genotypes against coefficient blocks
// (ComputeGenotypeScoreBlock). Re-executing steps 6-12 per replicate with
// a permuted phenotype (ComputePermutationReplicate) is kept for the
// paper-faithful cost regime.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/record_traits.hpp"  // IWYU pragma: keep (codec/byte-size traits)
#include "engine/broadcast.hpp"
#include "engine/dataset.hpp"
#include "simdata/dfs_writer.hpp"
#include "simdata/generator.hpp"
#include "simdata/text_format.hpp"
#include "stats/kernels/packed_genotype.hpp"
#include "stats/linalg.hpp"
#include "stats/score_engine.hpp"
#include "stats/skat.hpp"
#include "support/status.hpp"

namespace ss::core {

/// Per-set observed statistics, keyed by set id (the paper's "HashMap").
using SetScores = std::unordered_map<std::uint32_t, double>;

struct PipelineConfig {
  stats::ScoreModel model = stats::ScoreModel::kCox;

  /// Reduce partitions for the joins/aggregations (spark.default.parallelism).
  std::uint32_t num_reducers = 8;

  /// Partitions for in-memory genotype sources (DFS sources use one
  /// partition per block instead).
  std::uint32_t num_partitions = 8;

  /// Cache the U RDD (the prerequisite of the paper's Algorithm 3;
  /// Experiment B ablates it) and the packed genotype partitions. Caching
  /// U now matters only to paper-faithful Monte Carlo, the one resampling
  /// path that re-reads U every batch (the adaptive screen reads it once,
  /// for its Grams); every other run re-reads the genotypes instead.
  bool cache_contributions = true;

  /// Memory budget for the engine's partition cache, applied to the
  /// context when the pipeline is built; 0 keeps the context's own
  /// setting. A budget small enough to force eviction makes cached U
  /// partitions spill to the second tier (see engine/cache_manager.hpp);
  /// the constrained-memory benches set this.
  std::uint64_t cache_budget_bytes = 0;

  /// Store filtered genotypes as 2-bit packed blocks
  /// (stats::PackedGenotypeBlock): ~4x fewer bytes per cached/spilled
  /// genotype partition under `cache_budget=`, decoded to dosages just
  /// before scoring. Packing is lossless, so results are bitwise
  /// identical either way; `pack=0` in the CLI/benches is the ablation.
  bool pack_genotypes = true;

  /// Evaluate Cox contributions with the paper's per-patient formulation
  /// (O(n²) per SNP) instead of this library's O(n) risk-set path, run
  /// plain permutation as a full pipeline rebuild per replicate, and run
  /// Monte Carlo over the cached U RDD — instead of genotype score blocks
  /// for both. Reproduces the paper's cost regime; outside it, Monte Carlo
  /// never builds U (only the adaptive screen does), so this is the only
  /// setting under which Monte Carlo caches, spills or reloads U. SKAT-O
  /// scores genotype blocks either way. The timing benches set this; see
  /// stats/score_engine.hpp.
  bool paper_faithful_scores = false;

  /// When non-empty (and the context has a DFS), the observed U RDD is
  /// checkpointed to this DFS path after its first materialization,
  /// truncating its lineage: replicates then read the replicated
  /// checkpoint instead of recomputing from the genotype inputs after a
  /// failure — the right trade for very long resampling chains.
  std::string checkpoint_contributions_path;

  /// Seed for the resampling plans layered on top (Algorithms 2/3).
  std::uint64_t seed = 2016;

  /// Resampling replicates per engine pass: each batch broadcasts an n×R
  /// block (Monte Carlo V(z) or permuted coefficients; Z multipliers for
  /// paper-faithful Monte Carlo) and computes all R replicate scores in
  /// one blocked kernel over the cached genotype or U partitions,
  /// amortizing the per-pass scheduling cost. Results are bitwise
  /// invariant to this knob; 1 recovers one-pass-per-replicate scheduling
  /// (the ablation baseline). 0 is treated as 1.
  std::uint64_t resampling_batch_size = 64;
};

class SkatPipeline {
 public:
  /// Opens a study staged in the context's MiniDfs (Algorithm 1 steps 1-5).
  /// The phenotype and SNP-sets are small and driver-resident (as in the
  /// paper, which broadcasts the former and holds the latter in the
  /// closure); genotypes and weights stay distributed.
  static Result<SkatPipeline> Open(engine::EngineContext& ctx,
                                   const simdata::StudyPaths& paths,
                                   const PipelineConfig& config);

  /// Opens a cohort staged in a memory-mapped genotype store
  /// (simdata::GenerateToStore) — no MiniDfs, no re-ingest: the phenotype,
  /// weights and SNP-sets decode from the store's aux frames and the
  /// genotype matrix becomes a StoreGenotypeNode streaming packed frames
  /// off the mmap (pack_genotypes is implied). When `expected_fingerprint`
  /// is set and does not match the file's, refuses with InvalidArgument
  /// naming both fingerprints and the store's provenance description —
  /// a stale store never silently stands in for different parameters.
  static Result<SkatPipeline> OpenFromStore(
      engine::EngineContext& ctx, const std::string& store_path,
      const PipelineConfig& config,
      std::optional<std::uint64_t> expected_fingerprint = std::nullopt);

  /// Builds the same pipeline from an in-memory dataset (tests, examples).
  static SkatPipeline FromMemory(engine::EngineContext& ctx,
                                 const simdata::SyntheticDataset& dataset,
                                 const PipelineConfig& config);

  /// Builds from parts: a genotype dataset plus driver-side phenotype,
  /// weights and sets (the extension point for custom studies).
  SkatPipeline(engine::EngineContext& ctx, const PipelineConfig& config,
               engine::Dataset<simdata::SnpRecord> genotypes,
               stats::Phenotype phenotype, std::vector<double> weights,
               std::vector<stats::SnpSet> sets);

  /// Steps 6-12 with the observed phenotype: S_k⁰ per set. The first call
  /// materializes (and, if configured, caches) the U RDD.
  SetScores ComputeObserved();

  /// Steps 8-12 reusing the (cached) observed U RDD with Monte Carlo
  /// multipliers z (Algorithm 3's modified step 8): S̃_k per set.
  SetScores ComputeMonteCarloReplicate(const std::vector<double>& multipliers);

  /// Algorithm 3's modified step 8 for a whole batch, as the paper runs
  /// it: per SNP, the signed replicate scores Ũ_jb = Σ_i Z_ib U_ij for all
  /// `count` replicates of a patient-major Z block (stats::MonteCarloZBlock
  /// layout), computed in ONE engine pass over the cached U partitions
  /// with the blocked stats::BatchedReplicateScores kernel. Only
  /// paper-faithful Monte Carlo (`paper_faithful_scores`) uses it; every
  /// other run scores V(z) blocks with ComputeGenotypeScoreBlock. The
  /// per-set folds (steps 9-12) happen driver-side in the resampling
  /// driver, in the serial oracle's canonical accumulation order — see
  /// core/resampling_methods.hpp. A non-null `live_snps` restricts the
  /// pass to those SNPs (every other record is skipped and absent from
  /// the result); each scored SNP's vector is bitwise the same as in an
  /// unfiltered pass.
  std::unordered_map<std::uint32_t, std::vector<double>>
  ComputeMonteCarloScoreBlock(
      const std::vector<double>& zblock, std::size_t count,
      std::shared_ptr<const std::unordered_set<std::uint32_t>> live_snps =
          nullptr);

  /// Algorithms 2 and 3 for a whole batch, without U: per SNP, the signed
  /// replicate scores Σ_i G_ij · vblock[i*count + r] for a patient-major
  /// block of score coefficients — permuted ones
  /// (stats::PermutedCoefficientBlock) or Monte Carlo V(z) ones
  /// (stats::MonteCarloCoefficientBlock); count 1 with the unpermuted
  /// coefficients gives the observed scores. One engine pass over the
  /// cached genotype partitions — packed ones are unpacked per SNP —
  /// with the same blocked kernel, live-SNP filter and collect as
  /// ComputeMonteCarloScoreBlock. `zero_sum_columns` says every column
  /// of the block sums to zero exactly (permutation blocks, Cox V(z)
  /// blocks, the observed v); a constant genotype column then scores
  /// exactly 0, as its Cox U vector does. Gaussian and Binomial Monte
  /// Carlo blocks (z∘v) do not sum to zero and pass false.
  std::unordered_map<std::uint32_t, std::vector<double>>
  ComputeGenotypeScoreBlock(
      const std::vector<double>& vblock, std::size_t count,
      bool zero_sum_columns,
      std::shared_ptr<const std::unordered_set<std::uint32_t>> live_snps =
          nullptr);

  /// Observed per-SNP marginal scores U_j = Σ_i U_ij collected to the
  /// driver (one double per filtered SNP), for paper-faithful Monte
  /// Carlo's canonical observed fold. Materializes the U RDD like
  /// ComputeObserved.
  std::unordered_map<std::uint32_t, double> CollectObservedScores();

  /// Driver-resident unsquared weights ω_j, collected once and memoized.
  const std::unordered_map<std::uint32_t, double>& DriverWeights();

  /// Per-set weighted Gram matrix M_ab = ω_a ω_b Σ_i U_ia U_ib over the
  /// observed U RDD (set members in declaration order; filtered-out SNPs
  /// contribute zero rows/columns and are skipped). Under the Monte Carlo
  /// null the replicate statistic is exactly Σ_m λ_m χ²₁ with λ_m the
  /// eigenvalues of this matrix — the input to the analytic tail methods
  /// (stats/adaptive_pvalue.hpp). Materializes the U RDD like
  /// ComputeObserved.
  std::unordered_map<std::uint32_t, stats::Matrix> CollectSetGramMatrices();

  /// Steps 6-12 from scratch under a permuted phenotype: Algorithm 2 as
  /// the paper runs it, which RunResampling uses for plain (non-adaptive)
  /// permutation under `paper_faithful_scores`.
  SetScores ComputePermutationReplicate(const std::vector<std::uint32_t>& perm);

  const PipelineConfig& config() const { return config_; }
  const stats::Phenotype& phenotype() const { return phenotype_; }
  const std::vector<stats::SnpSet>& sets() const { return sets_; }
  engine::EngineContext& context() { return *ctx_; }

  /// Number of patients.
  std::size_t n() const { return phenotype_.n(); }

  /// Drops the cached U RDD (between bench configurations).
  void UnpersistContributions();

 private:
  /// Empty shell for OpenFromStore, which assembles the members itself
  /// (there is no SnpRecord dataset to hand the public constructor).
  SkatPipeline() = default;

  /// (SNP, per-patient contributions) under `engine` — steps 6-7.
  engine::Dataset<std::pair<std::uint32_t, std::vector<double>>> BuildU(
      const engine::Broadcast<stats::ScoreEngine>& engine) const;

  /// Steps 8-12 from a U dataset: aggregate to per-set scores.
  SetScores SetScoresFromU(
      const engine::Dataset<std::pair<std::uint32_t, std::vector<double>>>& u)
      const;

  /// Steps 9-12 from per-SNP squared marginal scores.
  SetScores SetScoresFromInnerSigma(
      const engine::Dataset<std::pair<std::uint32_t, double>>& inner_sigma)
      const;

  /// Materializes the U RDD if needed (shared by all observed paths).
  void EnsureUBuilt();

  engine::EngineContext* ctx_ = nullptr;
  PipelineConfig config_;

  engine::Dataset<simdata::SnpRecord> fgm_;  ///< Filtered genotype RDD (step 4).

  /// 2-bit packed form of fgm_ (the cached/spilled genotype format when
  /// `pack_genotypes` is set); all U builds and genotype score blocks
  /// decode from this instead.
  engine::Dataset<stats::PackedSnpRecord> fgm_packed_;
  engine::Dataset<std::pair<std::uint32_t, double>> weights_sq_;  ///< Step 2.
  engine::Dataset<std::pair<std::uint32_t, double>> weights_;  ///< Unsquared ω (SKAT-O path).
  stats::Phenotype phenotype_;
  std::vector<stats::SnpSet> sets_;

  /// snp -> ids of sets containing it (broadcast for step 11).
  engine::Broadcast<std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>>
      snp_to_sets_;

  /// Observed-phenotype U RDD, kept so Algorithm 3 reuses it.
  engine::Dataset<std::pair<std::uint32_t, std::vector<double>>> u_observed_;
  bool u_built_ = false;

  /// Memoized DriverWeights() result.
  std::unordered_map<std::uint32_t, double> driver_weights_;
  bool driver_weights_built_ = false;
};

}  // namespace ss::core
