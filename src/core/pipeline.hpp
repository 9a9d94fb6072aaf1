// Algorithm 1: the SKAT dataflow on the minispark engine.
//
// Pipeline stages, numbered as in the paper:
//   1.  read input text files from the (mini-)DFS;
//   2.  Weights RDD:   line -> (SNP j, ω_j), squared to ω_j² where step 9
//       joins it;
//   3.  GM RDD:        line -> (SNP j, [G_1j ... G_nj]);
//   4.  FGM RDD:       filter GM to the union of all SNP-sets, stored as
//       2-bit packed genotype blocks (stats::PackedGenotypeBlock);
//   5.  broadcast the phenotype pairs (wrapped in a ScoreEngine that also
//       carries the SNP-invariant b_i risk counts) to all nodes;
//   6-7. U RDD:        (SNP j, [U_1j ... U_nj]);
//   8.  InnerSigma:    (SNP j, U_j²) with U_j = Σ_i U_ij;
//   9.  Join:          Weights ⋈ InnerSigma on SNP;
//   10. SNP score:     (SNP j, ω_j² U_j²);
//   11-12. per-set aggregation: S_k = Σ_{j∈I_k} score_j, returned as the
//       HashMap (SNP-set -> S_k).
//
// The default system never materializes steps 6-7's U RDD. U_j =
// Σ_l G_lj v_l with v the phenotype's score coefficients, a permutation
// only permutes v, and Monte Carlo multipliers z only change it to V(z)
// (Σ_i z_i U_ij = g_jᵀV(z)), so observed scores and replicates score the
// packed genotypes against coefficient blocks (ComputeGenotypeScoreBlock),
// and the adaptive screen's Gram rows and the single-SNP scan's [U_j, V_j]
// come from one transient pass each over the packed contributions
// (CollectSetGramMatrices, CollectVariantMoments). The U RDD, its cache
// and steps 8-12 over it live in the paper-faithful unit
// (core/paper_faithful.hpp), which ComputeObserved, CollectObservedScores,
// ComputeMonteCarloScoreBlock and ComputePermutationReplicate reach: the
// paper's Algorithm 3 over the cached U, and its Algorithm 2 re-executing
// steps 6-12 per replicate under a permuted phenotype.
//
// Every way in (Open, OpenFromStore, FromMemory and the parts constructor)
// produces the packed FGM dataset, the ω dataset, the phenotype and the
// sets, and hands them to one private constructor that does the rest.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/record_traits.hpp"  // IWYU pragma: keep (codec/byte-size traits)
#include "core/score_block.hpp"
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
  /// Reduce partitions for the joins/aggregations (spark.default.parallelism).
  std::uint32_t num_reducers = 8;

  /// Partitions for in-memory genotype sources (DFS sources use one
  /// partition per block instead).
  std::uint32_t num_partitions = 8;

  /// Cache the packed genotype partitions, which every resampling batch
  /// re-reads, and, under `paper_faithful_scores`, the U RDD (the
  /// prerequisite of the paper's Algorithm 3; Experiment B ablates it),
  /// which paper-faithful Monte Carlo re-reads every batch. Outside that
  /// mode no run builds the U RDD.
  bool cache_contributions = true;

  /// Memory budget for the engine's partition cache, applied to the
  /// context when the pipeline is built; 0 keeps the context's own
  /// setting. A budget small enough to force eviction drops cached
  /// partitions, which later misses recompute through lineage (see
  /// engine/cache_manager.hpp); the constrained-memory benches set this.
  std::uint64_t cache_budget_bytes = 0;

  /// Evaluate Cox contributions with the paper's per-patient formulation
  /// (O(n²) per SNP) instead of this library's O(n) risk-set path, run
  /// plain permutation as a full pipeline rebuild per replicate, and run
  /// Monte Carlo over the cached U RDD — instead of genotype score blocks
  /// for both. Reproduces the paper's cost regime (core/paper_faithful.hpp);
  /// outside it no run builds the U RDD, so this is the only setting under
  /// which Monte Carlo caches or recomputes U. SKAT-O
  /// scores genotype blocks either way. The timing benches set this; see
  /// stats/score_engine.hpp.
  bool paper_faithful_scores = false;

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

class PaperFaithful;

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
  /// off the mmap (an evicted partition is re-read from its frame).
  /// When `expected_fingerprint`
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
  /// weights (ω_j for SNP j = 0, 1, ...) and sets (the extension point for
  /// custom studies). The genotypes are filtered to the sets' SNPs and
  /// packed (steps 3-4). Set ids must be distinct (checked; Open and
  /// OpenFromStore return InvalidArgument instead).
  SkatPipeline(engine::EngineContext& ctx, const PipelineConfig& config,
               engine::Dataset<simdata::SnpRecord> genotypes,
               stats::Phenotype phenotype, std::vector<double> weights,
               std::vector<stats::SnpSet> sets);

  SkatPipeline(SkatPipeline&&) noexcept;
  SkatPipeline& operator=(SkatPipeline&&) noexcept;
  ~SkatPipeline();

  /// Steps 6-12 with the observed phenotype: S_k⁰ per set, through the
  /// paper-faithful unit. The first call defines the U RDD (cached only in
  /// paper-faithful mode; see PipelineConfig::cache_contributions).
  SetScores ComputeObserved();

  /// Algorithm 3's modified step 8 for a whole batch, as the paper runs
  /// it: per SNP, the signed replicate scores Ũ_jb = Σ_i Z_ib U_ij for all
  /// `count` replicates of a patient-major Z block (stats::MonteCarloZBlock
  /// layout), computed in ONE engine pass over the cached U partitions
  /// with the blocked stats::BatchedReplicateScores kernel; the first
  /// call builds U. An all-ones column scores the observed U_j bitwise
  /// (fl(1·U_ij) = U_ij, summed in ascending i from +0). Only
  /// paper-faithful Monte Carlo (`paper_faithful_scores`) uses it; every
  /// other run scores V(z) blocks with ComputeGenotypeScoreBlock. Each
  /// partition writes its rows straight into its own flat buffer, and the
  /// buffers move to the driver as one ScoreBlock; the per-set folds
  /// (steps 9-12) read it there in the serial oracle's canonical
  /// accumulation order — see core/resampling_methods.hpp. A non-null
  /// `live_snps` restricts the pass to those SNPs (every other record is
  /// skipped and has no row); each scored SNP's row is bitwise the same as
  /// in an unfiltered pass.
  ScoreBlock ComputeMonteCarloScoreBlock(
      const std::vector<double>& zblock, std::size_t count,
      std::shared_ptr<const std::unordered_set<std::uint32_t>> live_snps =
          nullptr);

  /// Algorithms 2 and 3 for a whole batch, without U: per SNP, the signed
  /// replicate scores Σ_i G_ij · vblock[i*count + r] for a patient-major
  /// block of score coefficients — permuted ones
  /// (stats::PermutedCoefficientBlock) or Monte Carlo V(z) ones
  /// (stats::MonteCarloCoefficientBlock); a column of the unpermuted
  /// coefficients v gives the observed scores (the resampling driver puts
  /// it first in an exhaustive run's first block, or scores it as a
  /// count-1 block). The driver builds the pre-scaled table [V; 2V; 3V]
  /// of the block (kernels::DosageScaledTable) and the pass's 256 × 4
  /// row-offset LUT (stats::DosageRowOffsets) once and broadcasts both;
  /// then one engine pass over the cached genotype partitions walks each
  /// SNP's packed bytes once into the list of table rows its non-zero
  /// genotypes select (PackedGenotypeBlock::DosageRowsInto), and the
  /// multiply-free sparse kernel (kernels::KernelTable::row_sum) adds
  /// them straight into its partition's flat buffer, bitwise equal to the
  /// dense MAC over all patients; live-SNP filter and collect as in
  /// ComputeMonteCarloScoreBlock.
  /// `zero_sum_columns` says every column of the block sums to zero
  /// exactly (permutation blocks, Cox V(z) blocks, the observed v); a
  /// constant genotype column then writes exact zeros in place, as its Cox
  /// U vector scores. Gaussian and Binomial Monte Carlo blocks (z∘v) do
  /// not sum to zero and pass false.
  ScoreBlock ComputeGenotypeScoreBlock(
      const std::vector<double>& vblock, std::size_t count,
      bool zero_sum_columns,
      std::shared_ptr<const std::unordered_set<std::uint32_t>> live_snps =
          nullptr);

  /// Observed per-SNP marginal scores U_j = Σ_i U_ij collected to the
  /// driver as a count-1 ScoreBlock: ComputeMonteCarloScoreBlock of the
  /// all-ones column.
  ScoreBlock CollectObservedScores();

  /// Driver-resident unsquared weights ω_j, collected once and memoized.
  const std::unordered_map<std::uint32_t, double>& DriverWeights();

  /// Per-set weighted Gram matrix M_ab = ω_a ω_b Σ_i U_ia U_ib of the
  /// observed contributions (set members in declaration order;
  /// filtered-out SNPs contribute zero rows/columns and are skipped).
  /// Under the Monte Carlo null the replicate statistic is exactly
  /// Σ_m λ_m χ²₁ with λ_m the eigenvalues of this matrix — the input to
  /// the analytic tail methods (stats/adaptive_pvalue.hpp). The
  /// contribution rows come from one pass over the packed genotypes into a
  /// transient count-n ScoreBlock; nothing is cached.
  std::unordered_map<std::uint32_t, stats::Matrix> CollectSetGramMatrices();

  /// The single-SNP scan's observed pass: per SNP, the count-2 row
  /// [U_j = Σ_i U_ij, V_j = Σ_i U_ij²] (sums over i ascending) from one
  /// transient pass over the contributions, as CollectSetGramMatrices
  /// builds its rows; V_j is quadratic in g_j, so no coefficient block
  /// yields it. A SNP whose genotypes do not vary has U_j = 0 exactly
  /// (Σ_l c·v_l = 0 for every model) rather than rounding noise.
  ScoreBlock CollectVariantMoments();

  /// Steps 6-12 from scratch under a permuted phenotype, through the
  /// paper-faithful unit: Algorithm 2 as the paper runs it, which
  /// RunResampling uses for plain (non-adaptive) permutation under
  /// `paper_faithful_scores`.
  SetScores ComputePermutationReplicate(const std::vector<std::uint32_t>& perm);

  const PipelineConfig& config() const { return config_; }
  const stats::Phenotype& phenotype() const { return phenotype_; }
  const std::vector<stats::SnpSet>& sets() const { return sets_; }
  engine::EngineContext& context() { return *ctx_; }

  /// Number of patients.
  std::size_t n() const { return phenotype_.n(); }

 private:
  using WeightDataset = engine::Dataset<std::pair<std::uint32_t, double>>;

  /// The one assembly path: takes the packed, filtered genotypes (step 4)
  /// and the ω dataset (step 2), applies the cache budget, records the
  /// kernel dispatch gauge and caches the genotypes when configured.
  SkatPipeline(engine::EngineContext& ctx, const PipelineConfig& config,
               engine::Dataset<stats::PackedSnpRecord> genotypes,
               stats::Phenotype phenotype, WeightDataset weights,
               std::vector<stats::SnpSet> sets);

  /// The paper-faithful unit, created on the first call that needs it.
  PaperFaithful& Faithful();

  engine::EngineContext* ctx_ = nullptr;
  PipelineConfig config_;

  /// Filtered genotype RDD (step 4), 2-bit packed: the cached genotype
  /// format. Genotype score blocks, the screen's contribution rows and the
  /// paper-faithful U decode from it.
  engine::Dataset<stats::PackedSnpRecord> genotypes_;
  WeightDataset weights_;  ///< ω (step 2); step 9 joins its square.
  stats::Phenotype phenotype_;
  std::vector<stats::SnpSet> sets_;

  std::unique_ptr<PaperFaithful> faithful_;

  /// Memoized DriverWeights() result.
  std::unordered_map<std::uint32_t, double> driver_weights_;
  bool driver_weights_built_ = false;
};

}  // namespace ss::core
