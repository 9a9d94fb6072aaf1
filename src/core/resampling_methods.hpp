// Algorithms 2 and 3: resampling inference drivers over the SkatPipeline.
//
// Both compute the observed scores S_k⁰ first, then run B replicates and
// count, per SNP-set, how many replicate statistics S_k^b meet or exceed
// S_k⁰ (the paper's counter_k). The empirical p-value follows directly.
//
//   * kPermutation — Algorithm 2: each replicate shuffles the phenotype
//     pairs. A shuffle only permutes the score coefficients v
//     (U_j^π = g_jᵀ(v∘π)), so replicates score the genotypes against
//     permuted coefficient blocks; plain (non-adaptive) runs under
//     `paper_faithful_scores` instead re-execute the full pipeline
//     (steps 6-12) per replicate.
//   * kMonteCarlo — Algorithm 3: replicates weight the observed
//     per-patient contributions with fresh N(0,1) multipliers z. Swapping
//     the sums, Σ_i z_i U_ij = g_jᵀV(z) with SNP-invariant coefficients
//     V(z), so replicates score the genotypes against V(z) blocks and U is
//     never built; runs under `paper_faithful_scores` instead reuse the
//     cached observed U RDD, re-executing only steps 8-12.
//   * kSkatO — the SKAT-O combination assessed over the same Monte Carlo
//     replicate pool, always from V(z) blocks.
//
// All methods share one batched driver loop: replicates are scheduled in
// batches of `ResamplingRequest::batch_size`, and a batch is ONE engine
// pass — an n×R block is broadcast and a blocked kernel computes every
// replicate's per-SNP scores: for V(z) or permuted coefficients, the
// rows of the block's pre-scaled [V; 2V; 3V] table that the non-zero
// genotypes of the cached genotype partitions select are summed
// (kernels::KernelTable::row_sum); paper-faithful Monte Carlo instead
// multiply-accumulates Z multipliers against the cached U partitions
// (stats::BatchedReplicateScores). Each pass collects one flat
// ScoreBlock, and the per-set folds run driver-side over it in the
// serial oracle's canonical accumulation order.
// Results are bitwise invariant to the batch size, the thread count,
// packing and the partitioning. The Monte Carlo ResamplingResult is
// bitwise equal to baseline::SerialMonteCarloFactored from the same seed;
// Gaussian and Binomial runs are also bitwise equal to the literal
// baseline::SerialMonteCarlo, which Cox runs match within rounding.
// Paper-faithful permutation re-executes the full pipeline per replicate
// (its cost model is the point of Experiment A), so for it a batch is a
// scheduling/telemetry unit only.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pipeline.hpp"
#include "support/status.hpp"

namespace ss::core {

/// How per-set p-values are computed (the adaptive p-value engine; the
/// analytic machinery itself lives in stats/adaptive_pvalue.hpp).
enum class PValueMethod {
  kResampling,   ///< Pure resampling counts (legacy default).
  kAnalytic,     ///< Liu moment-matched analytic tail; zero replicates.
  kSaddlepoint,  ///< Kuonen saddlepoint analytic tail; zero replicates.
  kHybrid,       ///< Saddlepoint screen; resampling only for small-p sets.
};

/// Parses a CLI `pmethod=` token: resampling|analytic|saddlepoint|hybrid.
Result<PValueMethod> ParsePValueMethod(const std::string& token);

/// Per-set adaptive-inference record. Present only for adaptive runs
/// (pvalue_method != kResampling or early_stop != 0); legacy runs leave
/// ResamplingResult::inference empty and are byte-identical to before.
struct SetInference {
  /// Analytic tail p-value (Liu or saddlepoint, per the method). 1.0 for
  /// sets that were never screened (kResampling with early stopping).
  double analytic_p = 1.0;

  /// Replicates this set actually consumed (≤ B; 0 if screened out).
  std::uint64_t replicates_used = 0;

  /// The Besag–Clifford stopper fired before B replicates.
  bool early_stopped = false;

  /// Resampling refinement ran for this set (its p-value comes from
  /// counts, not the analytic screen).
  bool refined = false;
};

/// Result of a resampling run, keyed by SNP-set id.
struct ResamplingResult {
  SetScores observed;                                      ///< S_k⁰.
  std::unordered_map<std::uint32_t, std::uint64_t> exceed; ///< counter_k.
  std::uint64_t replicates = 0;                            ///< B.

  /// Adaptive per-set inference; EMPTY for legacy pure-resampling runs.
  std::unordered_map<std::uint32_t, SetInference> inference;

  /// Besag–Clifford exceedance target h of the run (0 = no early stop).
  std::uint64_t early_stop_h = 0;

  /// P-value for one set. Legacy runs: the empirical (c+1)/(B+1).
  /// Adaptive runs route through the set's SetInference: analytic tail
  /// for unrefined sets, counts over the consumed replicates for refined
  /// ones (h/L when early-stopped — stats::PValueFromCounts).
  double PValue(std::uint32_t set_id) const;

  /// (set id, p-value) sorted ascending by p-value.
  std::vector<std::pair<std::uint32_t, double>> RankedPValues() const;
};

/// SKAT-O extension (Lee et al., the paper's [17]): per set, the optimal
/// ρ-combination of the SKAT and burden statistics, with the min-p
/// combination assessed over the same Monte Carlo replicate pool.
struct SkatOResult {
  /// Per set id: observed SKAT, observed burden, combined p-value.
  struct PerSet {
    double skat = 0.0;
    double burden = 0.0;
    double pvalue = 1.0;
  };
  std::unordered_map<std::uint32_t, PerSet> by_set;
  std::uint64_t replicates = 0;

  /// (set id, p-value) sorted ascending.
  std::vector<std::pair<std::uint32_t, double>> RankedPValues() const;
};

/// Observer of a resampling run. Batching breaks the old assumption that
/// one replicate is one engine pass, so progress is reported at both
/// granularities: batch boundaries delimit engine work, replicate events
/// fire once per counted replicate. All callbacks run on the driver
/// thread; default implementations ignore the event.
class ProgressSink {
 public:
  virtual ~ProgressSink() = default;

  /// Batch `batch_index` covering replicates [begin, end) is about to
  /// execute (one engine pass, except for paper-faithful permutation).
  virtual void OnBatchBegin(std::uint64_t /*batch_index*/,
                            std::uint64_t /*begin*/, std::uint64_t /*end*/) {}

  /// Replicate b's per-set statistics S_k^b, emitted just before
  /// OnReplicate(b). Permutation and Monte Carlo only (SKAT-O replicates
  /// carry ρ-grids, not a single statistic per set). In adaptive runs
  /// (pvalue_method != kResampling or early_stop != 0) only the sets
  /// still live at the start of b's batch are scored, so
  /// `scores` holds exactly those: refined sets whose stopper had not yet
  /// stopped. Each entry is bitwise the set's S_k^b in an exhaustive run
  /// from the same seed.
  virtual void OnReplicateScores(std::uint64_t /*b*/,
                                 const SetScores& /*scores*/) {}

  /// Replicate b has been folded into the exceedance counters.
  virtual void OnReplicate(std::uint64_t /*b*/) {}

  virtual void OnBatchEnd(std::uint64_t /*batch_index*/,
                          std::uint64_t /*begin*/, std::uint64_t /*end*/) {}
};

enum class ResamplingMethod {
  kPermutation,  ///< Algorithm 2.
  kMonteCarlo,   ///< Algorithm 3 (Lin 2005).
  kSkatO,        ///< SKAT-O over the Monte Carlo replicate pool.
};

/// One resampling run, fully specified. This is the engine's ONLY public
/// resampling driver API (the former per-method entry points
/// RunPermutationMethod/RunMonteCarloMethod/RunSkatOMethod are gone).
struct ResamplingRequest {
  ResamplingRequest() = default;
  /// The common case in one line:
  /// `RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, 1000})`.
  ResamplingRequest(ResamplingMethod method_in, std::uint64_t replicates_in)
      : method(method_in), replicates(replicates_in) {}

  ResamplingMethod method = ResamplingMethod::kMonteCarlo;

  /// B. 0 computes only the observed statistics.
  std::uint64_t replicates = 0;

  /// Replicates per scheduled batch; 0 defers to the pipeline's
  /// PipelineConfig::resampling_batch_size. Bitwise-irrelevant to the
  /// results; 1 recovers one-engine-pass-per-replicate scheduling.
  std::uint64_t batch_size = 0;

  /// Seed for the resampling plans; unset defers to PipelineConfig::seed.
  std::optional<std::uint64_t> seed;

  /// P-value engine for kPermutation/kMonteCarlo (ignored with a warning
  /// by kSkatO). kResampling is the legacy pure-counting path and leaves
  /// results byte-identical to before this knob existed. The analytic
  /// tails are EXACT for the Monte Carlo null (the replicate statistic is
  /// exactly Σ λ_m χ²₁ there) and the standard asymptotic approximation
  /// for the permutation null.
  PValueMethod pvalue_method = PValueMethod::kResampling;

  /// kHybrid only: sets whose analytic screen p-value is below this get
  /// resampling refinement; the rest keep the analytic tail and consume
  /// zero replicates.
  double refine_threshold = 0.01;

  /// Besag–Clifford sequential early stopping: a set stops consuming
  /// replicates once `early_stop` exceedances have been observed, with
  /// the estimate p̂ = h/L (conservatively biased up by ≈ p/h).
  /// 0 disables (exhaustive counting).
  /// Stopping decisions are made per-replicate in the canonical order, so
  /// results are bitwise invariant to batch size / threads / prefetch.
  std::uint64_t early_stop = 0;

  /// Optional progress observer; not owned, may be null.
  ProgressSink* sink = nullptr;
};

/// Outcome of RunResampling: `scores` is populated for kPermutation and
/// kMonteCarlo, `skato` for kSkatO.
struct ResamplingRun {
  ResamplingMethod method = ResamplingMethod::kMonteCarlo;
  ResamplingResult scores;
  SkatOResult skato;
};

/// Unified entry point for all resampling methods. Note the SKAT-O min-p
/// evaluation is O(B²·|grid|) per set on the driver, so B in the hundreds
/// is the practical range for kSkatO (as in the SKAT-O literature).
ResamplingRun RunResampling(SkatPipeline& pipeline,
                            const ResamplingRequest& request);

}  // namespace ss::core
