// Model-generic efficient-score computation.
//
// The SparkScore framework diagram (paper Fig 1) lists "Score Statistics
// (Cox, Binomial, Gaussian, etc.)" as pluggable; ScoreEngine is that plug
// point. It owns a phenotype, precomputes the SNP-invariant quantities
// once per analysis (the risk-set index b_i for Cox — the invariance the
// paper highlights —, the phenotype mean for Gaussian, the case rate for
// Binomial), and then maps any SNP's genotype vector to per-patient score
// contributions U_ij in O(n).
//
// Instances are immutable after construction and safe to share across
// executor threads (they are broadcast to all tasks by the pipeline).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "stats/linear_score.hpp"
#include "stats/logistic_score.hpp"
#include "stats/survival.hpp"

namespace ss::stats {

enum class ScoreModel : std::uint8_t { kCox, kGaussian, kBinomial };

const char* ScoreModelName(ScoreModel model);

/// Tagged union of the phenotypes the models accept.
struct Phenotype {
  ScoreModel model = ScoreModel::kCox;
  SurvivalData survival;       ///< used when model == kCox
  QuantitativeData quantitative;  ///< used when model == kGaussian
  BinaryData binary;           ///< used when model == kBinomial

  static Phenotype Cox(SurvivalData data);
  static Phenotype Gaussian(QuantitativeData data);
  static Phenotype Binomial(BinaryData data);

  std::size_t n() const;

  /// Permutation replicate: patient i receives the phenotype previously
  /// held by patient perm[i] (Algorithm 2's shuffle).
  Phenotype Permuted(const std::vector<std::uint32_t>& perm) const;
};

class ScoreEngine {
 public:
  /// Precomputes the SNP-invariant structures for `phenotype`.
  ///
  /// `paper_faithful` selects the paper's per-patient evaluation of the
  /// Cox contributions (Algorithm 1 step 7 computes U[SNP_j, Patient_i]
  /// directly from the definition, an O(n) scan per patient and thus
  /// O(n²) per SNP). The default is this library's O(n)-per-SNP risk-set
  /// suffix-sum path; both produce identical values (unit-tested), but
  /// the faithful mode reproduces the paper's cost regime — it is what
  /// makes permutation resampling as punishing as Figures 2-5 show.
  /// Non-Cox models have no risk sets, so the flag is a no-op for them.
  explicit ScoreEngine(Phenotype phenotype, bool paper_faithful = false);

  const Phenotype& phenotype() const { return phenotype_; }
  std::size_t n() const { return phenotype_.n(); }

  /// Per-patient contributions U_ij for one SNP; O(n).
  std::vector<double> Contributions(
      const std::vector<std::uint8_t>& genotypes) const;

  /// The phenotype's score coefficients v: for every genotype column G,
  /// Σ_i Contributions(G)_i = Σ_l G_l v_l up to rounding. Cox:
  /// v_l = Δ_l − Σ_{i: Y_i <= Y_l} Δ_i / b_i; Gaussian: y − ȳ; Binomial:
  /// y − p̄. Σ_l v_l = 0 for all three. A permutation replicate only
  /// permutes v — Coefficients() of Phenotype::Permuted(perm) is
  /// v[perm[i]] at patient i — so Algorithm 2 can score genotypes
  /// against permuted copies of v instead of rebuilding U. O(n).
  std::vector<double> Coefficients() const;

 private:
  Phenotype phenotype_;
  bool paper_faithful_ = false;
  std::unique_ptr<RiskSetIndex> risk_index_;  ///< Cox only.
  double center_ = 0.0;                       ///< Ȳ or p̄.
};

}  // namespace ss::stats
