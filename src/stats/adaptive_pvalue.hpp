// Adaptive p-value engine: analytic tail approximations for the SKAT
// quadratic form plus sequential early stopping for resampling — the
// machinery that makes genome-wide thresholds (p ≈ 5e-8) reachable
// without ~1e9 replicates per set.
//
// Under the Monte Carlo null (Lin 2005), the replicate score vector
// Ũ = (Σ_i Z_i U_ij)_j is EXACTLY N(0, G) with G_jj' = Σ_i U_ij U_ij',
// so the replicate statistic Q̃ = Σ_j ω_j² Ũ_j² is exactly the quadratic
// form Σ_m λ_m χ²₁ with λ_m the eigenvalues of W G W (W = diag ω).
// Resampling estimates this tail by simulation; the two analytic methods
// here evaluate it directly from the spectrum:
//
//   * moment-matched (Satterthwaite / Liu et al. 2009, per Larson & Owen
//     2014): match cumulants κ_m = 2^{m-1}(m-1)! Σ λ^m to a (noncentral)
//     chi-square — cheap, excellent in the body, degrades in deep tails;
//   * saddlepoint (Kuonen 1999, per Johnsen et al. 2021): Lugannani–Rice
//     inversion of the exact CGF K(t) = -½ Σ log(1-2tλ) — near-exact
//     relative error uniformly into the far tail.
//
// Sequential early stopping (Besag & Clifford 1991) terminates a set's
// resampling once h exceedances have been observed: clearly-null sets
// stop after ~h/p replicates with the estimate p̂ = h/L (conservatively
// biased up by ≈ p/h, never anti-conservative). The
// stopping decision is a pure function of the ordered replicate
// indicator sequence, so the driver can evaluate it per-replicate in the
// canonical fold order and stay bitwise invariant to batch size and
// thread count.
//
// Driver integration (method selection, hybrid screen→refine, per-set
// budgets) lives in core/resampling_methods.*; this header is pure math.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/linalg.hpp"

namespace ss::stats {

/// Spectrum of the SKAT null quadratic form for one set: eigenvalues of
/// the weighted Gram matrix M_ab = ω_a ω_b Σ_i U_ia U_ib, descending,
/// with negative round-off eigenvalues clamped to zero. `weighted_gram`
/// is that M (members in set-declaration order).
std::vector<double> NullSpectrumFromGram(const Matrix& weighted_gram);

/// Satterthwaite two-moment match: Q ≈ a·χ²(ν) with a = c2/c1,
/// ν = c1²/c2 (c_m = Σ λ^m). The classic screen; kept as the fallback
/// when the Liu skewness match degenerates.
double SatterthwaitePValue(const std::vector<double>& lambda, double q);

/// Liu–Tang–Zhang four-moment match to a noncentral chi-square — the
/// moment-based analytic tail (pmethod=analytic).
double LiuPValue(const std::vector<double>& lambda, double q);

/// Kuonen saddlepoint (Lugannani–Rice) tail for Q = Σ λ_m χ²₁
/// (pmethod=saddlepoint). Falls back to LiuPValue within the tiny
/// neighbourhood of the mean where the LR formula degenerates (w → 0).
double SaddlepointPValue(const std::vector<double>& lambda, double q);

/// Besag–Clifford sequential stopping state for one set. Feed replicate
/// exceedance indicators in the canonical replicate order (b = 0, 1, …);
/// the set stops once `h` exceedances have been seen. With h = 0 the
/// stopper never stops (plain exhaustive counting).
class SequentialStopper {
 public:
  explicit SequentialStopper(std::uint64_t h) : h_(h) {}

  /// Folds the next replicate's indicator. Returns true while the set is
  /// still consuming replicates AFTER this offer (false once stopped).
  /// Offers after the stop are ignored, so feeding a whole batch through
  /// is equivalent to stopping mid-batch — batch-size invariance.
  bool Offer(bool exceeded) {
    if (stopped_) return false;
    ++used_;
    if (exceeded) ++exceed_;
    if (h_ != 0 && exceed_ >= h_) stopped_ = true;
    return !stopped_;
  }

  bool stopped() const { return stopped_; }
  std::uint64_t exceed() const { return exceed_; }
  std::uint64_t used() const { return used_; }

 private:
  const std::uint64_t h_;
  std::uint64_t exceed_ = 0;
  std::uint64_t used_ = 0;
  bool stopped_ = false;
};

}  // namespace ss::stats
