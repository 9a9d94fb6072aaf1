// The adaptive p-value engine's statistical-equivalence battery, math
// layer: the analytic tails (moment-match and saddlepoint) are checked
// against closed-form special cases, against each other on shared
// simulated spectra (the cross-validation contract below), and against
// brute-force Monte Carlo simulation of Q = Σ λ_m χ²₁; the sequential
// stopper is checked for its batch-feeding invariance contract.
//
// Cross-validation tolerance contract (also stated in DESIGN.md §5):
// on arbitrary PSD spectra the two analytic tails must agree within
//   * 10% relative for p in [0.05, 0.9] (distribution body), and
//   * |log p_sp − log p_liu| ≤ 0.35 for p in [1e-4, 0.05) (tail),
// with the saddlepoint the reference in the tail (its relative error is
// uniform there; the four-moment match degrades to tens of percent).
#include "stats/adaptive_pvalue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "stats/distributions_math.hpp"
#include "stats/linalg.hpp"
#include "support/distributions.hpp"
#include "support/rng.hpp"

namespace ss::stats {
namespace {

Matrix DiagonalMatrix(const std::vector<double>& diag) {
  Matrix m(diag.size(), diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) m.at(i, i) = diag[i];
  return m;
}

/// XᵀX.
Matrix Gram(const Matrix& x) {
  Matrix gram(x.cols(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t i = 0; i < x.cols(); ++i) {
      for (std::size_t j = 0; j < x.cols(); ++j) {
        gram.at(i, j) += x.at(r, i) * x.at(r, j);
      }
    }
  }
  return gram;
}

// ---------------------------------------------------------------------
// Eigensolver
// ---------------------------------------------------------------------

TEST(SymmetricEigenvaluesTest, DiagonalMatrixSortedDescending) {
  const std::vector<double> eig =
      SymmetricEigenvalues(DiagonalMatrix({1.0, 5.0, 3.0}));
  ASSERT_EQ(eig.size(), 3u);
  EXPECT_DOUBLE_EQ(eig[0], 5.0);
  EXPECT_DOUBLE_EQ(eig[1], 3.0);
  EXPECT_DOUBLE_EQ(eig[2], 1.0);
}

TEST(SymmetricEigenvaluesTest, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix m(2, 2);
  m.at(0, 0) = 2.0;
  m.at(0, 1) = 1.0;
  m.at(1, 0) = 1.0;
  m.at(1, 1) = 2.0;
  const std::vector<double> eig = SymmetricEigenvalues(m);
  ASSERT_EQ(eig.size(), 2u);
  EXPECT_NEAR(eig[0], 3.0, 1e-12);
  EXPECT_NEAR(eig[1], 1.0, 1e-12);
}

TEST(SymmetricEigenvaluesTest, TraceAndFrobeniusInvariants) {
  // Random PSD Gram A^T A: Σλ = trace, Σλ² = ||A^T A||_F² exactly (the
  // solver applies only orthogonal similarity transforms).
  Rng rng(20160521);
  Matrix a(8, 5);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 5; ++c) a.at(r, c) = SampleNormal(rng);
  }
  const Matrix gram = Gram(a);
  double trace = 0.0;
  double frob_sq = 0.0;
  for (std::size_t i = 0; i < 5; ++i) {
    trace += gram.at(i, i);
    for (std::size_t j = 0; j < 5; ++j) {
      frob_sq += gram.at(i, j) * gram.at(i, j);
    }
  }
  const std::vector<double> eig = SymmetricEigenvalues(gram);
  ASSERT_EQ(eig.size(), 5u);
  double eig_sum = 0.0;
  double eig_sq = 0.0;
  for (double l : eig) {
    EXPECT_GE(l, -1e-10);  // PSD up to round-off
    eig_sum += l;
    eig_sq += l * l;
  }
  EXPECT_NEAR(eig_sum, trace, 1e-10 * trace);
  EXPECT_NEAR(eig_sq, frob_sq, 1e-10 * frob_sq);
}

// Differential battery against matrices whose spectrum is known by
// construction: Q·diag(λ)·Qᵀ with Q a product of random Householder
// reflectors, and Grams XᵀX of data matrices with known singular values
// (duplicated columns, more SNPs than patients). Every recovered
// eigenvalue must sit within 1e-12·λ_max of the known one, and the
// analytic tails evaluated on the recovered spectrum must match the
// tails on the true spectrum to 1e-9 relative.

/// m ← H·m with H = I − 2vvᵀ/vᵀv (mixes rows).
void ReflectLeft(const std::vector<double>& v, Matrix* m) {
  double vv = 0.0;
  for (double x : v) vv += x * x;
  for (std::size_t c = 0; c < m->cols(); ++c) {
    double dot = 0.0;
    for (std::size_t r = 0; r < m->rows(); ++r) dot += v[r] * m->at(r, c);
    const double scale = 2.0 * dot / vv;
    for (std::size_t r = 0; r < m->rows(); ++r) m->at(r, c) -= scale * v[r];
  }
}

/// m ← m·H (mixes columns).
void ReflectRight(const std::vector<double>& v, Matrix* m) {
  double vv = 0.0;
  for (double x : v) vv += x * x;
  for (std::size_t r = 0; r < m->rows(); ++r) {
    double dot = 0.0;
    for (std::size_t c = 0; c < m->cols(); ++c) dot += m->at(r, c) * v[c];
    const double scale = 2.0 * dot / vv;
    for (std::size_t c = 0; c < m->cols(); ++c) m->at(r, c) -= scale * v[c];
  }
}

constexpr int kReflectors = 6;

/// Q·diag(λ)·Qᵀ for a random orthogonal Q.
Matrix WithKnownSpectrum(const std::vector<double>& lambda, Rng& rng) {
  Matrix m = DiagonalMatrix(lambda);
  for (int k = 0; k < kReflectors; ++k) {
    const std::vector<double> v = SampleNormalVector(rng, lambda.size());
    ReflectLeft(v, &m);
    ReflectRight(v, &m);
  }
  return m;
}

/// An n×d data matrix P·[diag(σ) 0]·Rᵀ with random orthogonal P and R:
/// its Gram has eigenvalues σ² plus d − min(n, d) zeros.
Matrix DataWithSingularValues(std::size_t n, std::size_t d,
                              const std::vector<double>& sigma, Rng& rng) {
  Matrix x(n, d);
  for (std::size_t i = 0; i < sigma.size(); ++i) x.at(i, i) = sigma[i];
  for (int k = 0; k < kReflectors; ++k) {
    ReflectLeft(SampleNormalVector(rng, n), &x);
    ReflectRight(SampleNormalVector(rng, d), &x);
  }
  return x;
}

/// Log-uniform spectrum over four decades, scaled like a weighted score
/// Gram (λ_max in the hundreds).
std::vector<double> RandomSpectrum(std::size_t d, Rng& rng) {
  std::vector<double> lambda(d);
  for (double& l : lambda) l = 300.0 * std::pow(10.0, -4.0 * rng.NextDouble());
  return lambda;
}

void ExpectSpectrumRecovered(const Matrix& m, std::vector<double> truth,
                             const std::string& label) {
  SCOPED_TRACE(label);
  std::sort(truth.begin(), truth.end(), std::greater<double>());
  const std::vector<double> eig = SymmetricEigenvalues(m);
  ASSERT_EQ(eig.size(), truth.size());
  const double lambda_max = std::max(std::fabs(truth.front()), 1e-300);
  double worst = 0.0;
  for (std::size_t i = 0; i < eig.size(); ++i) {
    worst = std::max(worst, std::fabs(eig[i] - truth[i]) / lambda_max);
  }
  EXPECT_LE(worst, 1e-12) << "worst |Δλ|/λ_max";

  // The tails as the screen evaluates them: NullSpectrumFromGram drops
  // the round-off images of the true zeros.
  const std::vector<double> recovered = NullSpectrumFromGram(m);
  std::vector<double> positive;
  for (double l : truth) {
    if (l > 0.0) positive.push_back(l);
  }
  ASSERT_EQ(recovered.size(), positive.size());
  double mean = 0.0;
  for (double l : positive) mean += l;
  for (double factor : {0.5, 1.0, 2.0, 5.0, 20.0}) {
    const double q = factor * mean;
    const double sp_true = SaddlepointPValue(positive, q);
    const double liu_true = LiuPValue(positive, q);
    EXPECT_NEAR(SaddlepointPValue(recovered, q), sp_true, 1e-9 * sp_true)
        << "saddlepoint at q = " << factor << "·mean";
    EXPECT_NEAR(LiuPValue(recovered, q), liu_true, 1e-9 * liu_true)
        << "Liu at q = " << factor << "·mean";
  }
}

TEST(SymmetricEigenvaluesTest, RecoversKnownSpectraAcrossSizes) {
  Rng rng(20160521);
  for (std::size_t d : {1u, 2u, 3u, 17u, 64u, 250u, 500u}) {
    const std::vector<double> lambda = RandomSpectrum(d, rng);
    ExpectSpectrumRecovered(WithKnownSpectrum(lambda, rng), lambda,
                            "d=" + std::to_string(d));
  }
}

TEST(SymmetricEigenvaluesTest, RecoversRepeatedEigenvalues) {
  Rng rng(7);
  for (std::size_t d : {3u, 17u, 64u, 250u}) {
    // Three clusters of exactly repeated values plus a simple top one.
    std::vector<double> lambda(d);
    for (std::size_t i = 0; i < d; ++i) {
      lambda[i] = i == 0 ? 50.0 : (i % 3 == 0 ? 9.0 : (i % 3 == 1 ? 4.0 : 1.0));
    }
    ExpectSpectrumRecovered(WithKnownSpectrum(lambda, rng), lambda,
                            "repeated d=" + std::to_string(d));
  }
}

TEST(SymmetricEigenvaluesTest, RecoversRankDeficientGrams) {
  Rng rng(2016);
  // Duplicated columns: X = [B B] has Gram [[G G] [G G]], whose spectrum
  // is 2·eig(G) plus one zero per duplicated column.
  for (std::size_t k : {1u, 8u, 60u}) {
    const std::size_t n = 200;
    std::vector<double> sigma(k);
    for (double& s : sigma) s = 0.5 + 4.0 * rng.NextDouble();
    const Matrix b = DataWithSingularValues(n, k, sigma, rng);
    Matrix x(n, 2 * k);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < k; ++c) {
        x.at(r, c) = b.at(r, c);
        x.at(r, c + k) = b.at(r, c);
      }
    }
    std::vector<double> truth(2 * k, 0.0);
    for (std::size_t i = 0; i < k; ++i) truth[i] = 2.0 * sigma[i] * sigma[i];
    ExpectSpectrumRecovered(Gram(x), truth,
                            "duplicated columns k=" + std::to_string(k));
  }
  // More SNPs than patients: rank n, so d − n eigenvalues are zero.
  for (const auto& [n, d] : {std::pair<std::size_t, std::size_t>{5, 17},
                             std::pair<std::size_t, std::size_t>{40, 250}}) {
    std::vector<double> sigma(n);
    for (double& s : sigma) s = 0.5 + 4.0 * rng.NextDouble();
    const Matrix x = DataWithSingularValues(n, d, sigma, rng);
    std::vector<double> truth(d, 0.0);
    for (std::size_t i = 0; i < n; ++i) truth[i] = sigma[i] * sigma[i];
    ExpectSpectrumRecovered(Gram(x), truth,
                            "d=" + std::to_string(d) + " > n=" +
                                std::to_string(n));
  }
}

TEST(NullSpectrumTest, DropsRankDeficiencyArtifacts) {
  // Two identical SNPs: the 2x2 Gram has rank 1, so the spectrum is one
  // eigenvalue (2·||u||²), not a numerically-zero tail entry.
  Matrix gram(2, 2);
  gram.at(0, 0) = gram.at(0, 1) = gram.at(1, 0) = gram.at(1, 1) = 4.0;
  const std::vector<double> lambda = NullSpectrumFromGram(gram);
  ASSERT_EQ(lambda.size(), 1u);
  EXPECT_NEAR(lambda[0], 8.0, 1e-10);
}

TEST(NullSpectrumTest, EmptyMatrixGivesEmptySpectrum) {
  EXPECT_TRUE(NullSpectrumFromGram(Matrix()).empty());
}

// ---------------------------------------------------------------------
// Analytic tails: closed-form special cases
// ---------------------------------------------------------------------

TEST(MomentMatchTest, SingleComponentIsExactScaledChiSquare) {
  // One eigenvalue: Q = λ χ²₁ exactly, and both moment matches collapse
  // to it (ν = 1, scale = λ).
  for (double lambda : {0.5, 2.0, 7.0}) {
    for (double q : {0.1, 1.0, 4.0, 20.0}) {
      const double exact = ChiSquareSf(q / lambda, 1.0);
      EXPECT_NEAR(SatterthwaitePValue({lambda}, q), exact, 1e-12);
      EXPECT_NEAR(LiuPValue({lambda}, q), exact, 1e-12);
    }
  }
}

TEST(MomentMatchTest, EqualComponentsAreExactChiSquareD) {
  // d equal eigenvalues: Q = λ χ²_d exactly; the four-moment map reduces
  // to the identity there.
  for (std::size_t d : {2u, 5u, 12u}) {
    const std::vector<double> lambda(d, 1.5);
    for (double q_over_d : {0.5, 1.0, 2.0, 4.0}) {
      const double q = 1.5 * q_over_d * static_cast<double>(d);
      const double exact =
          ChiSquareSf(q / 1.5, static_cast<double>(d));
      EXPECT_NEAR(LiuPValue(lambda, q), exact, 1e-9)
          << "d=" << d << " q=" << q;
    }
  }
}

TEST(SaddlepointTest, SingleComponentIsExact) {
  for (double lambda : {0.5, 3.0}) {
    for (double q : {0.2, 2.0, 15.0}) {
      EXPECT_NEAR(SaddlepointPValue({lambda}, q),
                  ChiSquareSf(q / lambda, 1.0), 1e-12);
    }
  }
}

TEST(SaddlepointTest, EqualComponentsCloseToChiSquareD) {
  // Lugannani–Rice is not exact for χ²_d but its relative error is small
  // and uniform; 2% covers the whole body-to-tail range here.
  for (std::size_t d : {3u, 8u}) {
    const std::vector<double> lambda(d, 2.0);
    for (double q_over_mean : {0.3, 1.5, 3.0, 6.0}) {
      const double q = 2.0 * static_cast<double>(d) * q_over_mean;
      const double exact = ChiSquareSf(q / 2.0, static_cast<double>(d));
      const double approx = SaddlepointPValue(lambda, q);
      EXPECT_NEAR(approx / exact, 1.0, 0.02)
          << "d=" << d << " q=" << q << " exact=" << exact;
    }
  }
}

TEST(AnalyticTailsTest, DegenerateInputsReturnOne) {
  EXPECT_DOUBLE_EQ(SatterthwaitePValue({}, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(LiuPValue({}, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(SaddlepointPValue({}, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(LiuPValue({1.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(SaddlepointPValue({1.0, 2.0}, -1.0), 1.0);
}

TEST(AnalyticTailsTest, MonotoneDecreasingInQ) {
  const std::vector<double> lambda = {4.0, 2.5, 1.0, 0.3, 0.1};
  double prev_liu = 1.0;
  double prev_sp = 1.0;
  for (double q = 0.5; q < 80.0; q += 0.5) {
    const double liu = LiuPValue(lambda, q);
    const double sp = SaddlepointPValue(lambda, q);
    EXPECT_LE(liu, prev_liu + 1e-12) << "q=" << q;
    EXPECT_LE(sp, prev_sp + 1e-12) << "q=" << q;
    EXPECT_GE(liu, 0.0);
    EXPECT_LE(liu, 1.0);
    EXPECT_GE(sp, 0.0);
    EXPECT_LE(sp, 1.0);
    prev_liu = liu;
    prev_sp = sp;
  }
}

TEST(SaddlepointTest, ContinuousAcrossTheMeanHandover) {
  // Near q = mean the LR formula hands over to the moment match; the two
  // must meet without a jump (both are ~0.4-0.6 there).
  const std::vector<double> lambda = {3.0, 1.0, 0.5};
  const double mean = 4.5;
  const double just_below = SaddlepointPValue(lambda, mean * (1.0 - 1e-4));
  const double just_above = SaddlepointPValue(lambda, mean * (1.0 + 1e-4));
  EXPECT_NEAR(just_below, just_above, 1e-2);
  EXPECT_GT(just_below, just_above);
}

// ---------------------------------------------------------------------
// Monte Carlo simulation cross-check: both tails against the empirical
// distribution of Q = Σ λ_m χ²₁.
// ---------------------------------------------------------------------

TEST(AnalyticTailsTest, MatchBruteForceSimulation) {
  const std::vector<double> lambda = {5.0, 2.0, 2.0, 0.7, 0.3};
  const std::size_t kReplicates = 200000;
  Rng rng(97);
  // Thresholds with analytic p around 0.2, 0.05, and 0.01.
  const std::vector<double> thresholds = {15.0, 28.0, 45.0};
  std::vector<std::uint64_t> exceed(thresholds.size(), 0);
  for (std::size_t b = 0; b < kReplicates; ++b) {
    double q = 0.0;
    for (double l : lambda) {
      const double z = SampleNormal(rng);
      q += l * z * z;
    }
    for (std::size_t t = 0; t < thresholds.size(); ++t) {
      if (q >= thresholds[t]) ++exceed[t];
    }
  }
  for (std::size_t t = 0; t < thresholds.size(); ++t) {
    const double empirical =
        static_cast<double>(exceed[t]) / static_cast<double>(kReplicates);
    const double mc_sd =
        std::sqrt(empirical * (1.0 - empirical) /
                  static_cast<double>(kReplicates));
    // 5 MC standard errors plus a 2% relative analytic-approximation
    // allowance — the equivalence the hybrid engine relies on.
    const double tol = 5.0 * mc_sd + 0.02 * empirical;
    EXPECT_NEAR(SaddlepointPValue(lambda, thresholds[t]), empirical, tol)
        << "threshold " << thresholds[t];
    EXPECT_NEAR(LiuPValue(lambda, thresholds[t]), empirical,
                tol + 0.05 * empirical)  // moment match is looser in tails
        << "threshold " << thresholds[t];
  }
}

// ---------------------------------------------------------------------
// Cross-validation: saddlepoint vs moment-matched tails on shared
// simulated spectra (the tolerance contract in the file header).
// ---------------------------------------------------------------------

TEST(AnalyticTailsTest, CrossValidationOnSimulatedSpectra) {
  Rng rng(20160521);
  for (int spectrum = 0; spectrum < 20; ++spectrum) {
    const std::size_t d = 2 + rng.NextBounded(15);
    std::vector<double> lambda(d);
    double mean = 0.0;
    for (double& l : lambda) {
      // Log-uniform over ~3 decades: realistic SKAT spectra are heavily
      // skewed (a couple of dominant LD blocks plus a noise floor).
      l = std::exp(3.0 * (rng.NextDouble() - 0.5) * 2.3025850929940457);
      mean += l;
    }
    for (double q = 0.1 * mean; q < 30.0 * mean; q *= 1.4) {
      const double p_sp = SaddlepointPValue(lambda, q);
      const double p_liu = LiuPValue(lambda, q);
      // The measured contract across 20 spectra spanning 3 decades of
      // eigenvalue skew (worst observed: 12.3% body, 0.58 log-tail):
      //   * body (p ∈ [0.05, 0.9]):  |p_liu/p_sp − 1| ≤ 0.20;
      //   * tail (p ∈ [1e-4, 0.05)): within a factor of 2 (|Δlog| ≤ 0.7).
      // The hybrid engine only needs the screen to ORDER sets correctly
      // near refine_threshold, so a factor-2 tail agreement is ample;
      // refined sets get their final p from resampling, not from Liu.
      if (p_sp >= 0.05 && p_sp <= 0.9) {
        EXPECT_NEAR(p_liu / p_sp, 1.0, 0.20)
            << "spectrum " << spectrum << " d=" << d << " q/mean="
            << q / mean;
      } else if (p_sp >= 1e-4 && p_sp < 0.05) {
        EXPECT_LE(std::fabs(std::log(p_liu) - std::log(p_sp)), 0.70)
            << "spectrum " << spectrum << " d=" << d << " q/mean="
            << q / mean << " p_sp=" << p_sp << " p_liu=" << p_liu;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Sequential stopper
// ---------------------------------------------------------------------

TEST(SequentialStopperTest, StopsAtTheHthExceedance) {
  SequentialStopper stopper(3);
  EXPECT_TRUE(stopper.Offer(true));
  EXPECT_TRUE(stopper.Offer(false));
  EXPECT_TRUE(stopper.Offer(true));
  EXPECT_FALSE(stopper.Offer(true));  // third exceedance -> stop
  EXPECT_TRUE(stopper.stopped());
  EXPECT_EQ(stopper.exceed(), 3u);
  EXPECT_EQ(stopper.used(), 4u);
}

TEST(SequentialStopperTest, ZeroHNeverStops) {
  SequentialStopper stopper(0);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(stopper.Offer(true));
  EXPECT_FALSE(stopper.stopped());
  EXPECT_EQ(stopper.exceed(), 1000u);
  EXPECT_EQ(stopper.used(), 1000u);
}

TEST(SequentialStopperTest, PostStopOffersAreIgnored) {
  SequentialStopper stopper(1);
  EXPECT_FALSE(stopper.Offer(true));
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(stopper.Offer(true));
  EXPECT_EQ(stopper.exceed(), 1u);
  EXPECT_EQ(stopper.used(), 1u);
}

TEST(SequentialStopperTest, BatchFeedingInvariance) {
  // Feeding the indicator sequence whole (batch 1000) must land on the
  // same (stopped, exceed, used) state as replicate-at-a-time feeding
  // with the consumer honoring the stop signal — the invariance the
  // batched drivers rely on.
  Rng rng(7);
  std::vector<bool> indicators(1000);
  for (std::size_t i = 0; i < indicators.size(); ++i) {
    indicators[i] = rng.NextDouble() < 0.03;
  }
  for (std::uint64_t h : {1ULL, 2ULL, 5ULL, 100ULL}) {
    SequentialStopper whole(h);
    for (bool bit : indicators) whole.Offer(bit);  // post-stop ignored
    SequentialStopper honoring(h);
    for (bool bit : indicators) {
      if (!honoring.Offer(bit)) break;
    }
    EXPECT_EQ(whole.stopped(), honoring.stopped()) << "h=" << h;
    EXPECT_EQ(whole.exceed(), honoring.exceed()) << "h=" << h;
    EXPECT_EQ(whole.used(), honoring.used()) << "h=" << h;
  }
}

TEST(SequentialStopperTest, EstimatorIsConservativeAndNearUnbiased) {
  // Two estimator facts, both checked empirically over many runs:
  //   * the stopped estimate p̂ = h/L the engine reports is biased UP by
  //     ≈ p(1−p)/(h−1) — i.e. conservative, never overstating
  //     significance (the safe direction for a p-value);
  //   * the Haldane transform (h−1)/(L−1) of the same stopping time is
  //     exactly unbiased (negative-binomial sampling), which pins the
  //     stopping rule itself as correct.
  const double true_p = 0.1;
  const std::uint64_t h = 10;
  const std::uint64_t ceiling = 4000;
  Rng rng(12345);
  double sum_hl = 0.0;
  double sum_haldane = 0.0;
  const int kRuns = 2000;
  for (int run = 0; run < kRuns; ++run) {
    SequentialStopper stopper(h);
    for (std::uint64_t b = 0; b < ceiling; ++b) {
      if (!stopper.Offer(rng.NextDouble() < true_p)) break;
    }
    // All runs stop long before the ceiling at p=0.1 (E[L] = h/p = 100).
    ASSERT_TRUE(stopper.stopped());
    const double used = static_cast<double>(stopper.used());
    sum_hl += static_cast<double>(stopper.exceed()) / used;
    sum_haldane += static_cast<double>(h - 1) / (used - 1.0);
  }
  const double mean_hl = sum_hl / kRuns;
  const double mean_haldane = sum_haldane / kRuns;
  // sd of h/L at h=10 is ≈ p/√(h-1) per run; /√kRuns for the average.
  const double se = true_p / std::sqrt(static_cast<double>(h - 1)) /
                    std::sqrt(static_cast<double>(kRuns));
  EXPECT_NEAR(mean_haldane, true_p, 5.0 * se);
  EXPECT_GE(mean_hl, true_p - 2.0 * se);  // never anti-conservative
  EXPECT_LE(mean_hl - true_p,
            2.5 * true_p * (1.0 - true_p) /
                    static_cast<double>(h - 1) +
                5.0 * se);
}

}  // namespace
}  // namespace ss::stats
