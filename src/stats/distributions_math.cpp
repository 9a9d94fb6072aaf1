#include "stats/distributions_math.hpp"

#include <math.h>

#include <cmath>
#include <limits>

#include "support/status.hpp"

namespace ss::stats {
namespace {

// std::lgamma writes the global signgam, a data race once the analytic
// screen evaluates tails on several workers; the reentrant lgamma_r
// returns the sign through its argument instead. Inputs here are
// positive, so the sign is always +.
double LogGamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

/// Series representation of P(a, x); converges quickly for x < a + 1.
double GammaPSeries(double a, double x) {
  const int kMaxIter = 500;
  const double kEps = 1e-14;
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int i = 0; i < kMaxIter; ++i) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEps) break;
  }
  return sum * std::exp(-x + a * std::log(x) - LogGamma(a));
}

/// Continued-fraction representation of Q(a, x); converges for x >= a + 1.
double GammaQContinuedFraction(double a, double x) {
  const int kMaxIter = 500;
  const double kEps = 1e-14;
  const double kFpMin = std::numeric_limits<double>::min() / kEps;
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIter; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h * std::exp(-x + a * std::log(x) - LogGamma(a));
}

}  // namespace

double NormalCdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

double NormalSf(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

double NormalSfLog(double x) {
  // erfc keeps full relative accuracy down to ~1e-300, so the direct log
  // is exact until the double underflows (x ≈ 37.5); beyond that, the
  // standard continued-fraction-derived asymptotic series for Mills'
  // ratio: Φ̄(x) ≈ φ(x)/x · (1 - 1/x² + 3/x⁴ - 15/x⁶).
  if (x < 37.0) {
    const double sf = NormalSf(x);
    if (sf > 0.0) return std::log(sf);
  }
  const double inv2 = 1.0 / (x * x);
  const double series = 1.0 - inv2 * (1.0 - 3.0 * inv2 * (1.0 - 5.0 * inv2));
  return -0.5 * x * x - 0.5 * std::log(2.0 * M_PI) - std::log(x) +
         std::log(series);
}

double NormalTwoSidedP(double x) {
  return std::erfc(std::fabs(x) / std::sqrt(2.0));
}

double RegularizedGammaP(double a, double x) {
  SS_CHECK(a > 0.0);
  if (x <= 0.0) return 0.0;
  if (x < a + 1.0) return GammaPSeries(a, x);
  return 1.0 - GammaQContinuedFraction(a, x);
}

double RegularizedGammaQ(double a, double x) {
  SS_CHECK(a > 0.0);
  if (x <= 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - GammaPSeries(a, x);
  return GammaQContinuedFraction(a, x);
}

double ChiSquareSf(double x, double df) {
  if (x <= 0.0) return 1.0;
  return RegularizedGammaQ(df / 2.0, x / 2.0);
}

double ChiSquareSfNoncentral(double x, double df, double ncp) {
  SS_CHECK(df > 0.0);
  SS_CHECK(ncp >= 0.0);
  if (x <= 0.0) return 1.0;
  if (ncp <= 0.0) return ChiSquareSf(x, df);
  // Poisson(ncp/2) mixture of central χ²(df + 2k) survival functions,
  // summed outward from the modal Poisson term so the dominant weights
  // come first and the truncation error is bounded by the unexplored
  // Poisson mass (each SF factor is <= 1).
  const double half = ncp / 2.0;
  const auto log_pois = [half](double k) {
    return -half + k * std::log(half) - LogGamma(k + 1.0);
  };
  const long mode = static_cast<long>(half);
  double total = 0.0;
  const double kTailEps = 1e-15;
  for (long k = mode; k <= mode + 100000; ++k) {
    const double w = std::exp(log_pois(static_cast<double>(k)));
    total += w * ChiSquareSf(x, df + 2.0 * static_cast<double>(k));
    if (w < kTailEps) break;
  }
  for (long k = mode - 1; k >= 0; --k) {
    const double w = std::exp(log_pois(static_cast<double>(k)));
    total += w * ChiSquareSf(x, df + 2.0 * static_cast<double>(k));
    if (w < kTailEps) break;
  }
  return std::min(1.0, total);
}

double ScoreTestPValue(double score, double variance) {
  if (variance <= 0.0) return 1.0;
  const double z2 = score * score / variance;
  return ChiSquareSf(z2, 1.0);
}

}  // namespace ss::stats
