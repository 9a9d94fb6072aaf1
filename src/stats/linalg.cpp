#include "stats/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>

#include "support/status.hpp"

namespace ss::stats {

void FillWeightedGramRowTile(const std::vector<const double*>& rows,
                             const std::vector<double>& weights, std::size_t n,
                             std::size_t t,
                             kernels::KernelTable::GramTileFn gram_tile,
                             Matrix* gram) {
  const std::size_t d = rows.size();
  const auto tile_rows = [&rows, d](std::size_t first, const double** out) {
    for (std::size_t s = 0; s < 4; ++s) {
      out[s] = rows[std::min(first + s, d - 1)];
    }
  };
  const std::size_t a_first = 4 * t;
  const double* a_rows[4];
  tile_rows(a_first, a_rows);
  double dots[16];
  for (std::size_t b_first = a_first; b_first < d; b_first += 4) {
    const double* b_rows[4];
    tile_rows(b_first, b_rows);
    gram_tile(a_rows, b_rows, n, dots);
    for (std::size_t a = a_first; a < std::min(a_first + 4, d); ++a) {
      for (std::size_t b = std::max(a, b_first); b < std::min(b_first + 4, d);
           ++b) {
        const double m =
            weights[a] * weights[b] * dots[4 * (a - a_first) + (b - b_first)];
        gram->at(a, b) = m;
        gram->at(b, a) = m;
      }
    }
  }
}

std::vector<double> SymmetricEigenvalues(const Matrix& symmetric) {
  SS_CHECK(symmetric.rows() == symmetric.cols());
  const std::size_t d = symmetric.rows();
  if (d == 0) return {};
  // Only the lower triangle is read from here on; it holds the average
  // of the two triangles, so a slightly asymmetric input (accumulation
  // round-off) is reduced as the nearest symmetric matrix.
  Matrix a = symmetric;
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t c = 0; c < r; ++c) {
      a.at(r, c) = 0.5 * (a.at(r, c) + a.at(c, r));
    }
  }

  // Householder reduction to tridiagonal form: step i annihilates row i
  // left of the subdiagonal, recording diag[i] and off[i] (the (i, i-1)
  // entry), and applies H = I - u uᵀ/h to the leading i×i block as the
  // rank-2 update A ← A - q uᵀ - u qᵀ (the dispatched householder_step
  // kernel, bitwise equal at every level). Both the product A·u and the
  // update walk contiguous rows of the lower triangle.
  const kernels::KernelTable::HouseholderStepFn householder_step =
      kernels::ActiveKernels().householder_step;
  std::vector<double> diag(d, 0.0);
  std::vector<double> off(d, 0.0);
  std::vector<double> u(d, 0.0);
  std::vector<double> q(d, 0.0);
  for (std::size_t i = d - 1; i >= 1; --i) {
    diag[i] = a.at(i, i);
    double scale = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::fabs(a.at(i, k));
    if (i == 1 || scale == 0.0) {
      off[i] = a.at(i, i - 1);
      continue;
    }
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) {
      u[k] = a.at(i, k) / scale;
      h += u[k] * u[k];
    }
    const double f = u[i - 1];
    const double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
    off[i] = scale * g;
    h -= f * g;
    u[i - 1] = f - g;
    householder_step(&a.at(0, 0), d, i, u.data(), h, q.data());
  }
  diag[0] = a.at(0, 0);

  // Implicit QL with the Wilkinson shift on the tridiagonal (diag, off),
  // off[i] now holding the (i+1, i) entry. Each eigenvalue converges in a
  // couple of sweeps (cubically); one that exceeds the cap means the
  // input was not a finite symmetric matrix, and the solver fails closed
  // rather than return an unconverged spectrum.
  for (std::size_t i = 1; i < d; ++i) off[i - 1] = off[i];
  off[d - 1] = 0.0;
  constexpr int kMaxIterations = 64;
  const double eps = std::numeric_limits<double>::epsilon();
  for (std::size_t l = 0; l < d; ++l) {
    int iterations = 0;
    for (;;) {
      std::size_t m = l;
      for (; m + 1 < d; ++m) {
        const double scale = std::fabs(diag[m]) + std::fabs(diag[m + 1]);
        if (std::fabs(off[m]) <= eps * scale) break;
      }
      if (m == l) break;  // diag[l] has converged
      SS_CHECK(++iterations <= kMaxIterations &&
               "SymmetricEigenvalues: QL iteration did not converge");
      // Wilkinson shift: the eigenvalue of the leading 2×2 block nearer
      // diag[l].
      double g = (diag[l + 1] - diag[l]) / (2.0 * off[l]);
      double r = std::hypot(g, 1.0);
      g = diag[m] - diag[l] + off[l] / (g + std::copysign(r, g));
      double s = 1.0;
      double c = 1.0;
      double p = 0.0;
      bool underflow = false;
      for (std::size_t i = m; i-- > l;) {
        const double f = s * off[i];
        const double b = c * off[i];
        r = std::hypot(f, g);
        off[i + 1] = r;
        if (r == 0.0) {
          // The rotation underflowed: deflate and restart the sweep.
          diag[i + 1] -= p;
          off[m] = 0.0;
          underflow = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = diag[i + 1] - p;
        r = (diag[i] - g) * s + 2.0 * c * b;
        p = s * r;
        diag[i + 1] = g + p;
        g = c * r - b;
      }
      if (underflow) continue;
      diag[l] -= p;
      off[l] = g;
      off[m] = 0.0;
    }
  }
  std::sort(diag.begin(), diag.end(), std::greater<double>());
  return diag;
}

}  // namespace ss::stats
