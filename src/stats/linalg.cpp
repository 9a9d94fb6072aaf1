#include "stats/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>

#include "support/status.hpp"

namespace ss::stats {

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
  // rank-2 update A ← A - q uᵀ - u qᵀ. Both the product A·u and the
  // update walk contiguous rows of the lower triangle.
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
    // q = A·u from the lower triangle: row j contributes its dot with u
    // to q[j] and, by symmetry, row[k]·u[j] to every q[k] with k < j.
    std::fill(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(i), 0.0);
    for (std::size_t j = 0; j < i; ++j) {
      const double* row = &a.at(j, 0);
      const double uj = u[j];
      double dot = 0.0;
      for (std::size_t k = 0; k < j; ++k) {
        dot += row[k] * u[k];
        q[k] += row[k] * uj;
      }
      q[j] += dot + row[j] * uj;
    }
    // p = A·u / h, then q = p - (uᵀp / 2h)·u.
    double k_coeff = 0.0;
    for (std::size_t j = 0; j < i; ++j) {
      q[j] /= h;
      k_coeff += u[j] * q[j];
    }
    k_coeff /= h + h;
    for (std::size_t j = 0; j < i; ++j) q[j] -= k_coeff * u[j];
    for (std::size_t j = 0; j < i; ++j) {
      const double qj = q[j];
      const double uj = u[j];
      double* row = &a.at(j, 0);
      for (std::size_t k = 0; k <= j; ++k) row[k] -= qj * u[k] + uj * q[k];
    }
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
