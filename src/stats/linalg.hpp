// Minimal dense linear algebra for the analytic p-value screen: a
// row-major matrix holding each SNP-set's weighted Gram matrix, and the
// symmetric eigensolver that turns it into the null spectrum
// (stats/adaptive_pvalue.hpp).
#pragma once

#include <cstddef>
#include <vector>

namespace ss::stats {

/// Row-major dense matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Eigenvalues of a symmetric matrix, sorted descending: Householder
/// reduction to tridiagonal form (≈ 4/3·d³ flops) then implicit QL with
/// the Wilkinson shift (O(d²)). Dimensions here are SNP-set sizes, which
/// reach the hundreds (a generated cohort's last set takes every leftover
/// SNP), so the cubic term is what matters. An asymmetric input is
/// symmetrized by averaging its two triangles. Aborts (SS_CHECK) if an
/// eigenvalue fails to converge, which only a non-finite input can cause.
std::vector<double> SymmetricEigenvalues(const Matrix& symmetric);

}  // namespace ss::stats
