// Minimal dense linear algebra for covariate adjustment: symmetric
// positive-definite solves via Cholesky, ordinary least squares, and
// logistic regression by iteratively reweighted least squares (IRLS).
// Dimensions here are (patients x few covariates), so simple O(n p²)
// algorithms are exactly right.
#pragma once

#include <cstddef>
#include <vector>

#include "support/status.hpp"

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

  /// A^T * A (cols x cols), optionally row-weighted: A^T diag(w) A.
  Matrix Gram(const std::vector<double>* weights = nullptr) const;

  /// A^T * v (length cols), optionally row-weighted: A^T diag(w) v.
  std::vector<double> TransposeTimes(const std::vector<double>& v,
                                     const std::vector<double>* weights = nullptr) const;

  /// A * x (length rows).
  std::vector<double> Times(const std::vector<double>& x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Cholesky factorization of a symmetric positive-definite matrix.
/// FailedPrecondition if the matrix is not (numerically) SPD — e.g. a
/// collinear covariate design.
class Cholesky {
 public:
  static Result<Cholesky> Factor(const Matrix& spd);

  /// Solves L L^T x = b.
  std::vector<double> Solve(const std::vector<double>& b) const;

  std::size_t dim() const { return lower_.rows(); }

 private:
  explicit Cholesky(Matrix lower) : lower_(std::move(lower)) {}
  Matrix lower_;
};

/// OLS fit of y on the columns of X (include an intercept column
/// yourself). Returns coefficients; FailedPrecondition on collinearity.
Result<std::vector<double>> OlsFit(const Matrix& x, const std::vector<double>& y);

/// y - X b.
std::vector<double> Residuals(const Matrix& x, const std::vector<double>& y,
                              const std::vector<double>& beta);

struct LogisticFit {
  std::vector<double> beta;
  std::vector<double> fitted;  ///< p_i = expit(x_i' beta).
  int iterations = 0;
  bool converged = false;
};

/// Logistic regression of binary y on X via IRLS.
Result<LogisticFit> LogisticRegression(const Matrix& x,
                                       const std::vector<std::uint8_t>& y,
                                       int max_iterations = 50,
                                       double tolerance = 1e-10);

/// Builds [1 | covariates] from column vectors of length n.
Matrix DesignMatrix(std::size_t n, const std::vector<std::vector<double>>& covariates);

/// Eigenvalues of a symmetric matrix, sorted descending: Householder
/// reduction to tridiagonal form (≈ 4/3·d³ flops) then implicit QL with
/// the Wilkinson shift (O(d²)). Dimensions here are SNP-set sizes, which
/// reach the hundreds (a generated cohort's last set takes every leftover
/// SNP), so the cubic term is what matters. An asymmetric input is
/// symmetrized by averaging its two triangles. Aborts (SS_CHECK) if an
/// eigenvalue fails to converge, which only a non-finite input can cause.
std::vector<double> SymmetricEigenvalues(const Matrix& symmetric);

}  // namespace ss::stats
