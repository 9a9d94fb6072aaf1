// Shared between the per-ISA kernel translation units. The scalar
// reference kernels live here so the AVX2 TU can fall back to them (for
// loop remainders, and wholesale when built for a target without the
// instruction set).
#pragma once

#include <cstddef>

#include "stats/kernels/kernels.hpp"

namespace ss::stats::kernels::internal {

// Scalar reference kernels. These define the bitwise contract every
// SIMD variant must reproduce exactly.
void RowSumScalar(const double* const* rows, std::size_t nrows,
                  std::size_t count, double* out);
void SkatFoldScalar(const double* scores, std::size_t count, double weight_sq,
                    double* acc);
// Pieces of the Householder step that every level runs as scalar code:
// q += A·u over rows [j_begin, i), one row at a time in ascending order;
// and p = q / h, q = p - (uᵀp / 2h)·u.
void HouseholderProductRows(const double* a, std::size_t stride,
                            std::size_t j_begin, std::size_t i,
                            const double* u, double* q);
void HouseholderScaleQ(std::size_t i, const double* u, double h, double* q);

// Defined in kernels.cpp / kernels_avx2.cpp. The AVX2 table degrades to
// scalar entries when its TU is compiled for a target without the
// instruction set (non-x86 builds).
extern const KernelTable kScalarTable;
extern const KernelTable kAvx2Table;

}  // namespace ss::stats::kernels::internal
