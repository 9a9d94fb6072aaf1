// Shared between the per-ISA kernel translation units. The scalar
// reference kernels live here so the AVX2 TU can fall back to them (for
// loop remainders, and wholesale when built for a target without the
// instruction set).
#pragma once

#include <cstddef>
#include <cstdint>

#include "stats/kernels/kernels.hpp"

namespace ss::stats::kernels::internal {

// Scalar reference kernels. These define the bitwise contract every
// SIMD variant must reproduce exactly.
void BatchedMacScalar(const double* u, std::size_t n, const double* zblock,
                      std::size_t count, double* out);
void RowSumScalar(const double* const* rows, std::size_t nrows,
                  std::size_t count, double* out);
void CoxScanScalar(const std::uint8_t* event, const std::uint8_t* genotypes,
                   const double* prefix, const std::uint32_t* prefix_end,
                   std::size_t n, double* out);
void SkatFoldScalar(const double* scores, std::size_t count, double weight_sq,
                    double* acc);
void SkatBurdenFoldScalar(const double* scores, std::size_t count,
                          double weight, double weight_sq, double* skat,
                          double* burden);

// Defined in kernels.cpp / kernels_avx2.cpp. The AVX2 table degrades to
// scalar entries when its TU is compiled for a target without the
// instruction set (non-x86 builds).
extern const KernelTable kScalarTable;
extern const KernelTable kAvx2Table;

}  // namespace ss::stats::kernels::internal
