// AVX2 kernel variants. This TU is compiled with
//   -mavx2 -mno-fma -ffp-contract=off
// (see src/stats/CMakeLists.txt): AVX2 enables the 4-lane doubles used
// here, while FMA stays disabled so GCC can never contract a mul+add
// pair into a fused multiply-add — contraction changes rounding and
// would break the bitwise-equality contract with the scalar kernel.
//
// Bitwise contract: SIMD lanes map to replicates, never to patients.
// Each replicate keeps a single accumulator chain that sums in ascending
// order, exactly like the scalar kernel; elementwise IEEE mul/add round
// identically in scalar and vector form.
#include "stats/kernels/kernels_internal.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace ss::stats::kernels::internal {
namespace {

/// Replicates [r, r + 4·kVecs) of RowSumAvx2: one walk of the row list
/// with kVecs 4-lane accumulators. The loops must unroll fully so the
/// accumulators live in registers and each row adds straight from
/// memory; left rolled, GCC keeps `acc` on the stack at -O2, and that
/// kernel is no faster than a multiply-add one.
template <int kVecs>
inline void RowSumBlock(const double* const* rows, std::size_t nrows,
                        std::size_t r, double* out) {
  __m256d acc[kVecs];
#pragma GCC unroll 16
  for (int g = 0; g < kVecs; ++g) acc[g] = _mm256_setzero_pd();
  for (std::size_t k = 0; k < nrows; ++k) {
    const double* row = rows[k] + r;
    // Pins `row` as the one base register, so each add takes a
    // base + constant-displacement operand. Left alone, GCC keeps a
    // separate 8·r + 32·g index per lane group and spills some of them
    // to the stack inside the loop.
    __asm__("" : "+r"(row));
#pragma GCC unroll 16
    for (int g = 0; g < kVecs; ++g) {
      acc[g] = _mm256_add_pd(acc[g], _mm256_loadu_pd(row + 4 * g));
    }
  }
#pragma GCC unroll 16
  for (int g = 0; g < kVecs; ++g) _mm256_storeu_pd(out + r + 4 * g, acc[g]);
}

void RowSumAvx2(const double* const* rows, std::size_t nrows,
                std::size_t count, double* out) {
  // 64 replicates per walk (16 accumulators: every ymm register), then
  // one 32/16/8/4-lane block each as the remainder needs, then the
  // scalar tail. Each lane adds rows in ascending k, as the scalar
  // reference does.
  std::size_t r = 0;
  for (; r + 64 <= count; r += 64) RowSumBlock<16>(rows, nrows, r, out);
  if (r + 32 <= count) {
    RowSumBlock<8>(rows, nrows, r, out);
    r += 32;
  }
  if (r + 16 <= count) {
    RowSumBlock<4>(rows, nrows, r, out);
    r += 16;
  }
  if (r + 8 <= count) {
    RowSumBlock<2>(rows, nrows, r, out);
    r += 8;
  }
  if (r + 4 <= count) {
    RowSumBlock<1>(rows, nrows, r, out);
    r += 4;
  }
  for (; r < count; ++r) {
    double acc = 0.0;
    for (std::size_t k = 0; k < nrows; ++k) acc += rows[k][r];
    out[r] = acc;
  }
}

void SkatFoldAvx2(const double* scores, std::size_t count, double weight_sq,
                  double* acc) {
  const __m256d w = _mm256_set1_pd(weight_sq);
  std::size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    const __m256d s = _mm256_loadu_pd(scores + r);
    const __m256d term = _mm256_mul_pd(w, _mm256_mul_pd(s, s));
    _mm256_storeu_pd(acc + r, _mm256_add_pd(_mm256_loadu_pd(acc + r), term));
  }
  if (r < count) SkatFoldScalar(scores + r, count - r, weight_sq, acc + r);
}

}  // namespace

const KernelTable kAvx2Table = {
    .row_sum = &RowSumAvx2,
    .skat_fold = &SkatFoldAvx2,
};

}  // namespace ss::stats::kernels::internal

#else  // !defined(__AVX2__)

namespace ss::stats::kernels::internal {

const KernelTable kAvx2Table = kScalarTable;

}  // namespace ss::stats::kernels::internal

#endif
