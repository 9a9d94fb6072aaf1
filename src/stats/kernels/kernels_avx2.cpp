// AVX2 kernel variants. This TU is compiled with
//   -mavx2 -mno-fma -ffp-contract=off
// (see src/stats/CMakeLists.txt): AVX2 enables the 4-lane doubles used
// here, while FMA stays disabled so GCC can never contract a mul+add
// pair into a fused multiply-add — contraction changes rounding and
// would break the bitwise-equality contract with the scalar kernel.
//
// Bitwise contract: SIMD lanes never split a summation index. A lane is
// a replicate (row_sum, skat_fold), a Gram column (gram_tile), or a
// row or column of the Householder product (householder_step), and each
// lane keeps the single accumulator chain of the scalar kernel, adding
// in the same order; elementwise IEEE mul/add round identically in
// scalar and vector form.
#include "stats/kernels/kernels_internal.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

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

/// The 4×4 transpose of rows r0..r3: on return, c_m holds element m of
/// each row, [r0[m], r1[m], r2[m], r3[m]].
inline void Transpose4(__m256d r0, __m256d r1, __m256d r2, __m256d r3,
                       __m256d* c0, __m256d* c1, __m256d* c2, __m256d* c3) {
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // r0[0] r1[0] r0[2] r1[2]
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // r0[1] r1[1] r0[3] r1[3]
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  *c0 = _mm256_permute2f128_pd(t0, t2, 0x20);
  *c1 = _mm256_permute2f128_pd(t1, t3, 0x20);
  *c2 = _mm256_permute2f128_pd(t0, t2, 0x31);
  *c3 = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// acc + x·c with x = *value broadcast to every lane: a separate multiply
/// and add in each lane.
inline __m256d AddBroadcastProduct(__m256d acc, const double* value,
                                   __m256d c) {
  return _mm256_add_pd(acc, _mm256_mul_pd(_mm256_broadcast_sd(value), c));
}

void GramTileAvx2(const double* const* a, const double* const* b,
                  std::size_t n, double* out) {
  // Lanes are the four b-columns; acc[s] holds a-row s's four dots. Per
  // four i the b-rows are transposed in registers, so column vector c_m
  // holds b_t[i + m], and a_s[i + m] is broadcast from memory: each lane
  // adds its products in ascending i from +0, as the scalar chain does.
  const double* a0 = a[0];
  const double* a1 = a[1];
  const double* a2 = a[2];
  const double* a3 = a[3];
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d c[4];
    Transpose4(_mm256_loadu_pd(b[0] + i), _mm256_loadu_pd(b[1] + i),
               _mm256_loadu_pd(b[2] + i), _mm256_loadu_pd(b[3] + i), &c[0],
               &c[1], &c[2], &c[3]);
#pragma GCC unroll 4
    for (std::size_t m = 0; m < 4; ++m) {
      acc0 = AddBroadcastProduct(acc0, a0 + i + m, c[m]);
      acc1 = AddBroadcastProduct(acc1, a1 + i + m, c[m]);
      acc2 = AddBroadcastProduct(acc2, a2 + i + m, c[m]);
      acc3 = AddBroadcastProduct(acc3, a3 + i + m, c[m]);
    }
  }
  _mm256_storeu_pd(out + 0, acc0);
  _mm256_storeu_pd(out + 4, acc1);
  _mm256_storeu_pd(out + 8, acc2);
  _mm256_storeu_pd(out + 12, acc3);
  // The n % 4 tail continues each chain in scalar.
  for (; i < n; ++i) {
    for (std::size_t s = 0; s < 4; ++s) {
      const double x = a[s][i];
      for (std::size_t t = 0; t < 4; ++t) out[4 * s + t] += x * b[t][i];
    }
  }
}

void HouseholderStepAvx2(double* a, std::size_t stride, std::size_t i,
                         const double* u, double h, double* q) {
  std::fill(q, q + i, 0.0);
  // q = A·u, four rows j..j+3 per pass. Left of the block (k < j, a
  // multiple of 4) the lanes are columns k..k+3 for q, each adding rows
  // j..j+3 in ascending order, and rows j..j+3 for the four dot chains,
  // each adding columns in ascending k (the row segments transposed in
  // registers). The block's 4×4 diagonal triangle then runs the scalar
  // loop's steps in the scalar loop's order.
  std::size_t j = 0;
  for (; j + 4 <= i; j += 4) {
    const double* r0 = a + j * stride;
    const double* r1 = r0 + stride;
    const double* r2 = r1 + stride;
    const double* r3 = r2 + stride;
    const __m256d u0 = _mm256_set1_pd(u[j]);
    const __m256d u1 = _mm256_set1_pd(u[j + 1]);
    const __m256d u2 = _mm256_set1_pd(u[j + 2]);
    const __m256d u3 = _mm256_set1_pd(u[j + 3]);
    __m256d dots = _mm256_setzero_pd();
    for (std::size_t k = 0; k < j; k += 4) {
      const __m256d x0 = _mm256_loadu_pd(r0 + k);
      const __m256d x1 = _mm256_loadu_pd(r1 + k);
      const __m256d x2 = _mm256_loadu_pd(r2 + k);
      const __m256d x3 = _mm256_loadu_pd(r3 + k);
      __m256d qk = _mm256_loadu_pd(q + k);
      qk = _mm256_add_pd(qk, _mm256_mul_pd(x0, u0));
      qk = _mm256_add_pd(qk, _mm256_mul_pd(x1, u1));
      qk = _mm256_add_pd(qk, _mm256_mul_pd(x2, u2));
      qk = _mm256_add_pd(qk, _mm256_mul_pd(x3, u3));
      _mm256_storeu_pd(q + k, qk);
      __m256d c0, c1, c2, c3;
      Transpose4(x0, x1, x2, x3, &c0, &c1, &c2, &c3);
      dots = AddBroadcastProduct(dots, u + k, c0);
      dots = AddBroadcastProduct(dots, u + k + 1, c1);
      dots = AddBroadcastProduct(dots, u + k + 2, c2);
      dots = AddBroadcastProduct(dots, u + k + 3, c3);
    }
    double dot[4];
    _mm256_storeu_pd(dot, dots);
    for (std::size_t t = 0; t < 4; ++t) {
      const std::size_t row_index = j + t;
      const double* row = a + row_index * stride;
      const double ur = u[row_index];
      double chain = dot[t];
      for (std::size_t k = j; k < row_index; ++k) {
        chain += row[k] * u[k];
        q[k] += row[k] * ur;
      }
      q[row_index] += chain + row[row_index] * ur;
    }
  }
  // The last i % 4 rows, one at a time as in the scalar loop.
  HouseholderProductRows(a, stride, j, i, u, q);
  HouseholderScaleQ(i, u, h, q);
  // The rank-2 update, lanes over k: every entry is its own
  // row[k] − (qr·u[k] + ur·q[k]).
  for (std::size_t r = 0; r < i; ++r) {
    const double qr = q[r];
    const double ur = u[r];
    const __m256d qv = _mm256_set1_pd(qr);
    const __m256d uv = _mm256_set1_pd(ur);
    double* row = a + r * stride;
    std::size_t k = 0;
    for (; k + 4 <= r + 1; k += 4) {
      const __m256d update =
          _mm256_add_pd(_mm256_mul_pd(qv, _mm256_loadu_pd(u + k)),
                        _mm256_mul_pd(uv, _mm256_loadu_pd(q + k)));
      _mm256_storeu_pd(row + k,
                       _mm256_sub_pd(_mm256_loadu_pd(row + k), update));
    }
    for (; k <= r; ++k) row[k] -= qr * u[k] + ur * q[k];
  }
}

}  // namespace

const KernelTable kAvx2Table = {
    .row_sum = &RowSumAvx2,
    .skat_fold = &SkatFoldAvx2,
    .gram_tile = &GramTileAvx2,
    .householder_step = &HouseholderStepAvx2,
};

}  // namespace ss::stats::kernels::internal

#else  // !defined(__AVX2__)

namespace ss::stats::kernels::internal {

const KernelTable kAvx2Table = kScalarTable;

}  // namespace ss::stats::kernels::internal

#endif
