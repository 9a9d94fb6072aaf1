// SSE2 kernel variants. Baseline x86-64 always has SSE2, so this TU
// needs no special compile flags there; on other targets the table
// degrades to the scalar entries.
//
// Bitwise contract: SIMD lanes map to replicates, never to patients.
// Each replicate keeps a single accumulator chain that sums patients in
// ascending order, exactly like the scalar kernel, so results are
// bit-identical (no FMA: baseline x86-64 has none, and elementwise
// mul/add are IEEE-identical scalar vs vector).
#include "stats/kernels/kernels_internal.hpp"

#if defined(__SSE2__)

#include <emmintrin.h>

namespace ss::stats::kernels::internal {
namespace {

void BatchedMacSse2(const double* u, std::size_t n, const double* zblock,
                    std::size_t count, double* out) {
  std::size_t r = 0;
  // Eight replicates per pass (four 2-lane accumulator chains) so the
  // loop is add-throughput bound instead of add-latency bound. The
  // patient-major Z layout makes every z load a contiguous 2-lane pair
  // of replicate multipliers — no unpacks on the hot path.
  for (; r + 8 <= count; r += 8) {
    __m128d acc[4] = {_mm_setzero_pd(), _mm_setzero_pd(), _mm_setzero_pd(),
                      _mm_setzero_pd()};
    const double* z = zblock + r;
    for (std::size_t i = 0; i < n; ++i, z += count) {
      const __m128d ui = _mm_set1_pd(u[i]);
      for (int g = 0; g < 4; ++g) {
        const __m128d lanes = _mm_loadu_pd(z + 2 * g);
        acc[g] = _mm_add_pd(acc[g], _mm_mul_pd(lanes, ui));
      }
    }
    for (int g = 0; g < 4; ++g) _mm_storeu_pd(out + r + 2 * g, acc[g]);
  }
  // Two-replicate blocks, then the scalar tail (same order as scalar).
  for (; r + 2 <= count; r += 2) {
    __m128d acc = _mm_setzero_pd();
    const double* z = zblock + r;
    for (std::size_t i = 0; i < n; ++i, z += count) {
      acc = _mm_add_pd(acc, _mm_mul_pd(_mm_loadu_pd(z), _mm_set1_pd(u[i])));
    }
    _mm_storeu_pd(out + r, acc);
  }
  for (; r < count; ++r) {
    const double* z = zblock + r;
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i, z += count) acc += z[0] * u[i];
    out[r] = acc;
  }
}

void CoxScanSse2(const std::uint8_t* event, const std::uint8_t* genotypes,
                 const double* prefix, const std::uint32_t* prefix_end,
                 std::size_t n, double* out) {
  std::size_t i = 0;
  // Two patients per pass: the paired divide is the win (divpd retires
  // two quotients for roughly the cost of one divsd).
  for (; i + 2 <= n; i += 2) {
    const __m128d a =
        _mm_set_pd(prefix[prefix_end[i + 1]], prefix[prefix_end[i]]);
    const __m128d b = _mm_set_pd(static_cast<double>(prefix_end[i + 1]),
                                 static_cast<double>(prefix_end[i]));
    const __m128d g = _mm_set_pd(static_cast<double>(genotypes[i + 1]),
                                 static_cast<double>(genotypes[i]));
    double contrib[2];
    _mm_storeu_pd(contrib, _mm_sub_pd(g, _mm_div_pd(a, b)));
    out[i] = event[i] != 0 ? contrib[0] : 0.0;
    out[i + 1] = event[i + 1] != 0 ? contrib[1] : 0.0;
  }
  if (i < n) CoxScanScalar(event + i, genotypes + i, prefix, prefix_end + i,
                           n - i, out + i);
}

void SkatFoldSse2(const double* scores, std::size_t count, double weight_sq,
                  double* acc) {
  const __m128d w = _mm_set1_pd(weight_sq);
  std::size_t r = 0;
  for (; r + 2 <= count; r += 2) {
    const __m128d s = _mm_loadu_pd(scores + r);
    const __m128d term = _mm_mul_pd(w, _mm_mul_pd(s, s));
    _mm_storeu_pd(acc + r, _mm_add_pd(_mm_loadu_pd(acc + r), term));
  }
  if (r < count) SkatFoldScalar(scores + r, count - r, weight_sq, acc + r);
}

void SkatBurdenFoldSse2(const double* scores, std::size_t count, double weight,
                        double weight_sq, double* skat, double* burden) {
  const __m128d w = _mm_set1_pd(weight);
  const __m128d wsq = _mm_set1_pd(weight_sq);
  std::size_t r = 0;
  for (; r + 2 <= count; r += 2) {
    const __m128d s = _mm_loadu_pd(scores + r);
    _mm_storeu_pd(skat + r, _mm_add_pd(_mm_loadu_pd(skat + r),
                                       _mm_mul_pd(wsq, _mm_mul_pd(s, s))));
    _mm_storeu_pd(burden + r,
                  _mm_add_pd(_mm_loadu_pd(burden + r), _mm_mul_pd(w, s)));
  }
  if (r < count) {
    SkatBurdenFoldScalar(scores + r, count - r, weight, weight_sq, skat + r,
                         burden + r);
  }
}

}  // namespace

// The SSE2 tier gets no sparse kernel of its own: the tier is slated for
// removal, so it reuses the scalar reference.
const KernelTable kSse2Table = {
    .batched_mac = &BatchedMacSse2,
    .sparse_mac = &SparseMacScalar,
    .cox_scan = &CoxScanSse2,
    .skat_fold = &SkatFoldSse2,
    .skat_burden_fold = &SkatBurdenFoldSse2,
};

}  // namespace ss::stats::kernels::internal

#else  // !defined(__SSE2__)

namespace ss::stats::kernels::internal {

const KernelTable kSse2Table = kScalarTable;

}  // namespace ss::stats::kernels::internal

#endif
