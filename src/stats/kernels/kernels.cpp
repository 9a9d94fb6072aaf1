#include "stats/kernels/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "stats/kernels/kernels_internal.hpp"
#include "support/log.hpp"

namespace ss::stats::kernels {
namespace internal {

void RowSumScalar(const double* const* rows, std::size_t nrows,
                  std::size_t count, double* out) {
  // Four replicates per pass over the row list, then the tail; every
  // lane sums rows in ascending k from +0, as the AVX2 blocks do.
  std::size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    double acc0 = 0.0;
    double acc1 = 0.0;
    double acc2 = 0.0;
    double acc3 = 0.0;
    for (std::size_t k = 0; k < nrows; ++k) {
      const double* row = rows[k] + r;
      acc0 += row[0];
      acc1 += row[1];
      acc2 += row[2];
      acc3 += row[3];
    }
    out[r + 0] = acc0;
    out[r + 1] = acc1;
    out[r + 2] = acc2;
    out[r + 3] = acc3;
  }
  for (; r < count; ++r) {
    double acc = 0.0;
    for (std::size_t k = 0; k < nrows; ++k) acc += rows[k][r];
    out[r] = acc;
  }
}

void SkatFoldScalar(const double* scores, std::size_t count, double weight_sq,
                    double* acc) {
  for (std::size_t r = 0; r < count; ++r) {
    const double squared = scores[r] * scores[r];
    acc[r] += weight_sq * squared;
  }
}

void GramTileScalar(const double* const* a, const double* const* b,
                    std::size_t n, double* out) {
  // Per a-row, the four b-columns share each pass over it; every dot is
  // its own ascending-i chain from +0.
  for (std::size_t s = 0; s < 4; ++s) {
    const double* x = a[s];
    double dot0 = 0.0;
    double dot1 = 0.0;
    double dot2 = 0.0;
    double dot3 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double xi = x[i];
      dot0 += xi * b[0][i];
      dot1 += xi * b[1][i];
      dot2 += xi * b[2][i];
      dot3 += xi * b[3][i];
    }
    out[4 * s + 0] = dot0;
    out[4 * s + 1] = dot1;
    out[4 * s + 2] = dot2;
    out[4 * s + 3] = dot3;
  }
}

void HouseholderProductRows(const double* a, std::size_t stride,
                            std::size_t j_begin, std::size_t i,
                            const double* u, double* q) {
  // q = A·u from the lower triangle: row j contributes its dot with u
  // to q[j] and, by symmetry, row[k]·u[j] to every q[k] with k < j.
  for (std::size_t j = j_begin; j < i; ++j) {
    const double* row = a + j * stride;
    const double uj = u[j];
    double dot = 0.0;
    for (std::size_t k = 0; k < j; ++k) {
      dot += row[k] * u[k];
      q[k] += row[k] * uj;
    }
    q[j] += dot + row[j] * uj;
  }
}

void HouseholderScaleQ(std::size_t i, const double* u, double h, double* q) {
  // p = A·u / h, then q = p - (uᵀp / 2h)·u.
  double k_coeff = 0.0;
  for (std::size_t j = 0; j < i; ++j) {
    q[j] /= h;
    k_coeff += u[j] * q[j];
  }
  k_coeff /= h + h;
  for (std::size_t j = 0; j < i; ++j) q[j] -= k_coeff * u[j];
}

void HouseholderStepScalar(double* a, std::size_t stride, std::size_t i,
                           const double* u, double h, double* q) {
  std::fill(q, q + i, 0.0);
  HouseholderProductRows(a, stride, 0, i, u, q);
  HouseholderScaleQ(i, u, h, q);
  for (std::size_t j = 0; j < i; ++j) {
    const double qj = q[j];
    const double uj = u[j];
    double* row = a + j * stride;
    for (std::size_t k = 0; k <= j; ++k) row[k] -= qj * u[k] + uj * q[k];
  }
}

const KernelTable kScalarTable = {
    .row_sum = &RowSumScalar,
    .skat_fold = &SkatFoldScalar,
    .gram_tile = &GramTileScalar,
    .householder_step = &HouseholderStepScalar,
};

}  // namespace internal

namespace {

// -1 = not yet initialized; otherwise a DispatchLevel value.
std::atomic<int> g_level{-1};

DispatchLevel ClampToSupported(DispatchLevel level, const char* origin) {
  const DispatchLevel best = BestSupportedLevel();
  if (static_cast<int>(level) <= static_cast<int>(best)) return level;
  SS_LOG(kWarn, "kernels") << origin << " requested "
                           << DispatchLevelName(level)
                           << " but this CPU supports at most "
                           << DispatchLevelName(best) << "; clamping";
  return best;
}

DispatchLevel InitialLevel() {
  const char* env = std::getenv("SS_KERNEL");
  if (env != nullptr && env[0] != '\0') {
    Result<DispatchLevel> parsed = ParseDispatchLevel(env);
    if (parsed.ok()) return ClampToSupported(parsed.value(), "SS_KERNEL");
    SS_LOG(kWarn, "kernels")
        << "ignoring unrecognized SS_KERNEL value '" << env
        << "' (expected scalar|avx2); using best supported level";
  }
  return BestSupportedLevel();
}

}  // namespace

const char* DispatchLevelName(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return "scalar";
    case DispatchLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Result<DispatchLevel> ParseDispatchLevel(const std::string& name) {
  if (name == "scalar") return DispatchLevel::kScalar;
  if (name == "avx2") return DispatchLevel::kAvx2;
  return Status::InvalidArgument("unknown kernel dispatch level '" + name +
                                 "' (expected scalar|avx2)");
}

DispatchLevel BestSupportedLevel() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) return DispatchLevel::kAvx2;
#endif
  return DispatchLevel::kScalar;
}

std::vector<DispatchLevel> ExecutableLevels() {
  std::vector<DispatchLevel> levels = {DispatchLevel::kScalar};
  if (BestSupportedLevel() == DispatchLevel::kAvx2) {
    levels.push_back(DispatchLevel::kAvx2);
  }
  return levels;
}

DispatchLevel ActiveDispatchLevel() {
  int level = g_level.load(std::memory_order_acquire);
  if (level < 0) {
    level = static_cast<int>(InitialLevel());
    int expected = -1;
    // First initializer wins; a concurrent SetDispatchLevel also wins.
    if (!g_level.compare_exchange_strong(expected, level,
                                         std::memory_order_acq_rel)) {
      level = expected;
    }
  }
  return static_cast<DispatchLevel>(level);
}

DispatchLevel SetDispatchLevel(DispatchLevel level) {
  const DispatchLevel actual = ClampToSupported(level, "SetDispatchLevel");
  g_level.store(static_cast<int>(actual), std::memory_order_release);
  return actual;
}

void DosageScaledTable(const std::vector<double>& vblock,
                       std::vector<double>* table) {
  // Each entry is the product the dense kernel rounds for that dosage
  // (z · d, with fl(1 · z) = z), so summing table rows reproduces it.
  const std::size_t size = vblock.size();
  table->resize(3 * size);
  double* out = table->data();
  for (std::size_t j = 0; j < size; ++j) {
    out[j] = vblock[j];
    out[size + j] = vblock[j] * 2.0;
    out[2 * size + j] = vblock[j] * 3.0;
  }
}

const KernelTable& ActiveKernels() { return KernelsFor(ActiveDispatchLevel()); }

const KernelTable& KernelsFor(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return internal::kScalarTable;
    case DispatchLevel::kAvx2:
      return internal::kAvx2Table;
  }
  return internal::kScalarTable;
}

}  // namespace ss::stats::kernels
