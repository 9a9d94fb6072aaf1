// Runtime-dispatched compute kernels.
//
// The loops the default resampling path and the hybrid screen spend
// their time in — the multiply-free sparse replicate kernel (summing
// pre-scaled coefficient rows for a SNP's non-zero genotypes), the
// driver's per-set SKAT fold, the screen's set-Gram dot tiles and the
// Householder step of its eigensolve — are routed through a
// function-pointer table selected once per process from the best
// instruction set the CPU supports (scalar / AVX2). The AVX2 variants
// preserve the scalar kernel's accumulation order bit for bit: lanes
// never split a summation index, so every sum is still one chain in
// ascending order and `resampling.result_hash` is invariant to the
// dispatch level (see docs/KERNELS.md). Loops off these paths (the
// dense U × Z MAC of paper-faithful Monte Carlo, the Cox contribution
// scan, the SKAT-O fold, the eigensolve's QL sweep) are plain scalar
// functions at their call sites.
//
// The level can be forced with the SS_KERNEL environment variable
// (scalar|avx2) or programmatically via SetDispatchLevel (the CLI
// and benches expose this as `kernel=`). Requests above what the CPU
// supports clamp down with a warning rather than fault.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "support/status.hpp"

namespace ss::stats::kernels {

/// Instruction-set tiers, ordered. Numeric values are stable: they are
/// exported through the `kernel.dispatch` counter and run-metrics JSON
/// (1 belonged to a retired SSE2 tier and is not reused).
enum class DispatchLevel : int { kScalar = 0, kAvx2 = 2 };

/// Stable lowercase name ("scalar", "avx2").
const char* DispatchLevelName(DispatchLevel level);

/// Parses a name as accepted by SS_KERNEL / `kernel=`.
Result<DispatchLevel> ParseDispatchLevel(const std::string& name);

/// Best level this CPU can execute.
DispatchLevel BestSupportedLevel();

/// Every level this CPU can execute, ascending: scalar, then AVX2 where
/// supported (differential tests and bench_kernels iterate these).
std::vector<DispatchLevel> ExecutableLevels();

/// The level in effect. Initialized lazily on first use: SS_KERNEL if
/// set (clamped to supported), else BestSupportedLevel().
DispatchLevel ActiveDispatchLevel();

/// Forces the dispatch level, clamping to BestSupportedLevel() with a
/// warning if the request is not executable here. Returns the level
/// actually installed. Not intended for use while kernels are running
/// on other threads; the CLI/benches call it during startup only.
DispatchLevel SetDispatchLevel(DispatchLevel level);

/// One entry per routed hot loop. All variants of a kernel are bitwise
/// equivalent; only their instruction mix differs.
struct KernelTable {
  /// Multiply-free sparse replicate kernel:
  ///   out[r] = sum_k rows[k][r],
  /// summed in ascending k per replicate starting from +0, where each
  /// rows[k] points at `count` contiguous doubles. With rows[k] the
  /// pre-scaled coefficient row fl(d_k * V_{i_k}) of a SNP's k-th
  /// non-zero genotype (PackedGenotypeBlock::DosageRowsInto over a
  /// DosageScaledTable), in ascending patient order, and finite V, the
  /// output is bitwise equal
  /// to the dense MAC stats::BatchedReplicateScores on the dosages
  /// widened to doubles: every summand is the product the dense MAC
  /// rounds, the adds run in the same order, and a skipped G=0 term (±0)
  /// could never have moved the accumulator (docs/KERNELS.md).
  using RowSumFn = void (*)(const double* const* rows, std::size_t nrows,
                            std::size_t count, double* out);
  /// acc[r] += weight_sq * (scores[r] * scores[r]).
  using SkatFoldFn = void (*)(const double* scores, std::size_t count,
                              double weight_sq, double* acc);

  /// A 4×4 tile of dot products over rows of length n:
  ///   out[4·s + t] = sum_i a[s][i] * b[t][i],
  /// each entry one chain that starts from +0 and adds the rounded
  /// products in ascending i. a and b hold four row pointers each (a row
  /// may repeat). The set-Gram stage of the analytic screen walks a
  /// set's upper triangle in these tiles.
  using GramTileFn = void (*)(const double* const* a, const double* const* b,
                              std::size_t n, double* out);
  /// One step of the Householder tridiagonalization in
  /// stats::SymmetricEigenvalues, on the leading i×i lower triangle of the
  /// row-major matrix `a` (row j starts at a + j·stride; entries k ≤ j):
  ///   q = A·u / h,  q -= (uᵀq / 2h)·u,  A ← A − q uᵀ − u qᵀ.
  /// `q` is i doubles of scratch. In A·u, q[j] receives row j's dot with
  /// u (one ascending-k chain from +0) plus row[j]·u[j], then every later
  /// row's row[j]·u[row] in ascending row order.
  using HouseholderStepFn = void (*)(double* a, std::size_t stride,
                                     std::size_t i, const double* u, double h,
                                     double* q);

  RowSumFn row_sum = nullptr;
  SkatFoldFn skat_fold = nullptr;
  GramTileFn gram_tile = nullptr;
  HouseholderStepFn householder_step = nullptr;
};

/// The pre-scaled coefficient table `row_sum` reads for 2-bit dosages:
/// for a patient-major n × count block V (`vblock`, n·count doubles),
/// [V ; fl(2·V) ; fl(3·V)], 3·n·count doubles, written to `*table`
/// (resized; its buffer is reused when large enough). Patient i's row for
/// dosage d ∈ {1, 2, 3} starts at ((d − 1)·n + i)·count; V is the table's
/// first third. PackedGenotypeBlock::DosageRowsInto lists a SNP's rows.
void DosageScaledTable(const std::vector<double>& vblock,
                       std::vector<double>* table);

/// The table for the active dispatch level.
const KernelTable& ActiveKernels();

/// The table for a specific level (differential tests compare these).
/// Levels above BestSupportedLevel() must not be executed.
const KernelTable& KernelsFor(DispatchLevel level);

}  // namespace ss::stats::kernels
