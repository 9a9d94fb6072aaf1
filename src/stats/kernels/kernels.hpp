// Runtime-dispatched compute kernels for the resampling hot paths.
//
// The loops that dominate resampling wall-clock — the batched replicate
// multiply-accumulate (dense over per-patient values, and its
// multiply-free sparse form summing pre-scaled rows for non-zero
// genotypes), the Cox score contribution scan, and the per-set
// SKAT weighted folds — are routed through a function-pointer
// table selected once per process from the best instruction set the CPU
// supports (scalar / AVX2). The AVX2 variants preserve the
// scalar kernel's per-element accumulation order bit for bit: lanes map
// to *replicates*, never to patients, so each replicate's accumulator
// still sums patients in ascending order and `resampling.result_hash`
// is invariant to the dispatch level (see docs/KERNELS.md).
//
// The level can be forced with the SS_KERNEL environment variable
// (scalar|avx2) or programmatically via SetDispatchLevel (the CLI
// and benches expose this as `kernel=`). Requests above what the CPU
// supports clamp down with a warning rather than fault.
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// out[r] = sum_i u[i] * zblock[i*count + r], summed in ascending i per
  /// replicate. `zblock` is patient-major (MonteCarloZBlock layout):
  /// patient i's `count` replicate multipliers are contiguous, so vector
  /// variants load replicate lanes directly — no transpose, no strided
  /// or gathered reads on the hot path.
  using BatchedMacFn = void (*)(const double* u, std::size_t n,
                                const double* zblock, std::size_t count,
                                double* out);
  /// Multiply-free sparse form of `batched_mac`:
  ///   out[r] = sum_k rows[k][r],
  /// summed in ascending k per replicate starting from +0, where each
  /// rows[k] points at `count` contiguous doubles. With rows[k] the
  /// pre-scaled coefficient row fl(d_k * V_{i_k}) of a SNP's k-th
  /// non-zero genotype (SelectDosageRows over a DosageScaledTable), in
  /// ascending patient order, and finite V, the output is bitwise equal
  /// to `batched_mac` on the dosages widened to doubles: every summand
  /// is the product the dense kernel rounds, the adds run in the same
  /// order, and a skipped G=0 term (±0) could never have moved the
  /// accumulator (docs/KERNELS.md).
  using RowSumFn = void (*)(const double* const* rows, std::size_t nrows,
                            std::size_t count, double* out);
  /// Cox score contribution scan: for each patient i (sorted-time order
  /// arrays as produced by RiskSetIndex),
  ///   out[i] = event[i] ? genotypes[i] - prefix[prefix_end[i]] /
  ///                       double(prefix_end[i])
  ///          : +0.0
  /// `prefix` has n + 1 entries; prefix_end[i] >= 1 for every i.
  using CoxScanFn = void (*)(const std::uint8_t* event,
                             const std::uint8_t* genotypes,
                             const double* prefix,
                             const std::uint32_t* prefix_end, std::size_t n,
                             double* out);
  /// acc[r] += weight_sq * (scores[r] * scores[r]).
  using SkatFoldFn = void (*)(const double* scores, std::size_t count,
                              double weight_sq, double* acc);
  /// skat[r] += weight_sq * (scores[r] * scores[r]);
  /// burden[r] += weight * scores[r].
  using SkatBurdenFoldFn = void (*)(const double* scores, std::size_t count,
                                    double weight, double weight_sq,
                                    double* skat, double* burden);

  BatchedMacFn batched_mac = nullptr;
  RowSumFn row_sum = nullptr;
  CoxScanFn cox_scan = nullptr;
  SkatFoldFn skat_fold = nullptr;
  SkatBurdenFoldFn skat_burden_fold = nullptr;
};

/// The pre-scaled coefficient table `row_sum` reads for 2-bit dosages:
/// for a patient-major n × count block V (`vblock`, n·count doubles),
/// [V ; fl(2·V) ; fl(3·V)], 3·n·count doubles. Patient i's row for
/// dosage d ∈ {1, 2, 3} starts at ((d − 1)·n + i)·count; V is the
/// table's first third.
std::vector<double> DosageScaledTable(const std::vector<double>& vblock);

/// Points rows[k] (k < nnz) at the row fl(dosage[k] · V_index[k]) for a
/// SNP's non-zero runs (PackedGenotypeBlock::NonZeroInto order), so
/// `row_sum` scores the SNP. Dosages 1..3 select a row of `table` (a
/// DosageScaledTable over n patients); a raw-fallback dosage above 3
/// gets its row materialised in `scaled`. Both buffers grow as needed
/// and are reused across calls; rows stay valid until the next call.
void SelectDosageRows(const std::uint32_t* index, const std::uint8_t* dosage,
                      std::size_t nnz, const double* table, std::size_t n,
                      std::size_t count, std::vector<const double*>* rows,
                      std::vector<double>* scaled);

/// The table for the active dispatch level.
const KernelTable& ActiveKernels();

/// The table for a specific level (differential tests compare these).
/// Levels above BestSupportedLevel() must not be executed.
const KernelTable& KernelsFor(DispatchLevel level);

}  // namespace ss::stats::kernels
