// bench_kernels — microbenchmark for the runtime-dispatched SIMD kernels
// (src/stats/kernels): the multiply-free sparse replicate kernel
// (`row_sum`), the per-set SKAT fold and the analytic screen's two
// kernels (`gram_tile` over a set's Gram, `householder_step` through
// stats::SymmetricEigenvalues), timed at every dispatch level this CPU
// can execute, plus the scalar dense MAC the sparse kernel replaces and
// 2-bit genotype pack/unpack. Cross-level outputs are verified bitwise
// equal while timing, so the speedup numbers compare identical
// computations; the sparse kernel is also verified bitwise equal to the
// dense MAC (stats::BatchedReplicateScores) on the widened dosages.
//
// The per-SNP rows score `snps` SNPs with generator-like density
// (per-SNP allele frequency ~ U(0.05, 0.5), binomial dosages; ~46%
// non-zero) against one coefficient block, densely once and sparsely at
// every level. The sparse pass is the pipeline's per-SNP work: fill the
// pass's [V; 2V; 3V] table, then per SNP walk the packed bytes to the row
// list (PackedGenotypeBlock::DosageRowsInto) and `row_sum` it; the decode
// walk is also timed alone.
//
// The screen rows use a fixed shape, n = 1000 patients (perfbench's
// `hybrid` cohort) and sets of d = 100 and 700 SNPs: one whole Gram
// (every upper-triangle tile) and one eigensolve of it per sample.
//
// Keys: patients= count= iters= snps= seed= datapoint=<json path>
// `datapoint=` writes a BENCH_kernels.json datapoint consumed by
// tools/check_bench.py (the bench_kernels_smoke ctest gate).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "stats/kernels/kernels.hpp"
#include "stats/kernels/packed_genotype.hpp"
#include "stats/linalg.hpp"
#include "stats/resampling.hpp"
#include "support/distributions.hpp"

namespace ss::bench {
namespace {

using stats::kernels::DispatchLevel;

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Best-of-N timing: the minimum over repeated measurements is the
/// standard microbench estimator — scheduler noise and frequency dips
/// only ever inflate a sample, never deflate it.
double BestOf(int samples, const std::function<void()>& fn) {
  double best = TimeOnce(fn);
  for (int s = 1; s < samples; ++s) best = std::min(best, TimeOnce(fn));
  return best;
}

struct LevelTiming {
  const char* name = nullptr;
  double fold_seconds = 0.0;
  // Per SNP, over the generator-like genotypes: the whole sparse path,
  // and its packed-bytes-to-row-list decode alone.
  double sparse_snp_seconds = std::numeric_limits<double>::infinity();
  double decode_snp_seconds = std::numeric_limits<double>::infinity();
};

/// The screen shapes: patients per contribution row, and set sizes.
constexpr std::size_t kScreenPatients = 1000;
constexpr std::size_t kScreenDims[] = {100, 700};

/// One set's Gram over `rows` (each kScreenPatients long, unit weights),
/// every row tile in turn, as the set-gram stage fills it.
stats::Matrix TiledGram(const std::vector<const double*>& rows,
                        stats::kernels::KernelTable::GramTileFn gram_tile) {
  const std::size_t d = rows.size();
  const std::vector<double> ones(d, 1.0);
  stats::Matrix gram(d, d);
  for (std::size_t t = 0; 4 * t < d; ++t) {
    stats::FillWeightedGramRowTile(rows, ones, kScreenPatients, t, gram_tile,
                                   &gram);
  }
  return gram;
}

/// Per set size: one whole Gram from `gram_tile`, and one eigensolve
/// (`householder_step` does its cubic part), best of the samples.
struct ScreenTiming {
  double gram_seconds = std::numeric_limits<double>::infinity();
  double eigen_seconds = std::numeric_limits<double>::infinity();
};

/// One SNP as both MAC inputs: the dosages widened to doubles (dense)
/// and 2-bit packed (sparse).
struct SparseSnp {
  std::vector<double> widened;
  stats::PackedGenotypeBlock packed;
};

int Run(const Args& args) {
  const std::size_t n = args.GetU64("patients", 4096);
  const std::size_t count = args.GetU64("count", 256);
  const int iters = static_cast<int>(args.GetU64("iters", 40));
  const std::size_t num_snps = args.GetU64("snps", 512);
  const std::uint64_t seed = args.GetU64("seed", 2016);

  char scale[160];
  std::snprintf(scale, sizeof(scale),
                "patients=%zu count=%zu iters=%d snps=%zu", n, count, iters,
                num_snps);
  PrintBanner("bench_kernels",
              "SIMD kernel dispatch (sparse replicate kernel / SKAT fold / "
              "2-bit genotype packing)",
              scale);

  Rng rng(seed);
  std::vector<double> zblock(n * count);
  for (double& v : zblock) v = rng.NextDouble() * 2.0 - 1.0;
  std::vector<double> fold_scores(count);
  for (double& v : fold_scores) v = rng.NextDouble() * 2.0 - 1.0;

  std::vector<SparseSnp> sparse_snps(num_snps);
  std::uint64_t nonzero = 0;
  for (SparseSnp& snp : sparse_snps) {
    const double maf = 0.05 + 0.45 * rng.NextDouble();
    std::vector<std::uint8_t> dosages(n);
    for (auto& d : dosages) {
      d = static_cast<std::uint8_t>(SampleBinomial(rng, 2, maf));
    }
    snp.widened.assign(dosages.begin(), dosages.end());
    snp.packed = stats::PackedGenotypeBlock::Pack(dosages);
    nonzero += n - static_cast<std::size_t>(
                       std::count(dosages.begin(), dosages.end(), 0));
  }
  const double density =
      num_snps * n == 0 ? 0.0
                        : static_cast<double>(nonzero) /
                              static_cast<double>(num_snps * n);

  const std::vector<DispatchLevel> levels = stats::kernels::ExecutableLevels();
  std::vector<LevelTiming> timings(levels.size());

  // One pass over every SNP per sample; the per-SNP outputs of the last
  // pass are kept for the bitwise checks. The dense pass is the scalar
  // MAC the sparse kernel must reproduce. The sparse pass pays for its
  // block's [V; 2V; 3V] table fill and row-offset LUT, as every pipeline
  // score block does, then decodes and scores each SNP. The table buffer
  // is allocated (and its pages touched) once here, so no sample pays
  // page faults for it.
  std::vector<double> dense_out(num_snps * count);
  std::vector<std::vector<double>> sparse_outs(
      levels.size(), std::vector<double>(num_snps * count));
  const auto dense_pass = [&]() {
    for (std::size_t j = 0; j < num_snps; ++j) {
      stats::BatchedReplicateScores(sparse_snps[j].widened, zblock.data(),
                                    count, dense_out.data() + j * count);
    }
  };
  std::vector<double> scaled_table;
  stats::kernels::DosageScaledTable(zblock, &scaled_table);
  std::vector<const double*> rows;
  const auto sparse_pass = [&](std::size_t l) {
    const stats::kernels::KernelTable& table =
        stats::kernels::KernelsFor(levels[l]);
    stats::kernels::DosageScaledTable(zblock, &scaled_table);
    const stats::DosageRowOffsets offsets(n, count);
    for (std::size_t j = 0; j < num_snps; ++j) {
      const std::size_t nnz = sparse_snps[j].packed.DosageRowsInto(
          offsets, scaled_table.data(), &rows);
      table.row_sum(rows.data(), nnz, count,
                    sparse_outs[l].data() + j * count);
    }
  };
  std::uint64_t decode_sink = 0;
  const stats::DosageRowOffsets decode_offsets(n, count);
  const auto decode_pass = [&]() {
    for (const SparseSnp& snp : sparse_snps) {
      decode_sink +=
          snp.packed.DosageRowsInto(decode_offsets, scaled_table.data(), &rows);
    }
  };
  // Both gates read this row (every level's sparse pass against the
  // scalar one, and the scalar sparse pass against the dense one), so its
  // samples alternate between the dense pass and every level (best of 7
  // each): host drift during the row then hits both sides of each ratio
  // alike.
  double dense_snp_seconds = std::numeric_limits<double>::infinity();
  for (int sample = 0; sample < 7; ++sample) {
    dense_snp_seconds = std::min(dense_snp_seconds, TimeOnce(dense_pass));
    for (std::size_t l = 0; l < levels.size(); ++l) {
      timings[l].sparse_snp_seconds = std::min(
          timings[l].sparse_snp_seconds, TimeOnce([&]() { sparse_pass(l); }));
      timings[l].decode_snp_seconds =
          std::min(timings[l].decode_snp_seconds, TimeOnce(decode_pass));
    }
  }
  if (num_snps > 0) {
    dense_snp_seconds /= static_cast<double>(num_snps);
    for (LevelTiming& timing : timings) {
      timing.sparse_snp_seconds /= static_cast<double>(num_snps);
      timing.decode_snp_seconds /= static_cast<double>(num_snps);
    }
  }

  bool bitwise_ok = true;
  bool sparse_bitwise_ok = true;
  std::vector<double> fold_reference;
  for (std::size_t l = 0; l < levels.size(); ++l) {
    const stats::kernels::KernelTable& table =
        stats::kernels::KernelsFor(levels[l]);
    LevelTiming& timing = timings[l];
    timing.name = stats::kernels::DispatchLevelName(levels[l]);

    std::vector<double> acc(count, 0.0);
    table.skat_fold(fold_scores.data(), count, 0.25, acc.data());
    timing.fold_seconds = BestOf(5, [&]() {
                            for (int r = 0; r < iters; ++r) {
                              table.skat_fold(fold_scores.data(), count, 0.25,
                                              acc.data());
                            }
                          }) /
                          iters;
    // One fold from +0 for the cross-level check.
    std::vector<double> fold_out(count, 0.0);
    table.skat_fold(fold_scores.data(), count, 0.25, fold_out.data());

    if (!BitEqual(sparse_outs[l], dense_out)) {
      sparse_bitwise_ok = false;
      std::fprintf(stderr, "SPARSE/DENSE MISMATCH at level %s\n", timing.name);
    }
    if (l == 0) {
      fold_reference = fold_out;
    } else {
      if (!BitEqual(fold_out, fold_reference)) {
        bitwise_ok = false;
        std::fprintf(stderr, "BITWISE MISMATCH at level %s\n", timing.name);
      }
      if (!BitEqual(sparse_outs[l], sparse_outs.front())) {
        sparse_bitwise_ok = false;
        std::fprintf(stderr, "SPARSE MISMATCH at level %s\n", timing.name);
      }
    }
  }

  // The screen kernels at n = 1000: every level's Gram and spectrum per
  // set size, samples alternating between the levels (best of 3), and
  // both checked bitwise against the scalar level's. The eigensolve
  // reads the dispatched table, so each sample installs its level.
  const std::size_t num_dims = std::size(kScreenDims);
  std::vector<std::vector<ScreenTiming>> screen(
      levels.size(), std::vector<ScreenTiming>(num_dims));
  const DispatchLevel saved_level = stats::kernels::ActiveDispatchLevel();
  for (std::size_t k = 0; k < num_dims; ++k) {
    const std::size_t d = kScreenDims[k];
    std::vector<double> values(d * kScreenPatients);
    for (double& v : values) v = rng.NextDouble() * 2.0 - 1.0;
    std::vector<const double*> rows(d);
    for (std::size_t a = 0; a < d; ++a) rows[a] = &values[a * kScreenPatients];
    std::vector<stats::Matrix> grams(levels.size());
    std::vector<std::vector<double>> spectra(levels.size());
    for (int sample = 0; sample < 3; ++sample) {
      for (std::size_t l = 0; l < levels.size(); ++l) {
        const stats::kernels::KernelTable& table =
            stats::kernels::KernelsFor(levels[l]);
        ScreenTiming& timing = screen[l][k];
        timing.gram_seconds =
            std::min(timing.gram_seconds, TimeOnce([&]() {
                       grams[l] = TiledGram(rows, table.gram_tile);
                     }));
        stats::kernels::SetDispatchLevel(levels[l]);
        timing.eigen_seconds =
            std::min(timing.eigen_seconds, TimeOnce([&]() {
                       spectra[l] = stats::SymmetricEigenvalues(grams.front());
                     }));
      }
    }
    for (std::size_t l = 1; l < levels.size(); ++l) {
      const bool gram_equal =
          std::memcmp(&grams[l].at(0, 0), &grams.front().at(0, 0),
                      d * d * sizeof(double)) == 0;
      if (!gram_equal || !BitEqual(spectra[l], spectra.front())) {
        bitwise_ok = false;
        std::fprintf(stderr, "SCREEN MISMATCH at level %s, d=%zu\n",
                     timings[l].name, d);
      }
    }
  }
  stats::kernels::SetDispatchLevel(saved_level);

  // Pack/unpack throughput and the byte savings the partition cache sees.
  std::vector<std::vector<std::uint8_t>> snps(num_snps);
  std::uint64_t unpacked_bytes = 0;
  for (auto& snp : snps) {
    snp.resize(n);
    for (auto& d : snp) d = static_cast<std::uint8_t>(rng.NextBounded(3));
    unpacked_bytes += snp.size();
  }
  std::vector<stats::PackedGenotypeBlock> blocks;
  blocks.reserve(num_snps);
  const double pack_seconds = TimeOnce([&]() {
    for (const auto& snp : snps) {
      blocks.push_back(stats::PackedGenotypeBlock::Pack(snp));
    }
  });
  std::uint64_t packed_bytes = 0;
  for (const auto& block : blocks) packed_bytes += block.payload().size();
  std::vector<std::uint8_t> scratch;
  std::uint64_t allele_sink = 0;
  const double unpack_seconds = TimeOnce([&]() {
    for (const auto& block : blocks) {
      block.UnpackInto(&scratch);
      allele_sink += scratch.back();
    }
  });
  const double nonzero_seconds = TimeOnce([&]() {
    for (const auto& block : blocks) {
      allele_sink +=
          block.DosageRowsInto(decode_offsets, scaled_table.data(), &rows);
    }
  });

  const double scalar_sparse = timings.front().sparse_snp_seconds;
  char sparse_title[160];
  std::snprintf(sparse_title, sizeof(sparse_title),
                "Per-SNP replicate scores, %.1f%% non-zero (seconds, lower is "
                "better; scalar dense MAC %.7f s)",
                100.0 * density, dense_snp_seconds);
  Table table(sparse_title,
              {"level", "sparse row_sum", "of which decode", "SKAT fold",
               "row_sum speedup", "sparse vs dense"});
  for (const LevelTiming& t : timings) {
    table.AddRow({t.name, Table::Num(t.sparse_snp_seconds, 7),
                  Table::Num(t.decode_snp_seconds, 7),
                  Table::Num(t.fold_seconds, 8),
                  Table::Num(scalar_sparse / t.sparse_snp_seconds, 2) + "x",
                  Table::Num(dense_snp_seconds / t.sparse_snp_seconds, 2) +
                      "x"});
  }
  table.Print();
  Table screen_table("Screen kernels, n = 1000 (seconds per set, lower is "
                     "better)",
                     {"level", "set size", "gram_tile Gram", "speedup",
                      "eigensolve", "speedup"});
  for (std::size_t l = 0; l < levels.size(); ++l) {
    for (std::size_t k = 0; k < num_dims; ++k) {
      const ScreenTiming& t = screen[l][k];
      const ScreenTiming& base = screen.front()[k];
      screen_table.AddRow(
          {timings[l].name, std::to_string(kScreenDims[k]),
           Table::Num(t.gram_seconds, 5),
           Table::Num(base.gram_seconds / t.gram_seconds, 2) + "x",
           Table::Num(t.eigen_seconds, 5),
           Table::Num(base.eigen_seconds / t.eigen_seconds, 2) + "x"});
    }
  }
  screen_table.Print();
  std::printf("  genotype packing: %llu -> %llu bytes (%.2fx), pack %.4fs, "
              "unpack %.4fs, non-zero decode %.4fs (sink %llu)\n",
              static_cast<unsigned long long>(unpacked_bytes),
              static_cast<unsigned long long>(packed_bytes),
              static_cast<double>(unpacked_bytes) /
                  static_cast<double>(packed_bytes),
              pack_seconds, unpack_seconds, nonzero_seconds,
              static_cast<unsigned long long>(allele_sink + decode_sink));
  std::printf("  bitwise cross-level check: %s\n",
              bitwise_ok ? "identical" : "MISMATCH");
  std::printf("  bitwise sparse-vs-dense check: %s\n",
              sparse_bitwise_ok ? "identical" : "MISMATCH");

#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(SPARKSCORE_SANITIZE_BUILD)
  const bool sanitized = true;
#else
  const bool sanitized = false;
#endif

  const std::string out_path = args.GetStr("datapoint", "");
  if (!out_path.empty()) {
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "could not write datapoint to %s\n",
                   out_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\"bench\":\"bench_kernels\",\"patients\":%zu,\"count\":%zu,"
                 "\"iters\":%d,\"snps\":%zu,\"optimized\":%s,\"sanitized\":%s,"
                 "\"bitwise_identical\":%s,\"sparse_bitwise_identical\":%s,"
                 "\"sparse_density\":%.4f,\"dense_snp_seconds\":%.9f,"
                 "\"screen_patients\":%zu,\"best_level\":\"%s\","
                 "\"levels\":{",
                 n, count, iters, num_snps, optimized ? "true" : "false",
                 sanitized ? "true" : "false", bitwise_ok ? "true" : "false",
                 sparse_bitwise_ok ? "true" : "false", density,
                 dense_snp_seconds, kScreenPatients, timings.back().name);
    for (std::size_t i = 0; i < timings.size(); ++i) {
      const LevelTiming& t = timings[i];
      std::fprintf(out,
                   "%s\"%s\":{\"sparse_snp_seconds\":%.9f,"
                   "\"decode_snp_seconds\":%.9f,"
                   "\"fold_seconds\":%.9f,\"row_sum_speedup\":%.4f,"
                   "\"sparse_speedup\":%.4f,\"screen\":{",
                   i == 0 ? "" : ",", t.name, t.sparse_snp_seconds,
                   t.decode_snp_seconds, t.fold_seconds,
                   scalar_sparse / t.sparse_snp_seconds,
                   dense_snp_seconds / t.sparse_snp_seconds);
      for (std::size_t k = 0; k < num_dims; ++k) {
        std::fprintf(out,
                     "%s\"d%zu\":{\"gram_seconds\":%.9f,"
                     "\"eigen_seconds\":%.9f}",
                     k == 0 ? "" : ",", kScreenDims[k],
                     screen[i][k].gram_seconds, screen[i][k].eigen_seconds);
      }
      std::fprintf(out, "}}");
    }
    std::fprintf(out,
                 "},\"pack\":{\"unpacked_bytes\":%llu,\"packed_bytes\":%llu,"
                 "\"ratio\":%.4f,\"pack_seconds\":%.6f,\"unpack_seconds\":%.6f,"
                 "\"nonzero_seconds\":%.6f}}\n",
                 static_cast<unsigned long long>(unpacked_bytes),
                 static_cast<unsigned long long>(packed_bytes),
                 static_cast<double>(unpacked_bytes) /
                     static_cast<double>(packed_bytes),
                 pack_seconds, unpack_seconds, nonzero_seconds);
    std::fclose(out);
    std::printf("datapoint written to %s\n", out_path.c_str());
  }

  return bitwise_ok && sparse_bitwise_ok ? 0 : 1;
}

}  // namespace
}  // namespace ss::bench

int main(int argc, char** argv) {
  return ss::core::RunStudyTool(
      argc, argv, /*begin=*/1,
      {.keys = {"patients", "count", "iters", "snps", "seed", "datapoint",
                "loglevel"}},
      ss::LogLevel::kWarn, ss::bench::Run);
}
