// bench_kernels — microbenchmark for the runtime-dispatched SIMD kernels
// (src/stats/kernels): batched Monte Carlo MAC, Cox score scan, SKAT
// folds, the multiply-free sparse genotype MAC, and 2-bit genotype
// pack/unpack, timed at every dispatch level this CPU can execute.
// Cross-level outputs are verified bitwise equal while timing, so the
// speedup numbers are guaranteed to compare identical computations; the
// sparse MAC is also verified bitwise equal to the dense MAC on the
// widened dosages.
//
// The sparse row scores `snps` SNPs with generator-like density (per-SNP
// allele frequency ~ U(0.05, 0.5), binomial dosages; ~46% non-zero)
// against one coefficient block, once densely and once sparsely.
//
// Keys: patients= count= iters= snps= seed= out=<json path>
// `out=` writes a BENCH_kernels.json datapoint consumed by
// tools/check_kernel_speedup.py (the bench_kernels_smoke ctest gate).
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
  double mac_seconds = 0.0;
  double cox_seconds = 0.0;
  double fold_seconds = 0.0;
  // Per SNP, over the generator-like genotypes.
  double dense_snp_seconds = 0.0;
  double sparse_snp_seconds = 0.0;
};

/// One SNP as both MAC inputs: the dosages widened to doubles (dense)
/// and its non-zero runs (sparse).
struct SparseSnp {
  std::vector<double> widened;
  std::vector<std::uint32_t> index;
  std::vector<std::uint8_t> dosage;
  std::size_t nnz = 0;
};

int Run(int argc, char** argv) {
  const Args args(argc, argv);
  ConfigureObservability(args);
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
              "SIMD kernel dispatch (MAC / Cox scan / SKAT folds / 2-bit "
              "genotype packing)",
              scale);

  Rng rng(seed);
  std::vector<double> u(n);
  std::vector<double> zblock(n * count);
  for (double& v : u) v = rng.NextDouble() * 2.0 - 1.0;
  for (double& v : zblock) v = rng.NextDouble() * 2.0 - 1.0;

  std::vector<std::uint8_t> event(n);
  std::vector<std::uint8_t> genotypes(n);
  std::vector<std::uint32_t> prefix_end(n);
  std::vector<double> prefix(n + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    event[i] = static_cast<std::uint8_t>(rng.NextBounded(2));
    genotypes[i] = static_cast<std::uint8_t>(rng.NextBounded(3));
    prefix_end[i] = static_cast<std::uint32_t>(1 + rng.NextBounded(n));
    prefix[i + 1] = prefix[i] + static_cast<double>(genotypes[i]);
  }

  std::vector<SparseSnp> sparse_snps(num_snps);
  std::uint64_t nonzero = 0;
  for (SparseSnp& snp : sparse_snps) {
    const double maf = 0.05 + 0.45 * rng.NextDouble();
    std::vector<std::uint8_t> dosages(n);
    for (auto& d : dosages) {
      d = static_cast<std::uint8_t>(SampleBinomial(rng, 2, maf));
    }
    snp.widened.assign(dosages.begin(), dosages.end());
    snp.nnz = stats::CompactNonZero(dosages, &snp.index, &snp.dosage);
    nonzero += snp.nnz;
  }
  const double density =
      num_snps * n == 0 ? 0.0
                        : static_cast<double>(nonzero) /
                              static_cast<double>(num_snps * n);

  const std::vector<DispatchLevel> levels = stats::kernels::ExecutableLevels();
  std::vector<LevelTiming> timings(levels.size());
  std::vector<std::vector<double>> mac_outs(levels.size(),
                                            std::vector<double>(count));
  std::vector<double> mac_reference;
  std::vector<double> cox_reference;
  std::vector<double> sparse_reference;
  bool bitwise_ok = true;
  bool sparse_bitwise_ok = true;

  // The batched-MAC row feeds the AVX2-vs-scalar speedup gate, so its
  // samples alternate between levels (best of 7 each): host drift during
  // the row then hits both sides of the ratio alike.
  const auto mac_call = [&](std::size_t l) {
    stats::kernels::KernelsFor(levels[l])
        .batched_mac(u.data(), n, zblock.data(), count, mac_outs[l].data());
  };
  for (std::size_t l = 0; l < levels.size(); ++l) {
    mac_call(l);  // warm-up
    timings[l].mac_seconds = std::numeric_limits<double>::infinity();
  }
  for (int sample = 0; sample < 7; ++sample) {
    for (std::size_t l = 0; l < levels.size(); ++l) {
      timings[l].mac_seconds =
          std::min(timings[l].mac_seconds, TimeOnce([&]() {
                     for (int r = 0; r < iters; ++r) mac_call(l);
                   }));
    }
  }

  for (std::size_t l = 0; l < levels.size(); ++l) {
    const stats::kernels::KernelTable& table =
        stats::kernels::KernelsFor(levels[l]);
    LevelTiming& timing = timings[l];
    timing.name = stats::kernels::DispatchLevelName(levels[l]);
    timing.mac_seconds /= iters;
    const std::vector<double>& mac_out = mac_outs[l];

    std::vector<double> cox_out(n);
    table.cox_scan(event.data(), genotypes.data(), prefix.data(),
                   prefix_end.data(), n, cox_out.data());
    timing.cox_seconds = BestOf(5, [&]() {
                           for (int r = 0; r < iters; ++r) {
                             table.cox_scan(event.data(), genotypes.data(),
                                            prefix.data(), prefix_end.data(),
                                            n, cox_out.data());
                           }
                         }) /
                         iters;

    std::vector<double> skat(count, 0.0);
    std::vector<double> burden(count, 0.0);
    timing.fold_seconds =
        BestOf(5, [&]() {
          for (int r = 0; r < iters; ++r) {
            table.skat_burden_fold(mac_out.data(), count, 0.5, 0.25,
                                   skat.data(), burden.data());
          }
        }) /
        iters;

    // One pass over every SNP per sample; the per-SNP outputs of the last
    // pass are kept for the bitwise checks. Dense and sparse samples
    // alternate, so host drift during the row hits both sides alike.
    std::vector<double> dense_out(num_snps * count);
    std::vector<double> sparse_out(num_snps * count);
    const auto dense_pass = [&]() {
      for (std::size_t j = 0; j < num_snps; ++j) {
        table.batched_mac(sparse_snps[j].widened.data(), n, zblock.data(),
                          count, dense_out.data() + j * count);
      }
    };
    // The sparse pass pays for its block's [V; 2V; 3V] table build, as
    // every pipeline score block does, and selects each SNP's rows.
    std::vector<const double*> rows;
    std::vector<double> scaled;
    const auto sparse_pass = [&]() {
      const std::vector<double> scaled_table =
          stats::kernels::DosageScaledTable(zblock);
      for (std::size_t j = 0; j < num_snps; ++j) {
        const SparseSnp& snp = sparse_snps[j];
        stats::kernels::SelectDosageRows(snp.index.data(), snp.dosage.data(),
                                         snp.nnz, scaled_table.data(), n,
                                         count, &rows, &scaled);
        table.row_sum(rows.data(), snp.nnz, count,
                      sparse_out.data() + j * count);
      }
    };
    timing.dense_snp_seconds = TimeOnce(dense_pass);
    timing.sparse_snp_seconds = TimeOnce(sparse_pass);
    for (int sample = 1; sample < 7; ++sample) {
      timing.dense_snp_seconds =
          std::min(timing.dense_snp_seconds, TimeOnce(dense_pass));
      timing.sparse_snp_seconds =
          std::min(timing.sparse_snp_seconds, TimeOnce(sparse_pass));
    }
    if (num_snps > 0) {
      timing.dense_snp_seconds /= static_cast<double>(num_snps);
      timing.sparse_snp_seconds /= static_cast<double>(num_snps);
    }
    if (!BitEqual(sparse_out, dense_out)) {
      sparse_bitwise_ok = false;
      std::fprintf(stderr, "SPARSE/DENSE MISMATCH at level %s\n", timing.name);
    }

    if (l == 0) {
      mac_reference = mac_out;
      cox_reference = cox_out;
      sparse_reference = sparse_out;
    } else {
      if (!BitEqual(mac_out, mac_reference) ||
          !BitEqual(cox_out, cox_reference)) {
        bitwise_ok = false;
        std::fprintf(stderr, "BITWISE MISMATCH at level %s\n", timing.name);
      }
      if (!BitEqual(sparse_out, sparse_reference)) {
        sparse_bitwise_ok = false;
        std::fprintf(stderr, "SPARSE MISMATCH at level %s\n", timing.name);
      }
    }
  }

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
  std::vector<std::uint32_t> run_index;
  std::vector<std::uint8_t> run_dosage;
  if (!blocks.empty()) blocks.front().NonZeroInto(&run_index, &run_dosage);
  const double nonzero_seconds = TimeOnce([&]() {
    for (const auto& block : blocks) {
      allele_sink += block.NonZeroInto(&run_index, &run_dosage);
    }
  });

  Table table("Per-call kernel timings (seconds, lower is better)",
              {"level", "batched MAC", "Cox scan", "SKAT fold", "MAC speedup"});
  const double scalar_mac = timings.front().mac_seconds;
  for (const LevelTiming& t : timings) {
    table.AddRow({t.name, Table::Num(t.mac_seconds, 6),
                  Table::Num(t.cox_seconds, 6), Table::Num(t.fold_seconds, 6),
                  Table::Num(scalar_mac / t.mac_seconds, 2) + "x"});
  }
  table.Print();

  char sparse_title[160];
  std::snprintf(sparse_title, sizeof(sparse_title),
                "Per-SNP genotype MAC, %.1f%% non-zero (seconds, lower is "
                "better)",
                100.0 * density);
  Table sparse_table(sparse_title,
                     {"level", "dense MAC", "sparse MAC", "sparse speedup"});
  for (const LevelTiming& t : timings) {
    sparse_table.AddRow({t.name, Table::Num(t.dense_snp_seconds, 7),
                         Table::Num(t.sparse_snp_seconds, 7),
                         Table::Num(t.dense_snp_seconds /
                                        t.sparse_snp_seconds,
                                    2) +
                             "x"});
  }
  sparse_table.Print();
  std::printf("  genotype packing: %llu -> %llu bytes (%.2fx), pack %.4fs, "
              "unpack %.4fs, non-zero decode %.4fs (allele sink %llu)\n",
              static_cast<unsigned long long>(unpacked_bytes),
              static_cast<unsigned long long>(packed_bytes),
              static_cast<double>(unpacked_bytes) /
                  static_cast<double>(packed_bytes),
              pack_seconds, unpack_seconds, nonzero_seconds,
              static_cast<unsigned long long>(allele_sink));
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

  const std::string out_path = args.GetStr("out", "");
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
                 "\"sparse_density\":%.4f,\"best_level\":\"%s\",\"levels\":{",
                 n, count, iters, num_snps, optimized ? "true" : "false",
                 sanitized ? "true" : "false", bitwise_ok ? "true" : "false",
                 sparse_bitwise_ok ? "true" : "false", density,
                 timings.back().name);
    for (std::size_t i = 0; i < timings.size(); ++i) {
      const LevelTiming& t = timings[i];
      std::fprintf(out,
                   "%s\"%s\":{\"mac_seconds\":%.9f,\"cox_seconds\":%.9f,"
                   "\"fold_seconds\":%.9f,\"mac_speedup\":%.4f,"
                   "\"dense_snp_seconds\":%.9f,\"sparse_snp_seconds\":%.9f,"
                   "\"sparse_speedup\":%.4f}",
                   i == 0 ? "" : ",", t.name, t.mac_seconds, t.cox_seconds,
                   t.fold_seconds, scalar_mac / t.mac_seconds,
                   t.dense_snp_seconds, t.sparse_snp_seconds,
                   t.dense_snp_seconds / t.sparse_snp_seconds);
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

  args.WarnUnknownKeys("bench_kernels");
  return bitwise_ok && sparse_bitwise_ok ? 0 : 1;
}

}  // namespace
}  // namespace ss::bench

int main(int argc, char** argv) { return ss::bench::Run(argc, argv); }
