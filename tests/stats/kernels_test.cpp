// Differential battery for the runtime-dispatched SIMD kernels: every
// dispatch level this CPU can execute must produce output bitwise equal
// to the scalar reference kernel, on random inputs across awkward sizes
// (vector-width multiples, remainders, tiny cases). The sparse kernel is
// also held bitwise to the dense scalar MAC it replaces, and the screen's
// Gram tiles to the plain one-dot loop.
#include "stats/kernels/kernels.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stats/cox_score.hpp"
#include "stats/kernels/packed_genotype.hpp"
#include "stats/linalg.hpp"
#include "stats/resampling.hpp"
#include "stats/survival.hpp"
#include "support/rng.hpp"

namespace ss::stats {
namespace {

using kernels::DispatchLevel;

std::uint64_t Bits(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Forces a dispatch level for one test, restoring the previous level on
/// scope exit (the level is process-global).
class ScopedDispatchLevel {
 public:
  explicit ScopedDispatchLevel(DispatchLevel level)
      : saved_(kernels::ActiveDispatchLevel()) {
    kernels::SetDispatchLevel(level);
  }
  ~ScopedDispatchLevel() { kernels::SetDispatchLevel(saved_); }

 private:
  DispatchLevel saved_;
};

std::vector<double> RandomDoubles(Rng& rng, std::size_t count) {
  std::vector<double> values(count);
  for (double& v : values) v = rng.NextDouble() * 8.0 - 4.0;
  return values;
}

TEST(KernelDispatchTest, ParseAndNameRoundTrip) {
  for (const char* name : {"scalar", "avx2"}) {
    Result<DispatchLevel> level = kernels::ParseDispatchLevel(name);
    ASSERT_TRUE(level.ok()) << name;
    EXPECT_STREQ(kernels::DispatchLevelName(level.value()), name);
  }
  // The retired SSE2 tier's name fails closed like any unknown level.
  for (const char* name : {"sse2", "avx512", ""}) {
    Result<DispatchLevel> level = kernels::ParseDispatchLevel(name);
    EXPECT_EQ(level.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(KernelDispatchTest, ExecutableLevelsStartAtScalarAndEndAtBest) {
  const std::vector<DispatchLevel> levels = kernels::ExecutableLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), DispatchLevel::kScalar);
  EXPECT_EQ(levels.back(), kernels::BestSupportedLevel());
}

TEST(KernelDispatchTest, SetClampsToSupportedAndSticks) {
  const DispatchLevel saved = kernels::ActiveDispatchLevel();
  const DispatchLevel installed =
      kernels::SetDispatchLevel(DispatchLevel::kAvx2);
  EXPECT_LE(static_cast<int>(installed),
            static_cast<int>(kernels::BestSupportedLevel()));
  EXPECT_EQ(kernels::ActiveDispatchLevel(), installed);
  EXPECT_EQ(kernels::SetDispatchLevel(DispatchLevel::kScalar),
            DispatchLevel::kScalar);
  EXPECT_EQ(kernels::ActiveDispatchLevel(), DispatchLevel::kScalar);
  kernels::SetDispatchLevel(saved);
}

TEST(KernelDispatchTest, ActiveLevelDefaultsToSupported) {
  EXPECT_LE(static_cast<int>(kernels::ActiveDispatchLevel()),
            static_cast<int>(kernels::BestSupportedLevel()));
}

/// The z values the sparse kernel must carry through untouched: signed
/// zeros, subnormals, huge magnitudes and ordinary values.
std::vector<double> AwkwardDoubles(Rng& rng, std::size_t count) {
  const double specials[] = {0.0,     -0.0,    4.9e-324, -4.9e-324,
                             2.2e-308, 1e300,  -1e300,   1.0 / 3.0};
  std::vector<double> values = RandomDoubles(rng, count);
  for (double& v : values) {
    if (rng.NextBounded(3) == 0) v = specials[rng.NextBounded(8)];
  }
  return values;
}

TEST(KernelDifferentialTest, SparseMacBitwiseEqualsBatchedMac) {
  // The pipeline's per-SNP path — packed bytes to row list
  // (PackedGenotypeBlock::DosageRowsInto over the pass's
  // DosageRowOffsets) to row_sum over the pre-scaled [V; 2V; 3V] table —
  // must reproduce, byte for byte, the dense scalar MAC
  // (BatchedReplicateScores) over the same dosages widened to doubles, at
  // every level. The patient counts cover every size() % 4 tail, and the
  // counts sit on every edge of the AVX2 64/32/16/8/4-lane blocks and the
  // scalar tail.
  Rng rng(20160806);
  // One row list and one table buffer across every case, as a partition
  // and a pass reuse them.
  std::vector<const double*> rows;
  std::vector<double> table;
  for (std::size_t n : {0u, 1u, 3u, 5u, 7u, 13u, 66u, 101u}) {
    for (std::size_t count : {1u, 3u, 4u, 7u, 8u, 9u, 15u, 16u, 17u, 31u,
                              32u, 33u, 63u, 64u, 65u, 128u, 129u}) {
      const DosageRowOffsets offsets(n, count);
      for (int fill = 0; fill < 3; ++fill) {
        // fill 0: all zero (nnz = 0); 1: none zero (nnz = n); 2: dosages
        // 0..3.
        std::vector<std::uint8_t> g(n);
        for (std::uint8_t& d : g) {
          d = fill == 0   ? 0
              : fill == 1 ? static_cast<std::uint8_t>(1 + rng.NextBounded(3))
                          : static_cast<std::uint8_t>(rng.NextBounded(4));
        }
        const std::vector<double> widened(g.begin(), g.end());
        const std::size_t want_nnz =
            n - static_cast<std::size_t>(std::count(g.begin(), g.end(), 0));
        const std::vector<double> vblock = AwkwardDoubles(rng, n * count);
        kernels::DosageScaledTable(vblock, &table);
        ASSERT_EQ(table.size(), 3 * vblock.size());
        ASSERT_TRUE(std::equal(
            vblock.begin(), vblock.end(), table.begin(),
            [](double a, double b) { return Bits(a) == Bits(b); }));
        std::vector<double> reference(count);
        BatchedReplicateScores(widened, vblock.data(), count,
                               reference.data());
        // The packed block, and the same dosages from a payload whose last
        // byte sets every crumb past size(): those crumbs must be masked.
        std::vector<PackedGenotypeBlock> blocks = {
            PackedGenotypeBlock::Pack(g)};
        if (n % 4 != 0) {
          std::vector<std::uint8_t> payload = blocks.front().payload();
          payload.back() = static_cast<std::uint8_t>(
              payload.back() | (0xff << (2 * (n % 4))));
          blocks.push_back(PackedGenotypeBlock::FromPayload(
              static_cast<std::uint32_t>(n), std::move(payload)));
        }
        for (std::size_t b = 0; b < blocks.size(); ++b) {
          for (DispatchLevel level : kernels::ExecutableLevels()) {
            const std::size_t nnz =
                blocks[b].DosageRowsInto(offsets, table.data(), &rows);
            ASSERT_EQ(nnz, want_nnz) << "n=" << n << " block=" << b;
            std::vector<double> sparse(count, -1.0);
            kernels::KernelsFor(level).row_sum(rows.data(), nnz, count,
                                               sparse.data());
            ASSERT_EQ(std::memcmp(sparse.data(), reference.data(),
                                  count * sizeof(double)),
                      0)
                << "level=" << kernels::DispatchLevelName(level) << " n=" << n
                << " count=" << count << " fill=" << fill << " block=" << b;
            if (nnz == 0) {
              for (double value : sparse) ASSERT_EQ(Bits(value), Bits(0.0));
            }
          }
        }
      }
    }
  }
}

TEST(KernelDifferentialTest, SkatFoldsBitwiseEqualAcrossLevels) {
  const kernels::KernelTable& scalar =
      kernels::KernelsFor(DispatchLevel::kScalar);
  Rng rng(20160803);
  for (std::size_t count : {1u, 2u, 3u, 4u, 5u, 8u, 15u, 16u, 17u, 64u}) {
    const std::vector<double> scores = RandomDoubles(rng, count);
    const std::vector<double> seed_acc = RandomDoubles(rng, count);
    const double w = 0.25 + rng.NextDouble();
    std::vector<double> expected = seed_acc;
    scalar.skat_fold(scores.data(), count, w * w, expected.data());
    for (DispatchLevel level : kernels::ExecutableLevels()) {
      std::vector<double> acc = seed_acc;
      kernels::KernelsFor(level).skat_fold(scores.data(), count, w * w,
                                           acc.data());
      for (std::size_t r = 0; r < count; ++r) {
        ASSERT_EQ(Bits(acc[r]), Bits(expected[r]))
            << "level=" << kernels::DispatchLevelName(level) << " r=" << r;
      }
    }
  }
}

/// The set sizes the screen kernels are checked at: every d % 4 tail
/// around one, two and four tiles, and the determinism cohort's 220.
constexpr std::size_t kScreenDims[] = {1,  2,  3,  4,  5,  6,  7,  8, 9,
                                       15, 16, 17, 64, 65, 220};

/// Walks a set's tiles as the set-gram stage does — tiles (s, t ≥ s) of
/// the d rows of `u`, slots past d repeating the last row — and checks
/// every tile against the plain one-chain dot from +0 and, at every
/// level, against the scalar entry, with memcmp.
void ExpectGramTilesMatch(const std::vector<std::vector<double>>& u,
                          std::size_t n, const std::string& label) {
  const std::size_t d = u.size();
  const kernels::KernelTable& scalar =
      kernels::KernelsFor(DispatchLevel::kScalar);
  const auto tile_rows = [&u, d](std::size_t first, const double** rows) {
    for (std::size_t s = 0; s < 4; ++s) {
      rows[s] = u[std::min(first + s, d - 1)].data();
    }
  };
  for (std::size_t a_first = 0; a_first < d; a_first += 4) {
    for (std::size_t b_first = a_first; b_first < d; b_first += 4) {
      SCOPED_TRACE(label + " tile (" + std::to_string(a_first) + ", " +
                   std::to_string(b_first) + ")");
      const double* a_rows[4];
      const double* b_rows[4];
      tile_rows(a_first, a_rows);
      tile_rows(b_first, b_rows);
      double expected[16];
      for (std::size_t s = 0; s < 4; ++s) {
        for (std::size_t t = 0; t < 4; ++t) {
          double dot = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            dot += a_rows[s][i] * b_rows[t][i];
          }
          expected[4 * s + t] = dot;
        }
      }
      double reference[16];
      scalar.gram_tile(a_rows, b_rows, n, reference);
      ASSERT_EQ(std::memcmp(reference, expected, sizeof(expected)), 0);
      for (DispatchLevel level : kernels::ExecutableLevels()) {
        double out[16];
        std::fill(out, out + 16, -1.0);
        kernels::KernelsFor(level).gram_tile(a_rows, b_rows, n, out);
        ASSERT_EQ(std::memcmp(out, reference, sizeof(reference)), 0)
            << "level=" << kernels::DispatchLevelName(level);
      }
    }
  }
}

TEST(KernelDifferentialTest, GramTilesBitwiseEqualScalarAndSerialDots) {
  // Ordinary values, and signed zeros, subnormals and huge values (whose
  // inf and NaN sums would hide a reordered add on their own). The n
  // cover every n % 4 tail, with and without a vector part before it.
  Rng rng(20160807);
  for (std::size_t n :
       {0u, 1u, 3u, 4u, 5u, 6u, 7u, 120u, 121u, 122u, 123u, 1001u}) {
    for (std::size_t d : kScreenDims) {
      for (bool awkward : {false, true}) {
        std::vector<std::vector<double>> u(d);
        for (std::vector<double>& row : u) {
          row = awkward ? AwkwardDoubles(rng, n) : RandomDoubles(rng, n);
        }
        ExpectGramTilesMatch(u, n,
                             "n=" + std::to_string(n) + " d=" +
                                 std::to_string(d) +
                                 (awkward ? " awkward" : " plain"));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(KernelDifferentialTest, HouseholderStepsBitwiseEqualScalar) {
  // One step on the leading i×i lower triangle of a matrix with a wider
  // row stride (entries right of the triangle must stay untouched), from
  // ordinary values and from signed zeros, subnormals and huge values:
  // the updated matrix and q match the scalar entry with memcmp at every
  // level.
  Rng rng(20160808);
  const kernels::KernelTable& scalar =
      kernels::KernelsFor(DispatchLevel::kScalar);
  for (std::size_t i : kScreenDims) {
    for (const auto& [stride, awkward] :
         {std::pair{i, false}, std::pair{i + 3, false}, std::pair{i, true},
          std::pair{i + 3, true}}) {
      const auto fill = [&rng, awkward = awkward](std::size_t count) {
        return awkward ? AwkwardDoubles(rng, count) : RandomDoubles(rng, count);
      };
      const std::vector<double> a = fill(i * stride);
      const std::vector<double> u = fill(i);
      const double h = 0.5 + rng.NextDouble();
      std::vector<double> a_ref = a;
      std::vector<double> q_ref(i, -1.0);
      scalar.householder_step(a_ref.data(), stride, i, u.data(), h,
                              q_ref.data());
      for (DispatchLevel level : kernels::ExecutableLevels()) {
        std::vector<double> a_out = a;
        std::vector<double> q_out(i, -2.0);
        kernels::KernelsFor(level).householder_step(a_out.data(), stride, i,
                                                    u.data(), h, q_out.data());
        ASSERT_EQ(std::memcmp(a_out.data(), a_ref.data(),
                              a.size() * sizeof(double)),
                  0)
            << "level=" << kernels::DispatchLevelName(level) << " i=" << i
            << " stride=" << stride << " awkward=" << awkward;
        ASSERT_EQ(std::memcmp(q_out.data(), q_ref.data(), i * sizeof(double)),
                  0)
            << "level=" << kernels::DispatchLevelName(level) << " i=" << i
            << " stride=" << stride << " awkward=" << awkward;
      }
    }
  }
}

TEST(KernelDifferentialTest, EigenvaluesBitwiseEqualAcrossLevels) {
  // The whole tridiagonalization through the routed step: the spectrum of
  // a random Gram (the screen's input) is bitwise the same at every level.
  Rng rng(20160809);
  for (std::size_t d : kScreenDims) {
    const std::size_t n = d + 7;
    const std::vector<double> x = RandomDoubles(rng, d * n);
    Matrix gram(d, d);
    for (std::size_t a = 0; a < d; ++a) {
      for (std::size_t b = 0; b < d; ++b) {
        double dot = 0.0;
        for (std::size_t i = 0; i < n; ++i) dot += x[a * n + i] * x[b * n + i];
        gram.at(a, b) = dot;
      }
    }
    std::vector<double> reference;
    {
      ScopedDispatchLevel guard(DispatchLevel::kScalar);
      reference = SymmetricEigenvalues(gram);
    }
    for (DispatchLevel level : kernels::ExecutableLevels()) {
      ScopedDispatchLevel guard(level);
      const std::vector<double> spectrum = SymmetricEigenvalues(gram);
      ASSERT_EQ(spectrum.size(), reference.size());
      ASSERT_EQ(std::memcmp(spectrum.data(), reference.data(),
                            d * sizeof(double)),
                0)
          << "level=" << kernels::DispatchLevelName(level) << " d=" << d;
    }
  }
}

TEST(KernelDifferentialTest, RoutedBatchedScoresMatchPerReplicateOracle) {
  // The dense MAC's public entry point: each batched score must be
  // bitwise equal to the serial one-replicate MAC.
  Rng rng(20160804);
  const std::size_t n = 61;
  const std::size_t count = 23;
  const std::vector<double> contributions = RandomDoubles(rng, n);
  const std::vector<double> zblock = RandomDoubles(rng, n * count);
  std::vector<double> scores;
  BatchedReplicateScores(contributions, zblock.data(), count, &scores);
  ASSERT_EQ(scores.size(), count);
  for (std::size_t r = 0; r < count; ++r) {
    // Patient-major extraction of replicate r's multipliers.
    std::vector<double> row(n);
    for (std::size_t i = 0; i < n; ++i) row[i] = zblock[i * count + r];
    ASSERT_EQ(Bits(scores[r]),
              Bits(MonteCarloReplicateScore(contributions, row)))
        << "r=" << r;
  }
}

TEST(KernelDifferentialTest, CoxContributionsMatchNaiveUnderEveryLevel) {
  // End-to-end through the real survival API: the O(n) scan must agree
  // with the O(n²) oracle whatever dispatch level is in effect.
  Rng rng(20160805);
  const std::size_t n = 83;
  SurvivalData data;
  std::vector<std::uint8_t> genotypes(n);
  for (std::size_t i = 0; i < n; ++i) {
    data.time.push_back(1.0 + rng.NextDouble() * 9.0);
    data.event.push_back(static_cast<std::uint8_t>(rng.NextBounded(2)));
    genotypes[i] = static_cast<std::uint8_t>(rng.NextBounded(3));
  }
  const RiskSetIndex index(data);
  const std::vector<double> naive = CoxScoreContributionsNaive(data, genotypes);
  for (DispatchLevel level : kernels::ExecutableLevels()) {
    ScopedDispatchLevel guard(level);
    const std::vector<double> fast =
        CoxScoreContributions(data, index, genotypes);
    ASSERT_EQ(fast.size(), naive.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(fast[i], naive[i], 1e-12)
          << "level=" << kernels::DispatchLevelName(level) << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace ss::stats
