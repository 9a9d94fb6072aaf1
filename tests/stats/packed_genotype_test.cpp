// Unit tests for the 2-bit packed genotype block: lossless roundtrip,
// the decode from packed bytes to a row list, and the payload-size
// contract the cache byte accounting relies on.
#include "stats/kernels/packed_genotype.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace ss::stats {
namespace {

std::vector<std::uint8_t> RandomDosages(Rng& rng, std::size_t n,
                                        std::uint32_t bound) {
  std::vector<std::uint8_t> dosages(n);
  for (auto& d : dosages) d = static_cast<std::uint8_t>(rng.NextBounded(bound));
  return dosages;
}

TEST(PackedGenotypeTest, RoundTripsSmallDosagesPacked) {
  Rng rng(77001);
  for (std::size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 63u, 64u, 70u}) {
    const std::vector<std::uint8_t> dosages = RandomDosages(rng, n, 4);
    const PackedGenotypeBlock block = PackedGenotypeBlock::Pack(dosages);
    EXPECT_EQ(block.size(), n);
    EXPECT_EQ(block.payload().size(), (n + 3) / 4) << "n=" << n;
    EXPECT_EQ(block.Unpack(), dosages) << "n=" << n;
  }
}

TEST(PackedGenotypeTest, PackRefusesDosageAboveThree) {
  // Two bits are the only encoding: a dosage with no 2-bit code is a
  // broken precondition, not a second format.
  EXPECT_DEATH(PackedGenotypeBlock::Pack({0, 1, 4, 2}), "seen <= 3");
}

TEST(PackedGenotypeTest, UnpackIntoReusesBuffer) {
  const std::vector<std::uint8_t> dosages = {2, 0, 1, 3, 3, 1, 0};
  const PackedGenotypeBlock block = PackedGenotypeBlock::Pack(dosages);
  std::vector<std::uint8_t> out(128, 0xff);
  block.UnpackInto(&out);
  EXPECT_EQ(out, dosages);
}

/// The row list DosageRowsInto must produce over a table of `count`
/// columns, from the byte unpack: patient i with dosage d ≠ 0 → row
/// (d − 1)·n + i, in ascending patient order.
void ExpectRowsMatchUnpack(const PackedGenotypeBlock& block,
                           std::size_t count,
                           std::vector<const double*>* rows) {
  const std::vector<std::uint8_t> dosages = block.Unpack();
  const std::size_t n = dosages.size();
  const std::vector<double> table(3 * n * count);
  std::vector<const double*> want;
  for (std::size_t i = 0; i < n; ++i) {
    if (dosages[i] == 0) continue;
    want.push_back(table.data() + ((dosages[i] - 1) * n + i) * count);
  }
  const std::size_t nnz =
      block.DosageRowsInto(DosageRowOffsets(n, count), table.data(), rows);
  ASSERT_EQ(nnz, want.size());
  EXPECT_EQ(std::vector<const double*>(rows->begin(), rows->begin() + nnz),
            want);
}

TEST(PackedGenotypeTest, DosageRowsMatchUnpack) {
  Rng rng(77004);
  // One row list across every call: a large block first, then smaller
  // ones, so stale entries from earlier calls are present.
  std::vector<const double*> rows;
  std::vector<std::size_t> sizes = {1000};
  for (std::size_t n = 0; n <= 9; ++n) sizes.push_back(n);
  for (std::size_t n : sizes) {
    for (std::size_t count : {1u, 5u}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " count=" + std::to_string(count));
      // Random 0..3, all zero, all non-zero.
      const PackedGenotypeBlock packed =
          PackedGenotypeBlock::Pack(RandomDosages(rng, n, 4));
      ExpectRowsMatchUnpack(packed, count, &rows);
      if (n % 4 != 0) {
        // Crumbs past size() never name a patient, even when a payload
        // that did not come from Pack leaves them set.
        std::vector<std::uint8_t> payload = packed.payload();
        payload.back() = static_cast<std::uint8_t>(
            payload.back() | (0xff << (2 * (n % 4))));
        ExpectRowsMatchUnpack(
            PackedGenotypeBlock::FromPayload(static_cast<std::uint32_t>(n),
                                             payload),
            count, &rows);
      }
      ExpectRowsMatchUnpack(
          PackedGenotypeBlock::Pack(std::vector<std::uint8_t>(n, 0)), count,
          &rows);
      ExpectRowsMatchUnpack(
          PackedGenotypeBlock::Pack(std::vector<std::uint8_t>(n, 3)), count,
          &rows);
    }
  }
}

TEST(PackedGenotypeTest, FromPayloadReconstructsEqualBlock) {
  const std::vector<std::uint8_t> dosages = {1, 2, 0, 3, 2, 2, 1, 0, 3};
  const PackedGenotypeBlock block = PackedGenotypeBlock::Pack(dosages);
  const PackedGenotypeBlock rebuilt = PackedGenotypeBlock::FromPayload(
      static_cast<std::uint32_t>(block.size()), block.payload());
  EXPECT_EQ(rebuilt, block);
  EXPECT_EQ(rebuilt.Unpack(), dosages);
}

TEST(PackedGenotypeTest, PackedPayloadIsQuarterOfUnpacked) {
  Rng rng(77003);
  const std::size_t n = 1000;
  const std::vector<std::uint8_t> dosages = RandomDosages(rng, n, 3);
  const PackedGenotypeBlock block = PackedGenotypeBlock::Pack(dosages);
  EXPECT_EQ(block.payload().size(), 250u);
}

}  // namespace
}  // namespace ss::stats
