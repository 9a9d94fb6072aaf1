// Unit tests for the 2-bit packed genotype block: lossless roundtrip,
// raw-byte fallback for out-of-range dosages, popcount allele counts, and
// the payload-size contract the cache/spill byte accounting relies on.
#include "stats/kernels/packed_genotype.hpp"

#include <cstdint>
#include <numeric>
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
    EXPECT_TRUE(block.packed()) << "n=" << n;
    EXPECT_EQ(block.size(), n);
    EXPECT_EQ(block.payload().size(), (n + 3) / 4) << "n=" << n;
    EXPECT_EQ(block.Unpack(), dosages) << "n=" << n;
  }
}

TEST(PackedGenotypeTest, FallsBackToRawBytesForLargeDosages) {
  std::vector<std::uint8_t> dosages = {0, 1, 2, 200, 3, 0};
  const PackedGenotypeBlock block = PackedGenotypeBlock::Pack(dosages);
  EXPECT_FALSE(block.packed());
  EXPECT_EQ(block.payload().size(), dosages.size());
  EXPECT_EQ(block.Unpack(), dosages);
}

TEST(PackedGenotypeTest, UnpackIntoReusesBuffer) {
  const std::vector<std::uint8_t> dosages = {2, 0, 1, 3, 3, 1, 0};
  const PackedGenotypeBlock block = PackedGenotypeBlock::Pack(dosages);
  std::vector<std::uint8_t> out(128, 0xff);
  block.UnpackInto(&out);
  EXPECT_EQ(out, dosages);
}

/// The (index, dosage) runs NonZeroInto must produce, from the byte
/// unpack.
void ExpectRunsMatchUnpack(const PackedGenotypeBlock& block,
                           std::vector<std::uint32_t>* index,
                           std::vector<std::uint8_t>* dosage) {
  const std::vector<std::uint8_t> dosages = block.Unpack();
  std::vector<std::uint32_t> want_index;
  std::vector<std::uint8_t> want_dosage;
  for (std::size_t i = 0; i < dosages.size(); ++i) {
    if (dosages[i] == 0) continue;
    want_index.push_back(static_cast<std::uint32_t>(i));
    want_dosage.push_back(dosages[i]);
  }
  const std::size_t nnz = block.NonZeroInto(index, dosage);
  ASSERT_EQ(nnz, want_index.size());
  EXPECT_EQ(std::vector<std::uint32_t>(index->begin(), index->begin() + nnz),
            want_index);
  EXPECT_EQ(std::vector<std::uint8_t>(dosage->begin(), dosage->begin() + nnz),
            want_dosage);
  // The unpacked-vector compaction lists the same runs.
  std::vector<std::uint32_t> raw_index;
  std::vector<std::uint8_t> raw_dosage;
  ASSERT_EQ(CompactNonZero(dosages, &raw_index, &raw_dosage), nnz);
  EXPECT_EQ(std::vector<std::uint32_t>(raw_index.begin(),
                                       raw_index.begin() + nnz),
            want_index);
  EXPECT_EQ(std::vector<std::uint8_t>(raw_dosage.begin(),
                                      raw_dosage.begin() + nnz),
            want_dosage);
}

TEST(PackedGenotypeTest, NonZeroDecodeMatchesUnpack) {
  Rng rng(77004);
  // One pair of buffers across every call: a large block first, then
  // smaller ones, so stale entries from earlier calls are present.
  std::vector<std::uint32_t> index;
  std::vector<std::uint8_t> dosage;
  std::vector<std::size_t> sizes = {1000};
  for (std::size_t n = 0; n <= 9; ++n) sizes.push_back(n);
  for (std::size_t n : sizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // Packed: random 0..3, all zero, all non-zero.
    const PackedGenotypeBlock packed =
        PackedGenotypeBlock::Pack(RandomDosages(rng, n, 4));
    ExpectRunsMatchUnpack(packed, &index, &dosage);
    if (n % 4 != 0) {
      // Crumbs past size() never name a patient, even when a payload
      // that did not come from Pack leaves them set.
      std::vector<std::uint8_t> payload = packed.payload();
      payload.back() = static_cast<std::uint8_t>(
          payload.back() | (0xff << (2 * (n % 4))));
      ExpectRunsMatchUnpack(
          PackedGenotypeBlock::FromPayload(static_cast<std::uint32_t>(n),
                                           true, payload),
          &index, &dosage);
    }
    ExpectRunsMatchUnpack(
        PackedGenotypeBlock::Pack(std::vector<std::uint8_t>(n, 0)), &index,
        &dosage);
    ExpectRunsMatchUnpack(
        PackedGenotypeBlock::Pack(std::vector<std::uint8_t>(n, 3)), &index,
        &dosage);
    // Raw fallback: a dosage above 3 anywhere switches the block.
    std::vector<std::uint8_t> raw = RandomDosages(rng, n, 4);
    if (n > 0) raw[rng.NextBounded(static_cast<std::uint32_t>(n))] = 255;
    const PackedGenotypeBlock raw_block = PackedGenotypeBlock::Pack(raw);
    EXPECT_EQ(raw_block.packed(), n == 0);
    ExpectRunsMatchUnpack(raw_block, &index, &dosage);
  }
}

TEST(PackedGenotypeTest, AlleleCountMatchesDirectSum) {
  Rng rng(77002);
  for (std::size_t n : {0u, 1u, 3u, 4u, 7u, 8u, 31u, 32u, 33u, 129u}) {
    const std::vector<std::uint8_t> dosages = RandomDosages(rng, n, 4);
    const PackedGenotypeBlock block = PackedGenotypeBlock::Pack(dosages);
    const std::uint64_t expected =
        std::accumulate(dosages.begin(), dosages.end(), std::uint64_t{0});
    EXPECT_EQ(block.AlleleCount(), expected) << "n=" << n;
  }
  // Fallback path sums raw bytes.
  const std::vector<std::uint8_t> raw = {200, 1, 0, 5};
  EXPECT_EQ(PackedGenotypeBlock::Pack(raw).AlleleCount(), 206u);
}

TEST(PackedGenotypeTest, FromPayloadReconstructsEqualBlock) {
  const std::vector<std::uint8_t> dosages = {1, 2, 0, 3, 2, 2, 1, 0, 3};
  const PackedGenotypeBlock block = PackedGenotypeBlock::Pack(dosages);
  const PackedGenotypeBlock rebuilt = PackedGenotypeBlock::FromPayload(
      block.size(), block.packed(), block.payload());
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
