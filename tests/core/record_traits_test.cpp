// Pins the ApproxBytes estimates and spill codecs for the genotype record
// types, so cache-budget accounting can't silently drift: SnpRecord must
// charge vector capacity (not size), and the packed representation must
// come out ~4x smaller for the same SNP.
#include "core/record_traits.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace ss::engine {
namespace {

static_assert(kSpillable<ss::simdata::SnpRecord>,
              "genotype partitions must be eligible for the spill tier");
static_assert(kSpillable<ss::stats::PackedSnpRecord>,
              "packed genotype partitions must be eligible for the spill tier");

TEST(RecordTraitsTest, SnpRecordApproxBytesChargesCapacityNotSize) {
  ss::simdata::SnpRecord record;
  record.snp = 7;
  record.genotypes.reserve(100);
  record.genotypes.resize(10, 1);
  ASSERT_GE(record.genotypes.capacity(), 100u);
  EXPECT_EQ(ApproxBytesOf(record),
            sizeof(record.snp) + sizeof(record.genotypes) +
                record.genotypes.capacity());
}

TEST(RecordTraitsTest, PackedRecordEstimateIsRoughlyFourTimesSmaller) {
  const std::size_t n = 1024;
  ss::simdata::SnpRecord record;
  record.snp = 3;
  record.genotypes.assign(n, 2);
  record.genotypes.shrink_to_fit();
  ss::stats::PackedSnpRecord packed{
      record.snp, ss::stats::PackedGenotypeBlock::Pack(record.genotypes)};

  const std::size_t unpacked_bytes = ApproxBytesOf(record);
  const std::size_t packed_bytes = ApproxBytesOf(packed);
  // Payloads are exactly 4x apart; the fixed struct overhead dilutes the
  // total ratio slightly, so assert a conservative 3x.
  EXPECT_EQ(packed.genotypes.payload().size(), n / 4);
  EXPECT_LT(packed_bytes * 3, unpacked_bytes);
}

TEST(RecordTraitsTest, PackedSnpRecordCodecRoundTripsThroughPartition) {
  ss::Rng rng(4411);
  std::vector<ss::stats::PackedSnpRecord> records;
  for (std::uint32_t snp = 0; snp < 16; ++snp) {
    std::vector<std::uint8_t> dosages(1 + rng.NextBounded(60));
    for (auto& d : dosages) d = static_cast<std::uint8_t>(rng.NextBounded(3));
    if (snp == 5) dosages.push_back(99);  // forces the raw-byte fallback
    records.push_back(
        {snp, ss::stats::PackedGenotypeBlock::Pack(dosages)});
  }
  const std::vector<std::uint8_t> bytes = EncodePartition(records);
  const std::vector<ss::stats::PackedSnpRecord> decoded =
      DecodePartition<ss::stats::PackedSnpRecord>(bytes);
  ASSERT_EQ(decoded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(decoded[i].snp, records[i].snp);
    EXPECT_EQ(decoded[i].genotypes, records[i].genotypes) << "snp " << i;
  }
}

TEST(RecordTraitsTest, SnpRecordCodecRoundTrip) {
  const ss::simdata::SnpRecord record{42, {0, 1, 2, 1, 0, 2}};
  BinaryWriter writer;
  Codec<ss::simdata::SnpRecord>::Encode(writer, record);
  BinaryReader reader(writer.bytes());
  EXPECT_EQ(Codec<ss::simdata::SnpRecord>::Decode(reader), record);
}

}  // namespace
}  // namespace ss::engine
