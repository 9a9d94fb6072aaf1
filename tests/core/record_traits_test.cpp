// Pins the ApproxBytes estimates for the genotype record types, so
// cache-budget accounting can't silently drift: SnpRecord must charge
// vector capacity (not size), and the packed representation must come out
// ~4x smaller for the same SNP.
#include "core/record_traits.hpp"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace ss::engine {
namespace {

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

}  // namespace
}  // namespace ss::engine
