// Codec round-trips: the byte format cached partitions spill in.
#include "engine/codec.hpp"

#include <gtest/gtest.h>

namespace ss::engine {
namespace {

TEST(CodecTest, PodRoundTrip) {
  BinaryWriter writer;
  Codec<int>::Encode(writer, -42);
  Codec<double>::Encode(writer, 2.75);
  BinaryReader reader(writer.bytes());
  EXPECT_EQ(Codec<int>::Decode(reader), -42);
  EXPECT_DOUBLE_EQ(Codec<double>::Decode(reader), 2.75);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(CodecTest, StringAndPairRoundTrip) {
  BinaryWriter writer;
  Codec<std::pair<std::string, double>>::Encode(writer, {"snp42", 1.5});
  BinaryReader reader(writer.bytes());
  const auto pair = Codec<std::pair<std::string, double>>::Decode(reader);
  EXPECT_EQ(pair.first, "snp42");
  EXPECT_DOUBLE_EQ(pair.second, 1.5);
}

TEST(CodecTest, NestedVectorRoundTrip) {
  using Record = std::pair<std::uint32_t, std::vector<double>>;
  const std::vector<Record> records = {{1, {0.5, -1.5}}, {2, {}}, {3, {9.0}}};
  const auto bytes = EncodePartition(records);
  EXPECT_EQ(DecodePartition<Record>(bytes), records);
}

TEST(CodecTest, EmptyPartition) {
  EXPECT_TRUE(DecodePartition<int>(EncodePartition<int>({})).empty());
}

}  // namespace
}  // namespace ss::engine
