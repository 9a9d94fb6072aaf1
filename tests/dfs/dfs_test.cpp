#include "dfs/dfs.hpp"

#include <gtest/gtest.h>

namespace ss::dfs {
namespace {

std::vector<std::string> Lines(int n) {
  std::vector<std::string> lines;
  lines.reserve(n);
  for (int i = 0; i < n; ++i) lines.push_back("line-" + std::to_string(i));
  return lines;
}

TEST(MiniDfsTest, WriteReadRoundTrip) {
  MiniDfs dfs({.num_nodes = 3, .replication = 2, .block_lines = 10});
  const auto lines = Lines(25);
  ASSERT_TRUE(dfs.WriteTextFile("/f", lines).ok());
  auto got = dfs.ReadTextFile("/f");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), lines);
}

TEST(MiniDfsTest, BlockCountMatchesBlockLines) {
  MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 10});
  ASSERT_TRUE(dfs.WriteTextFile("/f", Lines(25)).ok());
  EXPECT_EQ(dfs.BlockCount("/f").value(), 3u);  // 10 + 10 + 5
}

TEST(MiniDfsTest, ExactBlockBoundary) {
  MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 10});
  ASSERT_TRUE(dfs.WriteTextFile("/f", Lines(20)).ok());
  EXPECT_EQ(dfs.BlockCount("/f").value(), 2u);
  EXPECT_EQ(dfs.ReadTextFile("/f").value().size(), 20u);
}

TEST(MiniDfsTest, EmptyFileHasOneEmptyBlock) {
  MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 10});
  ASSERT_TRUE(dfs.WriteTextFile("/empty", {}).ok());
  EXPECT_EQ(dfs.BlockCount("/empty").value(), 1u);
  EXPECT_TRUE(dfs.ReadTextFile("/empty").value().empty());
}

TEST(MiniDfsTest, DuplicateWriteFails) {
  MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 4});
  ASSERT_TRUE(dfs.WriteTextFile("/f", Lines(2)).ok());
  EXPECT_EQ(dfs.WriteTextFile("/f", Lines(2)).code(),
            StatusCode::kAlreadyExists);
}

TEST(MiniDfsTest, ReadMissingFileIsNotFound) {
  MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 4});
  EXPECT_EQ(dfs.ReadTextFile("/nope").status().code(), StatusCode::kNotFound);
}

TEST(MiniDfsTest, ReadBlockLines) {
  MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 3});
  ASSERT_TRUE(dfs.WriteTextFile("/f", Lines(7)).ok());
  auto block1 = dfs.ReadBlockLines("/f", 1);
  ASSERT_TRUE(block1.ok());
  EXPECT_EQ(block1.value(),
            (std::vector<std::string>{"line-3", "line-4", "line-5"}));
  EXPECT_EQ(dfs.ReadBlockLines("/f", 9).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MiniDfsTest, SurvivesNodeLossWithReplication) {
  MiniDfs dfs({.num_nodes = 3, .replication = 2, .block_lines = 5});
  const auto lines = Lines(30);
  ASSERT_TRUE(dfs.WriteTextFile("/f", lines).ok());
  dfs.KillNode(0);
  auto got = dfs.ReadTextFile("/f");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), lines);
}

TEST(MiniDfsTest, DataLossWhenAllReplicasGone) {
  MiniDfs dfs({.num_nodes = 2, .replication = 2, .block_lines = 5});
  ASSERT_TRUE(dfs.WriteTextFile("/f", Lines(10)).ok());
  dfs.KillNode(0);
  dfs.KillNode(1);
  EXPECT_EQ(dfs.ReadTextFile("/f").status().code(), StatusCode::kDataLoss);
}

TEST(MiniDfsTest, ChecksumFailureFailsOverToReplica) {
  MiniDfs dfs({.num_nodes = 2, .replication = 2, .block_lines = 5});
  const auto lines = Lines(5);
  ASSERT_TRUE(dfs.WriteTextFile("/f", lines).ok());
  // Corrupt the primary replica; the read must silently use the second.
  const auto meta = dfs.name_node().Lookup("/f").value();
  ASSERT_TRUE(dfs.CorruptReplica("/f", 0, meta.blocks[0].replica_nodes[0]).ok());
  auto got = dfs.ReadTextFile("/f");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), lines);
}

TEST(MiniDfsTest, AllReplicasCorruptIsDataLoss) {
  MiniDfs dfs({.num_nodes = 2, .replication = 2, .block_lines = 5});
  ASSERT_TRUE(dfs.WriteTextFile("/f", Lines(5)).ok());
  const auto meta = dfs.name_node().Lookup("/f").value();
  for (int node : meta.blocks[0].replica_nodes) {
    ASSERT_TRUE(dfs.CorruptReplica("/f", 0, node).ok());
  }
  EXPECT_EQ(dfs.ReadTextFile("/f").status().code(), StatusCode::kDataLoss);
}

TEST(MiniDfsTest, RepairReplicationRestoresRedundancy) {
  MiniDfs dfs({.num_nodes = 3, .replication = 2, .block_lines = 5});
  const auto lines = Lines(10);
  ASSERT_TRUE(dfs.WriteTextFile("/f", lines).ok());
  dfs.KillNode(0);
  const int repaired = dfs.RepairReplication();
  EXPECT_GT(repaired, 0);
  // Now even losing another original holder keeps the data readable.
  dfs.KillNode(1);
  auto got = dfs.ReadTextFile("/f");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), lines);
}

TEST(MiniDfsTest, ReviveAllowsNewWritesToNode) {
  MiniDfs dfs({.num_nodes = 2, .replication = 2, .block_lines = 5});
  dfs.KillNode(0);
  ASSERT_TRUE(dfs.WriteTextFile("/a", Lines(3)).ok());  // single live node
  dfs.ReviveNode(0);
  ASSERT_TRUE(dfs.WriteTextFile("/b", Lines(3)).ok());
  EXPECT_TRUE(dfs.ReadTextFile("/b").ok());
}

TEST(MiniDfsTest, WriteFailsWithNoLiveNodes) {
  MiniDfs dfs({.num_nodes = 1, .replication = 1, .block_lines = 5});
  dfs.KillNode(0);
  EXPECT_EQ(dfs.WriteTextFile("/f", Lines(1)).code(),
            StatusCode::kResourceExhausted);
}

TEST(MiniDfsTest, TotalBytesReflectReplication) {
  MiniDfs dfs1({.num_nodes = 4, .replication = 1, .block_lines = 100});
  MiniDfs dfs2({.num_nodes = 4, .replication = 2, .block_lines = 100});
  ASSERT_TRUE(dfs1.WriteTextFile("/f", Lines(50)).ok());
  ASSERT_TRUE(dfs2.WriteTextFile("/f", Lines(50)).ok());
  EXPECT_EQ(dfs2.TotalBytesStored(), 2 * dfs1.TotalBytesStored());
}

TEST(MiniDfsTest, TruncatedBlockIsDataLoss) {
  // The decoder reads untrusted bytes: every proper prefix of a block
  // (cut in the magic, the line count, a length or a line) is DataLoss,
  // never an abort, and so are trailing bytes.
  const std::vector<std::uint8_t> bytes =
      MiniDfs::EncodeBlock({"alpha", "", "gamma delta"});
  ASSERT_EQ(MiniDfs::DecodeBlock(bytes).value(),
            (std::vector<std::string>{"alpha", "", "gamma delta"}));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
    auto decoded = MiniDfs::DecodeBlock(prefix);
    ASSERT_FALSE(decoded.ok()) << "cut " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << "cut " << cut;
  }
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_EQ(MiniDfs::DecodeBlock(padded).status().code(),
            StatusCode::kDataLoss);
}

/// Property sweep: round trip across block sizes and line counts.
class DfsRoundTripSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DfsRoundTripSweep, RoundTrips) {
  const auto [block_lines, num_lines] = GetParam();
  MiniDfs dfs({.num_nodes = 3,
               .replication = 2,
               .block_lines = static_cast<std::uint32_t>(block_lines)});
  const auto lines = Lines(num_lines);
  ASSERT_TRUE(dfs.WriteTextFile("/f", lines).ok());
  EXPECT_EQ(dfs.ReadTextFile("/f").value(), lines);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DfsRoundTripSweep,
    ::testing::Combine(::testing::Values(1, 2, 7, 64),
                       ::testing::Values(0, 1, 13, 100)));

}  // namespace
}  // namespace ss::dfs
