// Result reporting: table formatting and the DFS round trip.
#include "core/report.hpp"

#include <gtest/gtest.h>

namespace ss::core {
namespace {

ResamplingResult SampleResult() {
  ResamplingResult result;
  result.replicates = 99;
  result.observed = {{0, 10.5}, {1, 3.25}, {2, 77.0}};
  result.exceed = {{0, 4}, {1, 50}, {2, 0}};
  return result;
}

TEST(ReportTest, TopHitsOrderedByPValue) {
  const std::string table = FormatTopHits(SampleResult(), 3);
  // Set 2 (0 exceedances) must be rank 1.
  const std::size_t pos2 = table.find("| 1    | 2  ");
  const std::size_t pos0 = table.find("| 2    | 0  ");
  EXPECT_NE(pos2, std::string::npos) << table;
  EXPECT_NE(pos0, std::string::npos) << table;
  EXPECT_LT(pos2, pos0);
}

TEST(ReportTest, TopHitsCountAdaptiveSetsOverReplicatesUsed) {
  // A hybrid run with B=500: set 0 was screened out (no replicates), set
  // 1 stopped early after 40, set 2 was refined through all 500.
  ResamplingResult result;
  result.replicates = 500;
  result.early_stop_h = 9;
  result.observed = {{0, 1.5}, {1, 20.0}, {2, 80.0}};
  result.exceed = {{0, 0}, {1, 9}, {2, 3}};
  result.inference[0] = {.analytic_p = 0.91, .replicates_used = 0};
  result.inference[1] = {.analytic_p = 0.05, .replicates_used = 40,
                         .early_stopped = true, .refined = true};
  result.inference[2] = {.analytic_p = 0.004, .replicates_used = 500,
                         .refined = true};
  const std::string table = FormatTopHits(result, 3);
  EXPECT_NE(table.find(" 0/0 "), std::string::npos) << table;
  EXPECT_NE(table.find(" 9/40 "), std::string::npos) << table;
  EXPECT_NE(table.find(" 3/500 "), std::string::npos) << table;
  EXPECT_EQ(table.find(" 0/500 "), std::string::npos) << table;
  EXPECT_EQ(table.find(" 9/500 "), std::string::npos) << table;
}

TEST(ReportTest, SummaryNamesBestSet) {
  const std::string summary = SummarizeResult(SampleResult());
  EXPECT_NE(summary.find("best set 2"), std::string::npos);
  EXPECT_NE(summary.find("B=99"), std::string::npos);
}

TEST(ReportDfsTest, RoundTrip) {
  dfs::MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 16});
  const ResamplingResult original = SampleResult();
  ASSERT_TRUE(WriteResultToDfs(original, dfs, "/results.txt").ok());

  auto restored = ReadResultFromDfs(dfs, "/results.txt");
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().replicates, 99u);
  ASSERT_EQ(restored.value().observed.size(), 3u);
  for (const auto& [set_id, score] : original.observed) {
    EXPECT_DOUBLE_EQ(restored.value().observed.at(set_id), score);
    EXPECT_EQ(restored.value().exceed.at(set_id), original.exceed.at(set_id));
    EXPECT_DOUBLE_EQ(restored.value().PValue(set_id), original.PValue(set_id));
  }
}

TEST(ReportDfsTest, FileIsSortedByPValueWithHeader) {
  dfs::MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 16});
  ASSERT_TRUE(WriteResultToDfs(SampleResult(), dfs, "/r.txt").ok());
  const auto lines = dfs.ReadTextFile("/r.txt").value();
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].front(), '#');
  EXPECT_EQ(lines[1].front(), '2');  // smallest p-value first
}

TEST(ReportDfsTest, ReadRejectsMalformed) {
  dfs::MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 16});
  ASSERT_TRUE(dfs.WriteTextFile("/bad.txt", {"1 2 3"}).ok());
  EXPECT_FALSE(ReadResultFromDfs(dfs, "/bad.txt").ok());
  EXPECT_FALSE(ReadResultFromDfs(dfs, "/missing.txt").ok());
}

TEST(ReportDfsTest, DuplicateWriteFails) {
  dfs::MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 16});
  ASSERT_TRUE(WriteResultToDfs(SampleResult(), dfs, "/r.txt").ok());
  EXPECT_FALSE(WriteResultToDfs(SampleResult(), dfs, "/r.txt").ok());
}

}  // namespace
}  // namespace ss::core
