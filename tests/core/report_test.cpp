// Result reporting: table formatting and the DFS round trip.
#include "core/report.hpp"

#include <bit>
#include <string>

#include <gtest/gtest.h>

#include "simdata/generator.hpp"

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

TEST(ReportDfsTest, EveryPValueMethodRoundTripsBitwise) {
  // A real run per method x pmethod x early_stop: the re-read result must
  // give every set bitwise the same p-value, however it was produced.
  simdata::GeneratorConfig generator;
  generator.num_patients = 60;
  generator.num_snps = 48;
  generator.num_sets = 6;
  generator.seed = 20160521;
  const simdata::SyntheticDataset dataset = simdata::Generate(generator);
  int screened_out = 0;
  int refined = 0;
  int stopped = 0;
  for (ResamplingMethod method :
       {ResamplingMethod::kMonteCarlo, ResamplingMethod::kPermutation}) {
    for (PValueMethod pmethod :
         {PValueMethod::kResampling, PValueMethod::kAnalytic,
          PValueMethod::kSaddlepoint, PValueMethod::kHybrid}) {
      for (std::uint64_t early_stop : {0u, 5u}) {
        const std::string cell =
            "method=" + std::to_string(static_cast<int>(method)) +
            " pmethod=" + std::to_string(static_cast<int>(pmethod)) +
            " early_stop=" + std::to_string(early_stop);
        SCOPED_TRACE(cell);
        engine::EngineContext::Options options;
        options.physical_threads = 2;
        engine::EngineContext ctx(options);
        SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
        ResamplingRequest request(method, 200);
        request.pvalue_method = pmethod;
        request.refine_threshold = 0.5;
        request.early_stop = early_stop;
        const ResamplingResult written =
            RunResampling(pipeline, request).scores;

        dfs::MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 4});
        ASSERT_TRUE(WriteResultToDfs(written, dfs, "/r.txt").ok());
        auto read = ReadResultFromDfs(dfs, "/r.txt");
        ASSERT_TRUE(read.ok()) << read.status().ToString();
        EXPECT_EQ(read.value().replicates, written.replicates);
        EXPECT_EQ(read.value().early_stop_h, written.early_stop_h);
        ASSERT_EQ(read.value().observed.size(), written.observed.size());
        for (const auto& [set_id, score] : written.observed) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(read.value().PValue(set_id)),
                    std::bit_cast<std::uint64_t>(written.PValue(set_id)))
              << "set " << set_id;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(
                        read.value().observed.at(set_id)),
                    std::bit_cast<std::uint64_t>(score))
              << "set " << set_id;
        }
        for (const auto& [set_id, info] : written.inference) {
          screened_out += info.refined ? 0 : 1;
          refined += info.refined ? 1 : 0;
          stopped += info.early_stopped ? 1 : 0;
        }
      }
    }
  }
  // The grid covers every way a p-value is produced.
  EXPECT_GT(screened_out, 0);
  EXPECT_GT(refined, 0);
  EXPECT_GT(stopped, 0);
}

TEST(ReportDfsTest, SubnormalScreenPValueRoundTrips) {
  // A deep-tail analytic p can be subnormal; it must re-read as itself.
  ResamplingResult result = SampleResult();
  result.inference[2] = {.analytic_p = 4.9406564584124654e-324};
  dfs::MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 16});
  ASSERT_TRUE(WriteResultToDfs(result, dfs, "/r.txt").ok());
  auto read = ReadResultFromDfs(dfs, "/r.txt");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().PValue(2), 4.9406564584124654e-324);
}

TEST(ReportDfsTest, ReadFailsClosedOnAlteredPValue) {
  dfs::MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 16});
  ASSERT_TRUE(WriteResultToDfs(SampleResult(), dfs, "/r.txt").ok());
  std::vector<std::string> lines = dfs.ReadTextFile("/r.txt").value();
  // Set 2: 0 exceedances of B=99 gives p = 0.01; claim 0.5 instead.
  const std::size_t p_at = lines[1].rfind(' ');
  lines[1] = lines[1].substr(0, p_at) + " 0.5";
  ASSERT_TRUE(dfs.WriteTextFile("/altered.txt", lines).ok());
  const auto read = ReadResultFromDfs(dfs, "/altered.txt");
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find("p=0.5"), std::string::npos)
      << read.status().ToString();

  // A file without the versioned header is refused outright.
  lines.erase(lines.begin());
  ASSERT_TRUE(dfs.WriteTextFile("/headerless.txt", lines).ok());
  EXPECT_EQ(ReadResultFromDfs(dfs, "/headerless.txt").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ReportDfsTest, DuplicateWriteFails) {
  dfs::MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 16});
  ASSERT_TRUE(WriteResultToDfs(SampleResult(), dfs, "/r.txt").ok());
  EXPECT_FALSE(WriteResultToDfs(SampleResult(), dfs, "/r.txt").ok());
}

}  // namespace
}  // namespace ss::core
