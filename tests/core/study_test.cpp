// The study front end (core/study.hpp): every workload and engine key
// lands on the spec, every shape rule refuses, the three cohort sources
// reach one result, the store= policy stages once and never touches a
// file it refuses, and RunStudyTool refuses a bad command line before its
// body runs.
#include "core/study.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/resampling_methods.hpp"
#include "engine/trace.hpp"

namespace ss::core {
namespace {

/// An OptionMap over `tokens` (argv[0] is a fake program name).
support::OptionMap Parse(std::vector<std::string> tokens) {
  std::vector<char*> argv;
  static std::string program = "study_test";
  argv.push_back(program.data());
  for (std::string& token : tokens) argv.push_back(token.data());
  return support::OptionMap(static_cast<int>(argv.size()), argv.data());
}

/// A tool's defaults: a small cohort on a 3-node cluster.
StudySpec SmallSpec() {
  StudySpec spec;
  spec.generator.num_patients = 40;
  spec.generator.num_snps = 60;
  spec.generator.num_sets = 6;
  spec.generator.seed = 99;
  spec.pipeline.num_partitions = 4;
  spec.pipeline.num_reducers = 4;
  spec.engine.topology = cluster::EmrCluster(3);
  spec.engine.physical_threads = 2;
  return spec;
}

std::string TempPath(const std::string& name) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  std::filesystem::remove(path);
  return path;
}

std::string FileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(file),
          std::istreambuf_iterator<char>()};
}

/// One Monte Carlo run over `spec`'s study; its result hash.
std::uint64_t MonteCarloHash(const StudySpec& spec) {
  Study study = OpenStudy(spec).value();
  RunResampling(*study.pipeline, {ResamplingMethod::kMonteCarlo, 19});
  return engine::CounterRegistry::Global().Get("resampling.result_hash").load();
}

TEST(StudyKeysTest, MapsEveryWorkloadAndEngineKey) {
  const StudySpec spec =
      ApplyStudyKeys(
          Parse({"patients=50", "snps=70", "sets=7", "seed=5", "ld_block=3",
                 "nodes=12", "partitions=5", "reducers=6", "threads=1",
                 "batch=9", "cache_budget=12345", "store=/tmp/x.ssg",
                 "model=gaussian", "faithful=1"}),
          SmallSpec())
          .value();
  EXPECT_EQ(spec.generator.num_patients, 50u);
  EXPECT_EQ(spec.generator.num_snps, 70u);
  EXPECT_EQ(spec.generator.num_sets, 7u);
  EXPECT_EQ(spec.generator.ld_block_size, 3u);
  EXPECT_EQ(spec.generator.seed, 5u);
  EXPECT_EQ(spec.pipeline.seed, 5u);
  EXPECT_EQ(spec.engine.seed, 5u);
  EXPECT_EQ(spec.engine.topology.num_nodes, 12);
  EXPECT_EQ(spec.engine.topology.ToString(),
            cluster::EmrCluster(12).ToString());
  EXPECT_EQ(spec.pipeline.num_partitions, 5u);
  EXPECT_EQ(spec.pipeline.num_reducers, 6u);
  EXPECT_EQ(spec.engine.physical_threads, 1u);
  EXPECT_EQ(spec.pipeline.resampling_batch_size, 9u);
  // The cache budget is set once, on the engine options.
  EXPECT_EQ(spec.engine.cache_capacity_bytes, 12345u);
  EXPECT_EQ(spec.pipeline.cache_budget_bytes, 0u);
  EXPECT_EQ(spec.store, "/tmp/x.ssg");
  EXPECT_EQ(spec.model, "gaussian");
  EXPECT_TRUE(spec.pipeline.paper_faithful_scores);
}

TEST(StudyKeysTest, AbsentKeysKeepTheToolsDefaults) {
  const StudySpec defaults = SmallSpec();
  const StudySpec spec = ApplyStudyKeys(Parse({}), defaults).value();
  EXPECT_EQ(spec.generator.num_patients, 40u);
  EXPECT_EQ(spec.generator.num_snps, 60u);
  EXPECT_EQ(spec.generator.num_sets, 6u);
  EXPECT_EQ(spec.generator.ld_block_size, 1u);
  EXPECT_EQ(spec.pipeline.seed, 99u);
  EXPECT_EQ(spec.engine.seed, 99u);
  EXPECT_EQ(spec.engine.topology.num_nodes, 3);
  EXPECT_EQ(spec.pipeline.num_partitions, 4u);
  EXPECT_EQ(spec.engine.physical_threads, 2u);
  EXPECT_EQ(spec.pipeline.resampling_batch_size,
            defaults.pipeline.resampling_batch_size);
  EXPECT_FALSE(spec.pipeline.paper_faithful_scores);
  EXPECT_TRUE(spec.store.empty());
  EXPECT_EQ(spec.model, "cox");
  // batch=0 runs one replicate per pass.
  EXPECT_EQ(ApplyStudyKeys(Parse({"batch=0"}), defaults)
                .value()
                .pipeline.resampling_batch_size,
            1u);
}

TEST(StudyKeysTest, EveryShapeRuleRefuses) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"patients=1", "patients must be >= 2"},
      {"sets=0", "sets must be >= 1"},
      {"snps=5", "snps must be >= sets"},
      {"partitions=0", "partitions must be >= 1"},
      {"partitions=4294967296", "must each be below 2^32"},
      {"snps=4294967296", "must each be below 2^32"},
  };
  for (const auto& [token, message] : cases) {
    const Result<StudySpec> spec = ApplyStudyKeys(Parse({token}), SmallSpec());
    ASSERT_FALSE(spec.ok()) << token;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << token;
    EXPECT_NE(spec.status().message().find(message), std::string::npos)
        << token << ": " << spec.status().ToString();
  }
}

TEST(OpenStudyTest, RefusesABadShapeSetAfterTheKeys) {
  StudySpec spec = SmallSpec();
  spec.generator.num_sets = 0;
  const Result<Study> study = OpenStudy(spec);
  ASSERT_FALSE(study.ok());
  EXPECT_EQ(study.status().code(), StatusCode::kInvalidArgument);
}

TEST(OpenStudyTest, NonCoxModelNeedsTheTextPath) {
  StudySpec spec = SmallSpec();
  spec.model = "binomial";
  spec.use_dfs = false;
  EXPECT_EQ(OpenStudy(spec).status().code(), StatusCode::kInvalidArgument);
  spec.use_dfs = true;
  spec.store = TempPath("ss_study_model.ssg");
  EXPECT_EQ(OpenStudy(spec).status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(spec.store));
  spec.store.clear();
  EXPECT_TRUE(OpenStudy(spec).ok());
}

TEST(OpenStudyTest, EverySourceReachesOneResult) {
  StudySpec spec = SmallSpec();
  const std::uint64_t text = MonteCarloHash(spec);
  spec.use_dfs = false;
  EXPECT_EQ(MonteCarloHash(spec), text) << "in memory";
  spec.store = TempPath("ss_study_sources.ssg");
  EXPECT_EQ(MonteCarloHash(spec), text) << "staged store";
  EXPECT_EQ(MonteCarloHash(spec), text) << "reopened store";
}

TEST(OpenStudyTest, StoreIsStagedOnceThenReopened) {
  StudySpec spec = SmallSpec();
  spec.store = TempPath("ss_study_once.ssg");
  {
    const Study first = OpenStudy(spec).value();
    ASSERT_TRUE(first.staged.has_value());
    EXPECT_EQ(first.staged->num_partitions, 4u);
  }
  EXPECT_TRUE(std::filesystem::exists(spec.store));
  EXPECT_FALSE(std::filesystem::exists(spec.store + ".partial"));
  const std::string bytes = FileBytes(spec.store);
  const Study second = OpenStudy(spec).value();
  EXPECT_FALSE(second.staged.has_value());
  EXPECT_EQ(FileBytes(spec.store), bytes);
}

TEST(OpenStudyTest, RefusesAnotherCohortsStoreAndLeavesItAsIs) {
  StudySpec spec = SmallSpec();
  spec.store = TempPath("ss_study_other.ssg");
  ASSERT_TRUE(OpenStudy(spec).ok());
  const std::string bytes = FileBytes(spec.store);
  spec.generator.num_patients = 41;
  const Result<Study> study = OpenStudy(spec);
  ASSERT_FALSE(study.ok());
  EXPECT_EQ(study.status().code(), StatusCode::kInvalidArgument)
      << study.status().ToString();
  EXPECT_EQ(FileBytes(spec.store), bytes);
}

TEST(OpenStudyTest, RefusesACorruptStoreAndLeavesItAsIs) {
  StudySpec spec = SmallSpec();
  spec.store = TempPath("ss_study_corrupt.ssg");
  ASSERT_TRUE(OpenStudy(spec).ok());
  std::string bytes = FileBytes(spec.store);
  bytes[0] = static_cast<char>(bytes[0] ^ 0xff);  // break the magic
  std::ofstream(spec.store, std::ios::binary | std::ios::trunc) << bytes;
  const Result<Study> study = OpenStudy(spec);
  ASSERT_FALSE(study.ok());
  EXPECT_EQ(study.status().code(), StatusCode::kDataLoss)
      << study.status().ToString();
  EXPECT_EQ(FileBytes(spec.store), bytes);
}

/// RunStudyTool over `tokens` with a body that records that it ran.
int RunTool(std::vector<std::string> tokens, const ToolKeys& keys,
            bool* ran, const std::function<int()>& body = [] { return 0; }) {
  std::vector<char*> argv;
  static std::string program = "study_test";
  argv.push_back(program.data());
  for (std::string& token : tokens) argv.push_back(token.data());
  *ran = false;
  return RunStudyTool(static_cast<int>(argv.size()), argv.data(), 1, keys,
                      GetLogLevel(), [&](const support::OptionMap&) {
                        *ran = true;
                        return body();
                      });
}

TEST(RunStudyToolTest, RefusesABadCommandLineBeforeTheBody) {
  const ToolKeys keys = {.groups = {"workload"},
                         .keys = {"reps"},
                         .fixed = {"snps"}};
  bool ran = false;
  EXPECT_EQ(RunTool({"patients=5", "reps=3"}, keys, &ran), 0);
  EXPECT_TRUE(ran);
  for (const char* bad : {"rep=3", "reps=abc", "snps=10", "nodes=3", "fast"}) {
    EXPECT_EQ(RunTool({"patients=5", bad}, keys, &ran), 2) << bad;
    EXPECT_FALSE(ran) << bad;
  }
  // A tool that names no group accepts only its own keys.
  EXPECT_EQ(RunTool({"patients=5"}, {.keys = {"reps"}}, &ran), 2);
  EXPECT_FALSE(ran);
}

TEST(RunStudyToolTest, MapsAStatusErrorToItsExitCode) {
  bool ran = false;
  EXPECT_EQ(RunTool({}, {}, &ran, [] { return 7; }), 7);
  EXPECT_EQ(RunTool({}, {}, &ran,
                    []() -> int {
                      throw StatusError(Status::InvalidArgument("bad input"));
                    }),
            2);
  EXPECT_EQ(RunTool({}, {}, &ran,
                    []() -> int {
                      throw StatusError(Status::DataLoss("corrupt"));
                    }),
            1);
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace ss::core
