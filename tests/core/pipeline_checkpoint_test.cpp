// U-RDD checkpointing through the pipeline: lineage truncation, identical
// results, and recovery from the replicated checkpoint after failures.
#include <gtest/gtest.h>

#include "core/record_traits.hpp"
#include "core/sparkscore.hpp"
#include "engine/dataset_ops.hpp"
#include "stats/resampling.hpp"

namespace ss::core {
namespace {

simdata::GeneratorConfig StudyConfig() {
  simdata::GeneratorConfig config;
  config.num_patients = 50;
  config.num_snps = 40;
  config.num_sets = 4;
  config.seed = 71;
  return config;
}

engine::EngineContext::Options LocalOptions() {
  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(3);
  options.physical_threads = 4;
  return options;
}

struct Env {
  dfs::MiniDfs dfs{{.num_nodes = 4, .replication = 2, .block_lines = 8}};
  simdata::StudyPaths paths;

  Env() {
    auto staged = simdata::GenerateToDfs(dfs, "/study", StudyConfig());
    paths = staged.value();
  }
};

TEST(PipelineCheckpointTest, ResultsIdenticalWithAndWithoutCheckpoint) {
  Env env;
  PipelineConfig plain;
  plain.seed = 5;
  // Paper-faithful Monte Carlo is the resampling path that builds U.
  plain.paper_faithful_scores = true;
  PipelineConfig checkpointed = plain;
  checkpointed.checkpoint_contributions_path = "/ckpt/u";

  engine::EngineContext ctx1(LocalOptions(), &env.dfs);
  engine::EngineContext ctx2(LocalOptions(), &env.dfs);
  auto p1 = SkatPipeline::Open(ctx1, env.paths, plain);
  auto p2 = SkatPipeline::Open(ctx2, env.paths, checkpointed);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  const ResamplingResult a = RunResampling(p1.value(), {ResamplingMethod::kMonteCarlo, 10}).scores;
  const ResamplingResult b = RunResampling(p2.value(), {ResamplingMethod::kMonteCarlo, 10}).scores;
  for (const auto& [set_id, count] : a.exceed) {
    EXPECT_EQ(b.exceed.at(set_id), count);
    EXPECT_NEAR(b.observed.at(set_id), a.observed.at(set_id), 1e-9);
  }
  EXPECT_TRUE(env.dfs.Exists("/ckpt/u"));
}

TEST(PipelineCheckpointTest, CheckpointSurvivesCacheAndNodeLoss) {
  Env env;
  PipelineConfig config;
  config.checkpoint_contributions_path = "/ckpt/u";
  cluster::FaultInjector faults;
  engine::EngineContext ctx(LocalOptions(), &env.dfs, &faults);
  auto pipeline = SkatPipeline::Open(ctx, env.paths, config);
  ASSERT_TRUE(pipeline.ok());
  const SetScores observed = pipeline.value().ComputeObserved();

  // Lose a node: cached U partitions on it are dropped AND its DFS role
  // dies; the checkpoint's surviving replicas carry recovery.
  ctx.FailNode(1);
  env.dfs.KillNode(1);
  const stats::MonteCarloWeights weights(config.seed, pipeline.value().n(), 1);
  const SetScores replicate =
      pipeline.value().ComputeMonteCarloReplicate(weights.Get(0));
  EXPECT_EQ(replicate.size(), observed.size());

  // Second context over the same DFS can reopen the checkpoint directly.
  engine::EngineContext ctx2(LocalOptions(), &env.dfs);
  auto reopened = engine::OpenCheckpoint<
      std::pair<std::uint32_t, std::vector<double>>>(ctx2, "/ckpt/u");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value().Count(), 40u);  // one record per SNP
}

TEST(PipelineCheckpointTest, MissingDfsDegradesGracefully) {
  // In-memory pipeline with a checkpoint path but no DFS: warns and
  // proceeds with plain lineage.
  const simdata::SyntheticDataset dataset = simdata::Generate(StudyConfig());
  engine::EngineContext ctx(LocalOptions());
  PipelineConfig config;
  config.checkpoint_contributions_path = "/nowhere";
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  const ResamplingResult result = RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, 5}).scores;
  EXPECT_EQ(result.observed.size(), 4u);
}

TEST(PipelineCheckpointTest, SnpRecordCodecRoundTrip) {
  const simdata::SnpRecord record{42, {0, 1, 2, 1, 0, 2}};
  BinaryWriter writer;
  engine::Codec<simdata::SnpRecord>::Encode(writer, record);
  BinaryReader reader(writer.bytes());
  EXPECT_EQ(engine::Codec<simdata::SnpRecord>::Decode(reader), record);
}

}  // namespace
}  // namespace ss::core
