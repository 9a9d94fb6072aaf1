// Full-system integration: generate -> stage to DFS -> distributed
// pipeline -> resampling -> p-values, with fault injection and
// virtual-cluster replay, cross-checked against the serial baseline.
#include <gtest/gtest.h>

#include "baseline/serial_skat.hpp"
#include "core/sparkscore.hpp"

namespace ss {
namespace {

simdata::GeneratorConfig StudyConfig() {
  simdata::GeneratorConfig config;
  config.num_patients = 70;
  config.num_snps = 80;
  config.num_sets = 8;
  config.seed = 2016;
  return config;
}

engine::EngineContext::Options LocalOptions() {
  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(3);
  options.physical_threads = 4;
  return options;
}

TEST(EndToEndTest, DfsStudyThroughMonteCarloMatchesSerial) {
  dfs::MiniDfs dfs({.num_nodes = 4, .replication = 2, .block_lines = 16});
  const auto paths = simdata::GenerateToDfs(dfs, "/e2e", StudyConfig());
  ASSERT_TRUE(paths.ok());

  engine::EngineContext ctx(LocalOptions(), &dfs);
  core::PipelineConfig config;
  config.seed = 501;
  auto pipeline = core::SkatPipeline::Open(ctx, paths.value(), config);
  ASSERT_TRUE(pipeline.ok());
  const core::ResamplingResult result =
      core::RunResampling(pipeline.value(), {core::ResamplingMethod::kMonteCarlo, 30}).scores;

  // Serial reference over the same generated data.
  const simdata::SyntheticDataset dataset = simdata::Generate(StudyConfig());
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  const baseline::SkatAnalysis serial =
      baseline::SerialMonteCarlo(inputs, config.seed, 30);

  for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
    const std::uint32_t id = dataset.sets[k].id;
    // The DFS path serializes times as text ("%.10g"), so scores agree to
    // the corresponding precision rather than bit-exactly.
    EXPECT_NEAR(result.observed.at(id), serial.observed[k],
                1e-6 * (1.0 + serial.observed[k]));
    EXPECT_EQ(result.exceed.at(id), serial.exceed_count[k]) << "set " << k;
  }
}

TEST(EndToEndTest, SurvivesNodeFailureMidResampling) {
  dfs::MiniDfs dfs({.num_nodes = 4, .replication = 2, .block_lines = 16});
  const auto paths = simdata::GenerateToDfs(dfs, "/e2e", StudyConfig());
  ASSERT_TRUE(paths.ok());

  // Run once cleanly for reference. Per-replicate scheduling (batch=1)
  // keeps the task count high enough that the injected failure lands
  // mid-resampling rather than during input parsing.
  core::PipelineConfig config;
  config.seed = 502;
  config.resampling_batch_size = 1;
  core::ResamplingResult clean;
  {
    engine::EngineContext ctx(LocalOptions(), &dfs);
    auto pipeline = core::SkatPipeline::Open(ctx, paths.value(), config);
    ASSERT_TRUE(pipeline.ok());
    clean = core::RunResampling(pipeline.value(), {core::ResamplingMethod::kMonteCarlo, 10}).scores;
  }

  // Run again with a node failure injected mid-flight: cached partitions
  // on node 1 are dropped and recomputed via lineage.
  cluster::FaultInjector faults;
  engine::EngineContext ctx(LocalOptions(), &dfs, &faults);
  faults.FailNodeAfterTasks(1, 25);
  auto pipeline = core::SkatPipeline::Open(ctx, paths.value(), config);
  ASSERT_TRUE(pipeline.ok());
  const core::ResamplingResult failed =
      core::RunResampling(pipeline.value(), {core::ResamplingMethod::kMonteCarlo, 10}).scores;

  ASSERT_TRUE(faults.HasFired(1));
  for (const auto& [set_id, count] : clean.exceed) {
    EXPECT_EQ(failed.exceed.at(set_id), count) << "set " << set_id;
  }
}

TEST(EndToEndTest, ReplayProducesStrongScalingCurve) {
  const simdata::SyntheticDataset dataset = simdata::Generate(StudyConfig());
  engine::EngineContext ctx(LocalOptions());
  core::PipelineConfig config;
  config.num_partitions = 64;  // enough tasks to occupy 18 nodes
  config.num_reducers = 16;
  core::SkatPipeline pipeline =
      core::SkatPipeline::FromMemory(ctx, dataset, config);
  core::RunResampling(pipeline, {core::ResamplingMethod::kMonteCarlo, 5}).scores;

  const auto points =
      core::TuneAcross(ctx, core::StrongScalingCandidates({6, 12, 18}));
  ASSERT_EQ(points.size(), 3u);
  // 6 nodes is strictly slowest (64-task stages need two waves on its 48
  // slots); 12 and 18 both fit one wave and may tie.
  EXPECT_EQ(points.back().topology.num_nodes, 6);
  EXPECT_NE(points.front().topology.num_nodes, 6);
  EXPECT_LT(points.front().report.total_s, points.back().report.total_s);
}

TEST(EndToEndTest, ReportFormatsTopHits) {
  const simdata::SyntheticDataset dataset = simdata::Generate(StudyConfig());
  engine::EngineContext ctx(LocalOptions());
  core::SkatPipeline pipeline = core::SkatPipeline::FromMemory(ctx, dataset, {});
  const core::ResamplingResult result = core::RunResampling(pipeline, {core::ResamplingMethod::kMonteCarlo, 9}).scores;
  const std::string table = core::FormatTopHits(result, 3);
  EXPECT_NE(table.find("Top SNP-sets"), std::string::npos);
  EXPECT_NE(table.find("p-value"), std::string::npos);
  const std::string summary = core::SummarizeResult(result);
  EXPECT_NE(summary.find("B=9"), std::string::npos);
}

TEST(EndToEndTest, SkatOAndVariantScanSurviveNodeFailure) {
  // The two extension analyses under the same chaos as the SKAT path.
  dfs::MiniDfs dfs({.num_nodes = 4, .replication = 2, .block_lines = 16});
  const auto paths = simdata::GenerateToDfs(dfs, "/e2e", StudyConfig());
  ASSERT_TRUE(paths.ok());

  core::PipelineConfig config;
  config.seed = 909;
  core::SkatOResult clean_skato;
  {
    engine::EngineContext ctx(LocalOptions(), &dfs);
    auto pipeline = core::SkatPipeline::Open(ctx, paths.value(), config);
    ASSERT_TRUE(pipeline.ok());
    clean_skato = core::RunResampling(pipeline.value(), {core::ResamplingMethod::kSkatO, 15}).skato;
  }
  cluster::FaultInjector faults;
  engine::EngineContext ctx(LocalOptions(), &dfs, &faults);
  // 15 tasks: the weight collect, the observed score block and the one
  // replicate batch, 5 partitions each; the node dies in the batch.
  faults.FailNodeAfterTasks(2, 12);
  auto pipeline = core::SkatPipeline::Open(ctx, paths.value(), config);
  ASSERT_TRUE(pipeline.ok());
  const core::SkatOResult chaotic = core::RunResampling(pipeline.value(), {core::ResamplingMethod::kSkatO, 15}).skato;
  ASSERT_TRUE(faults.HasFired(2));
  for (const auto& [set_id, per_set] : clean_skato.by_set) {
    EXPECT_DOUBLE_EQ(chaotic.by_set.at(set_id).pvalue, per_set.pvalue)
        << "set " << set_id;
  }
}

TEST(EndToEndTest, VariantScanDeterministicUnderTaskFailures) {
  const simdata::SyntheticDataset dataset = simdata::Generate(StudyConfig());
  std::vector<simdata::SnpRecord> records;
  for (std::uint32_t j = 0; j < dataset.genotypes.num_snps(); ++j) {
    records.push_back({j, dataset.genotypes.by_snp[j]});
  }
  core::VariantScanConfig config;
  config.replicates = 12;
  auto run = [&](cluster::FaultInjector* faults) {
    engine::EngineContext ctx(LocalOptions(), nullptr, faults);
    return core::RunVariantScan(ctx,
                                engine::Parallelize(ctx, records, 6),
                                stats::Phenotype::Cox(dataset.survival),
                                config);
  };
  const core::VariantScanResult clean = run(nullptr);
  cluster::FaultInjector faults;
  faults.FailTask(1, 2, 2);
  faults.FailNodeAfterTasks(1, 10);
  const core::VariantScanResult chaotic = run(&faults);
  for (const auto& [snp, count] : clean.exceed) {
    EXPECT_EQ(chaotic.exceed.at(snp), count) << "snp " << snp;
  }
  EXPECT_EQ(chaotic.replicate_max, clean.replicate_max);
}

TEST(EndToEndTest, ResultExportRoundTripsThroughDfs) {
  dfs::MiniDfs dfs({.num_nodes = 3, .replication = 2, .block_lines = 16});
  const auto paths = simdata::GenerateToDfs(dfs, "/e2e", StudyConfig());
  ASSERT_TRUE(paths.ok());
  engine::EngineContext ctx(LocalOptions(), &dfs);
  core::PipelineConfig config;
  auto pipeline = core::SkatPipeline::Open(ctx, paths.value(), config);
  ASSERT_TRUE(pipeline.ok());
  const core::ResamplingResult result =
      core::RunResampling(pipeline.value(), {core::ResamplingMethod::kMonteCarlo, 9}).scores;
  ASSERT_TRUE(core::WriteResultToDfs(result, dfs, "/e2e/results.txt").ok());
  // Survives a node failure thanks to replication.
  dfs.KillNode(0);
  auto restored = core::ReadResultFromDfs(dfs, "/e2e/results.txt");
  ASSERT_TRUE(restored.ok());
  for (const auto& [set_id, score] : result.observed) {
    EXPECT_DOUBLE_EQ(restored.value().observed.at(set_id), score);
  }
}

TEST(EndToEndTest, MonteCarloReusesWorkAcrossReplicates) {
  // The cached-U speedup (Fig 4/5): paper-faithful MC replicates must not
  // recompute the genotype -> U lineage. Verified structurally via cache
  // hit counts. With batching, each engine pass serves a whole batch, so
  // the cached U is read once per batch (here 20 replicates / batch=4 = 5
  // batches) instead of once per replicate — strictly fewer reads, never
  // a rebuild.
  const simdata::SyntheticDataset dataset = simdata::Generate(StudyConfig());
  engine::EngineContext ctx(LocalOptions());
  core::PipelineConfig config;
  config.num_partitions = 4;
  config.resampling_batch_size = 4;
  config.paper_faithful_scores = true;
  core::SkatPipeline pipeline =
      core::SkatPipeline::FromMemory(ctx, dataset, config);
  core::RunResampling(pipeline, {core::ResamplingMethod::kMonteCarlo, 20}).scores;
  const auto stats = ctx.cache().stats();
  // One insertion per U partition plus one per packed-genotype partition
  // (both datasets are cached); >= 5 batches * partitions hits, and no
  // re-insertions (the lineage was never recomputed).
  EXPECT_EQ(stats.insertions, 8u);
  EXPECT_GE(stats.hits, 20u);
}

TEST(EndToEndTest, MonteCarloWithoutUReusesCachedGenotypes) {
  // The default Monte Carlo path never builds U: the observed pass and
  // every batch score the cached packed genotype partitions, inserted
  // once (4 partitions) and hit by each of the 5 batch passes.
  const simdata::SyntheticDataset dataset = simdata::Generate(StudyConfig());
  engine::EngineContext ctx(LocalOptions());
  core::PipelineConfig config;
  config.num_partitions = 4;
  config.resampling_batch_size = 4;
  core::SkatPipeline pipeline =
      core::SkatPipeline::FromMemory(ctx, dataset, config);
  core::RunResampling(pipeline, {core::ResamplingMethod::kMonteCarlo, 20});
  const auto stats = ctx.cache().stats();
  EXPECT_EQ(stats.insertions, 4u);
  EXPECT_GE(stats.hits, 20u);
}

}  // namespace
}  // namespace ss
