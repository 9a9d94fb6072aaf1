// Full-system integration: generate -> stage to DFS -> distributed
// pipeline -> resampling -> p-values, with fault injection and
// virtual-cluster replay, cross-checked against the serial baseline.
#include <gtest/gtest.h>

#include <cstring>

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

  const double six = ctx.ReplayOn(cluster::EmrCluster(6)).total_s;
  const double twelve = ctx.ReplayOn(cluster::EmrCluster(12)).total_s;
  const double eighteen = ctx.ReplayOn(cluster::EmrCluster(18)).total_s;
  // 6 nodes is strictly slowest (64-task stages need two waves on its 48
  // slots); 12 and 18 both fit one wave and may tie.
  EXPECT_LT(twelve, six);
  EXPECT_LT(eighteen, six);
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
  const auto run = [&](core::ResamplingMethod method,
                       cluster::FaultInjector* faults) {
    engine::EngineContext ctx(LocalOptions(), &dfs, faults);
    auto pipeline = core::SkatPipeline::Open(ctx, paths.value(), config);
    EXPECT_TRUE(pipeline.ok());
    return core::RunResampling(pipeline.value(), {method, 15});
  };

  // 10 tasks each, 5 partitions per pass: SKAT-O collects the weights and
  // runs the one replicate batch (whose column 0 is the observed pair);
  // the scan runs its observed [U, V] pass and the one replicate batch.
  // The node dies in the batch.
  const core::SkatOResult clean_skato =
      run(core::ResamplingMethod::kSkatO, nullptr).skato;
  cluster::FaultInjector skato_faults;
  skato_faults.FailNodeAfterTasks(2, 7);
  const core::SkatOResult chaotic_skato =
      run(core::ResamplingMethod::kSkatO, &skato_faults).skato;
  ASSERT_TRUE(skato_faults.HasFired(2));
  for (const auto& [set_id, per_set] : clean_skato.by_set) {
    EXPECT_DOUBLE_EQ(chaotic_skato.by_set.at(set_id).pvalue, per_set.pvalue)
        << "set " << set_id;
  }

  const core::VariantScanResult clean_scan =
      run(core::ResamplingMethod::kVariantScan, nullptr).scan;
  cluster::FaultInjector scan_faults;
  scan_faults.FailNodeAfterTasks(2, 7);
  const core::VariantScanResult chaotic_scan =
      run(core::ResamplingMethod::kVariantScan, &scan_faults).scan;
  ASSERT_TRUE(scan_faults.HasFired(2));
  ASSERT_EQ(clean_scan.snps.size(), StudyConfig().num_snps);
  EXPECT_EQ(chaotic_scan.snps, clean_scan.snps);
  EXPECT_EQ(chaotic_scan.exceed, clean_scan.exceed);
  ASSERT_EQ(chaotic_scan.replicate_max.size(), 15u);
  EXPECT_EQ(std::memcmp(chaotic_scan.replicate_max.data(),
                        clean_scan.replicate_max.data(),
                        15 * sizeof(double)),
            0);
}

TEST(EndToEndTest, VariantScanDeterministicUnderTaskFailures) {
  const simdata::SyntheticDataset dataset = simdata::Generate(StudyConfig());
  core::PipelineConfig config;
  config.num_partitions = 6;
  config.resampling_batch_size = 5;
  // Stage 1 is the observed pass; stages 2-4 are the batches of 5, 5 and
  // 2 replicates, 6 tasks each.
  auto run = [&](cluster::FaultInjector* faults) {
    engine::EngineContext ctx(LocalOptions(), nullptr, faults);
    core::SkatPipeline pipeline =
        core::SkatPipeline::FromMemory(ctx, dataset, config);
    core::VariantScanResult scan =
        core::RunResampling(pipeline,
                            {core::ResamplingMethod::kVariantScan, 12})
            .scan;
    int batch_failures = 0;
    for (const engine::StageMetrics& stage : ctx.metrics().stages()) {
      if (stage.stage_id >= 2) batch_failures += stage.failed_attempts;
    }
    return std::make_pair(std::move(scan), batch_failures);
  };
  const auto [clean, clean_failures] = run(nullptr);
  EXPECT_EQ(clean_failures, 0);
  cluster::FaultInjector faults;
  faults.FailTask(2, 2, 2);          // the first batch, partition 2, twice
  faults.FailNodeAfterTasks(1, 14);  // inside the second batch
  const auto [chaotic, chaotic_failures] = run(&faults);
  ASSERT_TRUE(faults.HasFired(1));
  EXPECT_GE(chaotic_failures, 2);
  EXPECT_EQ(chaotic.snps, clean.snps);
  EXPECT_EQ(chaotic.exceed, clean.exceed);
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
  // batches, the first of which also carries the observed all-ones column
  // and builds U) instead of once per replicate — strictly fewer reads,
  // never a rebuild.
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
  // (both datasets are cached), inserted by the first batch; >= 4 later
  // batches * partitions hits, and no re-insertions (the lineage was never
  // recomputed).
  EXPECT_EQ(stats.insertions, 8u);
  EXPECT_GE(stats.hits, 16u);
}

TEST(EndToEndTest, MonteCarloWithoutUReusesCachedGenotypes) {
  // The default Monte Carlo path never builds U: every batch scores the
  // cached packed genotype partitions, inserted once (4 partitions) by the
  // first batch, which also carries the observed scores as column 0, and
  // hit by each of the other 4 batch passes.
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
  EXPECT_GE(stats.hits, 16u);
}

}  // namespace
}  // namespace ss
