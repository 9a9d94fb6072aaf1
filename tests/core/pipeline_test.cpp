// Cross-validation of the distributed Algorithm 1 against the serial
// baseline, plus DFS-backed pipeline construction.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "baseline/serial_skat.hpp"
#include "core/record_traits.hpp"
#include "core/resampling_methods.hpp"
#include "stats/resampling.hpp"

namespace ss::core {
namespace {

simdata::SyntheticDataset SmallDataset(std::uint64_t seed = 33) {
  simdata::GeneratorConfig config;
  config.num_patients = 60;
  config.num_snps = 50;
  config.num_sets = 5;
  config.seed = seed;
  return simdata::Generate(config);
}

engine::EngineContext::Options LocalOptions() {
  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(3);
  options.physical_threads = 4;
  return options;
}

baseline::SkatAnalysis SerialReference(const simdata::SyntheticDataset& dataset) {
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  return baseline::SerialObserved(inputs);
}

TEST(SkatPipelineTest, ObservedMatchesSerialBaseline) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  const SetScores observed = pipeline.ComputeObserved();
  const baseline::SkatAnalysis reference = SerialReference(dataset);
  ASSERT_EQ(observed.size(), dataset.sets.size());
  for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
    ASSERT_TRUE(observed.contains(dataset.sets[k].id));
    EXPECT_NEAR(observed.at(dataset.sets[k].id), reference.observed[k], 1e-9)
        << "set " << k;
  }
}

TEST(SkatPipelineTest, ObservedIndependentOfPartitioning) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  SetScores previous;
  for (std::uint32_t partitions : {1u, 3u, 8u, 16u}) {
    engine::EngineContext ctx(LocalOptions());
    PipelineConfig config;
    config.num_partitions = partitions;
    config.num_reducers = partitions;
    SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
    const SetScores observed = pipeline.ComputeObserved();
    if (!previous.empty()) {
      for (const auto& [set_id, score] : observed) {
        EXPECT_NEAR(score, previous.at(set_id), 1e-9);
      }
    }
    previous = observed;
  }
}

TEST(SkatPipelineTest, DfsPipelineMatchesInMemory) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  dfs::MiniDfs dfs({.num_nodes = 3, .replication = 2, .block_lines = 8});
  const simdata::StudyPaths paths = simdata::StudyPaths::Under("/study");
  ASSERT_TRUE(simdata::WriteStudy(dfs, paths, dataset).ok());

  engine::EngineContext ctx(LocalOptions(), &dfs);
  auto opened = SkatPipeline::Open(ctx, paths, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const SetScores from_dfs = opened.value().ComputeObserved();

  engine::EngineContext ctx2(LocalOptions());
  SkatPipeline in_memory = SkatPipeline::FromMemory(ctx2, dataset, {});
  const SetScores expected = in_memory.ComputeObserved();
  ASSERT_EQ(from_dfs.size(), expected.size());
  for (const auto& [set_id, score] : expected) {
    EXPECT_NEAR(from_dfs.at(set_id), score, 1e-9) << "set " << set_id;
  }
}

TEST(SkatPipelineTest, OpenMissingStudyFails) {
  dfs::MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 8});
  engine::EngineContext ctx(LocalOptions(), &dfs);
  EXPECT_FALSE(
      SkatPipeline::Open(ctx, simdata::StudyPaths::Under("/none"), {}).ok());
}

TEST(SkatPipelineTest, OpenRejectsRepeatedSetId) {
  // Results are keyed by set id: a repeated id would let one set's
  // statistic overwrite the other's, so the study is refused up front.
  const simdata::SyntheticDataset dataset = SmallDataset();
  dfs::MiniDfs dfs({.num_nodes = 3, .replication = 2, .block_lines = 8});
  simdata::StudyPaths paths = simdata::StudyPaths::Under("/s");
  ASSERT_TRUE(simdata::WriteStudy(dfs, paths, dataset).ok());
  std::vector<std::string> lines;
  for (const stats::SnpSet& set : dataset.sets) {
    lines.push_back(simdata::FormatSnpSet(set));
  }
  stats::SnpSet repeated = dataset.sets.back();
  repeated.snps = {dataset.sets.front().snps.front()};
  lines.push_back(simdata::FormatSnpSet(repeated));
  paths.snp_sets = "/s/repeated_sets.txt";
  ASSERT_TRUE(dfs.WriteTextFile(paths.snp_sets, lines).ok());
  engine::EngineContext ctx(LocalOptions(), &dfs);
  auto pipeline = SkatPipeline::Open(ctx, paths, {});
  ASSERT_FALSE(pipeline.ok());
  EXPECT_EQ(pipeline.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(pipeline.status().message().find(std::to_string(repeated.id)),
            std::string::npos)
      << pipeline.status().ToString();
}

TEST(SkatPipelineTest, ConstructorRejectsRepeatedSetId) {
  simdata::SyntheticDataset dataset = SmallDataset();
  dataset.sets.push_back(dataset.sets.front());
  // The context lives inside the death statement: the forked child must
  // create its own threads (workers do not survive fork, and a lock one
  // of them held at the fork would hang the child).
  auto construct = [&dataset]() {
    engine::EngineContext ctx(LocalOptions());
    SkatPipeline::FromMemory(ctx, dataset, {});
  };
  EXPECT_DEATH(construct(), "CheckDistinctSetIds");
}

TEST(SkatPipelineTest, CorruptGenotypeLineFailsJob) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  dfs::MiniDfs dfs({.num_nodes = 2, .replication = 1, .block_lines = 8});
  simdata::StudyPaths paths = simdata::StudyPaths::Under("/s");
  ASSERT_TRUE(simdata::WriteStudy(dfs, paths, dataset).ok());
  // Overwrite the genotype file with a malformed record.
  paths.genotypes = "/s/bad_genotypes.txt";
  ASSERT_TRUE(dfs.WriteTextFile(paths.genotypes, {"not a record"}).ok());
  engine::EngineContext ctx(LocalOptions(), &dfs);
  auto pipeline = SkatPipeline::Open(ctx, paths, {});
  ASSERT_TRUE(pipeline.ok());
  EXPECT_THROW(pipeline.value().ComputeObserved(), engine::TaskFailure);
}

TEST(SkatPipelineTest, DosageAboveTwoBitsFailsJobNamingSnp) {
  // Records handed to the parts constructor skip the text parser's range
  // check. A dosage with no 2-bit code must fail the task that packs it,
  // naming the SNP, not switch the block to another encoding.
  const simdata::SyntheticDataset dataset = SmallDataset();
  const std::uint32_t bad_snp = dataset.sets.front().snps.front();
  std::vector<simdata::SnpRecord> records;
  for (std::uint32_t j = 0; j < dataset.genotypes.num_snps(); ++j) {
    records.push_back({j, dataset.genotypes.by_snp[j]});
  }
  records[bad_snp].genotypes[1] = 4;
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline(ctx, {},
                        engine::Parallelize(ctx, records, /*partitions=*/4),
                        stats::Phenotype::Cox(dataset.survival),
                        dataset.weights, dataset.sets);
  try {
    RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, 20});
    FAIL() << "a dosage of 4 was accepted";
  } catch (const engine::TaskFailure& failure) {
    EXPECT_NE(std::string(failure.what())
                  .find("dosage 4 for SNP " + std::to_string(bad_snp)),
              std::string::npos)
        << failure.what();
  }
}

TEST(SkatPipelineTest, MonteCarloReplicateMatchesSerial) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  const std::uint64_t seed = 5;
  const baseline::SkatAnalysis serial =
      baseline::SerialMonteCarlo(inputs, seed, 7);

  engine::EngineContext ctx(LocalOptions());
  PipelineConfig config;
  config.seed = seed;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  const SetScores observed = pipeline.ComputeObserved();
  // One 7-replicate pass over the cached U: Ũ_jb = Σ_i Z_ib U_ij per SNP.
  const auto block = pipeline.ComputeMonteCarloScoreBlock(
      stats::MonteCarloZBlock(seed, dataset.survival.n(), 0, 7), 7);
  const auto& weights = pipeline.DriverWeights();
  std::vector<std::uint64_t> exceed(dataset.sets.size(), 0);
  for (std::size_t b = 0; b < 7; ++b) {
    for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
      // S̃_k = Σ_j ω_j² Ũ_jb² over the set's scored SNPs.
      double replicate = 0.0;
      for (std::uint32_t snp : dataset.sets[k].snps) {
        const double* row = block.row(snp);
        if (row == nullptr) continue;  // SNP filtered out
        const double w = weights.at(snp);
        replicate += w * w * (row[b] * row[b]);
      }
      if (replicate >= observed.at(dataset.sets[k].id)) ++exceed[k];
    }
  }
  EXPECT_EQ(exceed, serial.exceed_count);
}

TEST(SkatPipelineTest, PermutationReplicateMatchesSerial) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  const std::uint64_t seed = 6;
  const baseline::SkatAnalysis serial =
      baseline::SerialPermutation(inputs, seed, 5);

  engine::EngineContext ctx(LocalOptions());
  PipelineConfig config;
  config.seed = seed;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  const SetScores observed = pipeline.ComputeObserved();
  const stats::PermutationPlan plan(seed, dataset.survival.n(), 5);
  std::vector<std::uint64_t> exceed(dataset.sets.size(), 0);
  for (std::size_t b = 0; b < 5; ++b) {
    const SetScores replicate = pipeline.ComputePermutationReplicate(plan.Get(b));
    for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
      if (replicate.at(dataset.sets[k].id) >=
          observed.at(dataset.sets[k].id)) {
        ++exceed[k];
      }
    }
  }
  EXPECT_EQ(exceed, serial.exceed_count);
}

TEST(SkatPipelineTest, CachingConfigControlsCacheUse) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  {
    engine::EngineContext ctx(LocalOptions());
    PipelineConfig config;
    config.cache_contributions = true;
    config.paper_faithful_scores = true;  // the mode that caches U
    SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
    pipeline.ComputeObserved();
    EXPECT_GT(ctx.cache().stats().insertions, 0u);
    const auto before = ctx.cache().stats().hits;
    pipeline.ComputeMonteCarloScoreBlock(
        std::vector<double>(dataset.survival.n(), 1.0), 1);
    EXPECT_GT(ctx.cache().stats().hits, before);  // replicate reused U
  }
  {
    engine::EngineContext ctx(LocalOptions());
    PipelineConfig config;
    config.cache_contributions = false;
    SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
    pipeline.ComputeObserved();
    EXPECT_EQ(ctx.cache().stats().insertions, 0u);
  }
}

/// Memory-tier cache entries left by one Monte Carlo run on 4 partitions.
std::size_t CacheEntriesAfterRun(const simdata::SyntheticDataset& dataset,
                                 bool faithful, PValueMethod pmethod) {
  engine::EngineContext ctx(LocalOptions());
  PipelineConfig config;
  config.num_partitions = 4;
  config.paper_faithful_scores = faithful;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  ResamplingRequest request(ResamplingMethod::kMonteCarlo, 20);
  request.pvalue_method = pmethod;
  request.refine_threshold = 0.5;
  const ResamplingResult result = RunResampling(pipeline, request).scores;
  if (pmethod == PValueMethod::kHybrid) {
    EXPECT_EQ(result.inference.size(), dataset.sets.size())
        << "the screen should have run";
  }
  return ctx.cache().entry_count();
}

TEST(SkatPipelineTest, CachesUOnlyWhereItIsReRead) {
  // Every run caches the 4 packed genotype partitions. The default hybrid
  // run's screen builds its contribution rows in one transient pass and
  // caches nothing more, like a plain default run; paper-faithful Monte
  // Carlo re-reads U every batch and caches its 4 partitions as well.
  const simdata::SyntheticDataset dataset = SmallDataset();
  EXPECT_EQ(CacheEntriesAfterRun(dataset, false, PValueMethod::kResampling),
            4u);
  EXPECT_EQ(CacheEntriesAfterRun(dataset, false, PValueMethod::kHybrid), 4u);
  EXPECT_EQ(CacheEntriesAfterRun(dataset, true, PValueMethod::kResampling),
            8u);
}

TEST(SkatPipelineTest, MonteCarloOnesColumnIsTheObservedPass) {
  // A fresh paper-faithful pipeline builds U on its first Monte Carlo
  // pass, and the all-ones column scores the observed U_j = Σ_i U_ij
  // bitwise (fl(1·U_ij) = U_ij, summed in ascending i from +0), as
  // CollectObservedScores returns them.
  const simdata::SyntheticDataset dataset = SmallDataset();
  PipelineConfig config;
  config.paper_faithful_scores = true;
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  const ScoreBlock ones = pipeline.ComputeMonteCarloScoreBlock(
      std::vector<double>(dataset.survival.n(), 1.0), 1);
  engine::EngineContext ctx2(LocalOptions());
  SkatPipeline fresh = SkatPipeline::FromMemory(ctx2, dataset, config);
  const ScoreBlock observed = fresh.CollectObservedScores();

  const stats::ScoreEngine engine(stats::Phenotype::Cox(dataset.survival),
                                  /*paper_faithful=*/true);
  ASSERT_EQ(ones.size(), observed.size());
  ASSERT_GT(ones.size(), 0u);
  for (std::uint32_t snp = 0; snp < ones.snp_end(); ++snp) {
    ASSERT_EQ(ones.row(snp) == nullptr, observed.row(snp) == nullptr);
    if (ones.row(snp) == nullptr) continue;
    double direct = 0.0;
    for (double u : engine.Contributions(dataset.genotypes.by_snp[snp])) {
      direct += u;
    }
    EXPECT_EQ(std::memcmp(ones.row(snp), observed.row(snp), sizeof(double)),
              0)
        << "snp " << snp;
    EXPECT_EQ(std::memcmp(ones.row(snp), &direct, sizeof(double)), 0)
        << "snp " << snp;
  }
}

TEST(SkatPipelineTest, GaussianStudyThroughDfs) {
  // A non-Cox phenotype staged with the model-tagged format opens and
  // matches the in-memory Gaussian pipeline.
  const simdata::SyntheticDataset dataset = SmallDataset();
  stats::QuantitativeData expression;
  for (std::size_t i = 0; i < dataset.survival.n(); ++i) {
    expression.value.push_back(static_cast<double>((i * 13) % 11));
  }
  dfs::MiniDfs dfs({.num_nodes = 3, .replication = 2, .block_lines = 8});
  const simdata::StudyPaths paths = simdata::StudyPaths::Under("/eqtl");
  ASSERT_TRUE(simdata::WriteStudyWithPhenotype(
                  dfs, paths, dataset, stats::Phenotype::Gaussian(expression))
                  .ok());

  engine::EngineContext ctx(LocalOptions(), &dfs);
  auto opened = SkatPipeline::Open(ctx, paths, {});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened.value().phenotype().model, stats::ScoreModel::kGaussian);
  const SetScores from_dfs = opened.value().ComputeObserved();

  engine::EngineContext ctx2(LocalOptions());
  std::vector<simdata::SnpRecord> records;
  for (std::uint32_t j = 0; j < dataset.genotypes.num_snps(); ++j) {
    records.push_back({j, dataset.genotypes.by_snp[j]});
  }
  SkatPipeline in_memory(ctx2, {}, engine::Parallelize(ctx2, records, 4),
                         stats::Phenotype::Gaussian(expression),
                         dataset.weights, dataset.sets);
  const SetScores expected = in_memory.ComputeObserved();
  for (const auto& [set_id, score] : expected) {
    EXPECT_NEAR(from_dfs.at(set_id), score, 1e-9 * (1.0 + score));
  }
}

TEST(SkatPipelineTest, FaithfulAndFastScoresAgree) {
  // The paper-faithful O(n²) Cox evaluation and the O(n) suffix-sum path
  // must produce identical set scores through the whole pipeline.
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx_fast(LocalOptions());
  engine::EngineContext ctx_faithful(LocalOptions());
  PipelineConfig fast;
  fast.paper_faithful_scores = false;
  PipelineConfig faithful;
  faithful.paper_faithful_scores = true;
  const SetScores a =
      SkatPipeline::FromMemory(ctx_fast, dataset, fast).ComputeObserved();
  const SetScores b = SkatPipeline::FromMemory(ctx_faithful, dataset, faithful)
                          .ComputeObserved();
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [set_id, score] : a) {
    EXPECT_NEAR(b.at(set_id), score, 1e-9 * (1.0 + score));
  }
}

TEST(SkatPipelineTest, GaussianModelPipeline) {
  // eQTL-style quantitative phenotype through the same dataflow.
  simdata::SyntheticDataset dataset = SmallDataset();
  stats::QuantitativeData expression;
  for (std::size_t i = 0; i < dataset.survival.n(); ++i) {
    expression.value.push_back(static_cast<double>(i % 7));
  }
  std::vector<simdata::SnpRecord> records;
  for (std::uint32_t j = 0; j < dataset.genotypes.num_snps(); ++j) {
    records.push_back({j, dataset.genotypes.by_snp[j]});
  }
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline(ctx, {},
                        engine::Parallelize(ctx, records, 4),
                        stats::Phenotype::Gaussian(expression),
                        dataset.weights, dataset.sets);
  const SetScores observed = pipeline.ComputeObserved();

  // Cross-check one set against direct computation.
  stats::ScoreEngine engine(stats::Phenotype::Gaussian(expression));
  double expected = 0.0;
  for (std::uint32_t snp : dataset.sets[1].snps) {
    const auto u = engine.Contributions(dataset.genotypes.by_snp[snp]);
    double score = 0.0;
    for (double v : u) score += v;
    expected += dataset.weights[snp] * dataset.weights[snp] * score * score;
  }
  EXPECT_NEAR(observed.at(1), expected, 1e-9);
}

}  // namespace
}  // namespace ss::core
