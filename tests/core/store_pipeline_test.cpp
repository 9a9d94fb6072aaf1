// Store-backed pipeline semantics: OpenFromStore must be a drop-in,
// bitwise-equal replacement for the in-memory (unlimited and
// budget-constrained) paths — pinned via the order-independent
// `resampling.result_hash` across threads {1,4} — and the store file must
// behave as the genotype dataset's durable tier: reopened without
// re-staging, refused on fingerprint mismatch, and re-read (not
// recomputed from text) after an eviction drop.
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/resampling_methods.hpp"
#include "dfs/genotype_store.hpp"
#include "engine/trace.hpp"
#include "simdata/store_codec.hpp"
#include "stats/resampling.hpp"

namespace ss::core {
namespace {

simdata::GeneratorConfig StudyConfig() {
  simdata::GeneratorConfig config;
  config.num_patients = 40;
  config.num_snps = 60;
  config.num_sets = 6;
  config.seed = 99;
  return config;
}

std::string StorePath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

/// Stages StudyConfig() at `partitions` partitions (once per file name).
std::string StageStore(const std::string& name, std::uint32_t partitions) {
  const std::string path = StorePath(name);
  auto staged = simdata::GenerateToStore(StudyConfig(), path, partitions);
  EXPECT_TRUE(staged.ok()) << staged.status().ToString();
  return path;
}

engine::EngineContext::Options LocalOptions(std::size_t threads = 4) {
  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(3);
  options.physical_threads = threads;
  options.seed = 99;
  return options;
}

PipelineConfig StudyPipelineConfig() {
  PipelineConfig config;
  config.seed = 99;
  config.num_partitions = 4;  // 60 SNPs / 4 = 15 rows, exactly 4 frames
  config.num_reducers = 4;
  return config;
}

std::uint64_t Counter(const char* name) {
  return engine::CounterRegistry::Global().Get(name).load();
}

/// One resampling run; returns its `resampling.result_hash` contribution.
std::uint64_t ResamplingHash(SkatPipeline& pipeline, ResamplingMethod method) {
  const std::uint64_t before = Counter("resampling.result_hash");
  RunResampling(pipeline, {method, 16});
  return Counter("resampling.result_hash") - before;
}

TEST(StorePipelineTest, ObservedScoresBitwiseEqualInMemory) {
  const std::string path = StageStore("ss_store_observed.ssg", 4);
  engine::EngineContext store_ctx(LocalOptions());
  auto opened = SkatPipeline::OpenFromStore(store_ctx, path,
                                            StudyPipelineConfig());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const SetScores from_store = opened.value().ComputeObserved();

  engine::EngineContext mem_ctx(LocalOptions());
  SkatPipeline in_memory = SkatPipeline::FromMemory(
      mem_ctx, simdata::Generate(StudyConfig()), StudyPipelineConfig());
  const SetScores expected = in_memory.ComputeObserved();
  ASSERT_EQ(from_store.size(), expected.size());
  for (const auto& [set_id, score] : expected) {
    ASSERT_TRUE(from_store.contains(set_id));
    EXPECT_EQ(from_store.at(set_id), score) << "set " << set_id;  // bitwise
  }
}

TEST(StorePipelineTest, ScoreBlockRowsBitwiseEqualInMemory) {
  // The flat score block of a store-backed pass (one partition per frame)
  // and of an in-memory pass over 8 partitions hold bitwise-equal rows
  // for every SNP, with and without a live-SNP filter.
  const std::string path = StageStore("ss_store_score_block.ssg", 4);
  engine::EngineContext store_ctx(LocalOptions());
  auto opened = SkatPipeline::OpenFromStore(store_ctx, path,
                                            StudyPipelineConfig());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  SkatPipeline& from_store = opened.value();

  engine::EngineContext mem_ctx(LocalOptions());
  PipelineConfig config = StudyPipelineConfig();
  config.num_partitions = 8;
  const simdata::SyntheticDataset dataset = simdata::Generate(StudyConfig());
  SkatPipeline in_memory = SkatPipeline::FromMemory(mem_ctx, dataset, config);

  const stats::ScoreEngine engine(in_memory.phenotype());
  constexpr std::size_t kCount = 5;
  const std::vector<double> vblock =
      stats::MonteCarloCoefficientBlock(99, engine, 0, kCount);
  auto live = std::make_shared<std::unordered_set<std::uint32_t>>(
      dataset.sets.front().snps.begin(), dataset.sets.front().snps.end());
  for (const bool filtered : {false, true}) {
    std::shared_ptr<const std::unordered_set<std::uint32_t>> live_snps;
    if (filtered) live_snps = live;
    const ScoreBlock store_block = from_store.ComputeGenotypeScoreBlock(
        vblock, kCount, engine.MultiplierColumnsSumToZero(), live_snps);
    const ScoreBlock memory_block = in_memory.ComputeGenotypeScoreBlock(
        vblock, kCount, engine.MultiplierColumnsSumToZero(), live_snps);
    ASSERT_EQ(store_block.count(), kCount);
    ASSERT_EQ(memory_block.count(), kCount);
    EXPECT_EQ(store_block.size(),
              filtered ? live->size() : std::size_t{dataset.genotypes.num_snps()});
    EXPECT_EQ(store_block.size(), memory_block.size());
    for (std::uint32_t snp = 0; snp < dataset.genotypes.num_snps() + 2; ++snp) {
      const double* store_row = store_block.row(snp);
      const double* memory_row = memory_block.row(snp);
      const bool scored = snp < dataset.genotypes.num_snps() &&
                          (!filtered || live->count(snp) != 0);
      ASSERT_EQ(store_row != nullptr, scored) << "SNP " << snp;
      ASSERT_EQ(memory_row != nullptr, scored) << "SNP " << snp;
      if (!scored) continue;
      EXPECT_EQ(std::memcmp(store_row, memory_row, kCount * sizeof(double)), 0)
          << "SNP " << snp << (filtered ? " (filtered)" : "");
    }
  }
}

TEST(StorePipelineTest, OpenRejectsRepeatedSetId) {
  // A store whose SNP-set frame repeats an id is refused with the id named.
  const simdata::SyntheticDataset dataset = simdata::Generate(StudyConfig());
  const std::string path = StorePath("ss_store_repeated_sets.ssg");
  dfs::GenotypeStoreMeta meta;
  meta.num_partitions = 1;
  meta.num_snps = dataset.genotypes.num_snps();
  meta.num_patients = dataset.survival.n();
  auto writer_or = dfs::GenotypeStoreWriter::Create(path, meta);
  ASSERT_TRUE(writer_or.ok()) << writer_or.status().ToString();
  dfs::GenotypeStoreWriter& writer = *writer_or.value();
  ASSERT_TRUE(writer
                  .Append(dfs::StoreFrameKind::kPhenotype, 0,
                          simdata::EncodeTextLines(simdata::FormatPhenotypeFile(
                              stats::Phenotype::Cox(dataset.survival))))
                  .ok());
  std::vector<stats::PackedSnpRecord> records;
  std::vector<std::string> weights;
  for (std::uint32_t snp = 0; snp < dataset.genotypes.num_snps(); ++snp) {
    records.push_back({snp, stats::PackedGenotypeBlock::Pack(
                                dataset.genotypes.by_snp[snp])});
    weights.push_back(simdata::FormatWeight({snp, dataset.weights[snp]}));
  }
  ASSERT_TRUE(writer
                  .Append(dfs::StoreFrameKind::kGenotypes, 0,
                          simdata::EncodeGenotypePartition(records))
                  .ok());
  ASSERT_TRUE(writer
                  .Append(dfs::StoreFrameKind::kWeights, 0,
                          simdata::EncodeTextLines(weights))
                  .ok());
  std::vector<std::string> sets;
  for (const stats::SnpSet& set : dataset.sets) {
    sets.push_back(simdata::FormatSnpSet(set));
  }
  sets.push_back(simdata::FormatSnpSet({dataset.sets[2].id, {0}}));
  ASSERT_TRUE(writer
                  .Append(dfs::StoreFrameKind::kSets, 0,
                          simdata::EncodeTextLines(sets))
                  .ok());
  ASSERT_TRUE(writer.Append(dfs::StoreFrameKind::kDescription, 0, {'x'}).ok());
  ASSERT_TRUE(writer.Finish().ok());

  engine::EngineContext ctx(LocalOptions());
  auto opened = SkatPipeline::OpenFromStore(ctx, path, StudyPipelineConfig());
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find(
                "SNP-set id " + std::to_string(dataset.sets[2].id)),
            std::string::npos)
      << opened.status().ToString();
}

TEST(StorePipelineTest, ResultHashInvariantAcrossBackingsAndThreads) {
  // The differential matrix: {in-memory, tight-budget, store-backed} x
  // threads {1,4}, one hash per resampling method.
  // Both methods score the genotype partitions themselves (packed frames
  // off the mmap when store-backed) against coefficient blocks.
  const std::string path = StageStore("ss_store_differential.ssg", 4);
  const simdata::GeneratorConfig generator = StudyConfig();
  for (ResamplingMethod method :
       {ResamplingMethod::kMonteCarlo, ResamplingMethod::kPermutation}) {
    std::uint64_t golden = 0;
    bool have_golden = false;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const std::string cell =
          std::string(method == ResamplingMethod::kMonteCarlo ? "mc"
                                                              : "perm") +
          " threads=" + std::to_string(threads);
      std::vector<std::uint64_t> hashes;

      {  // In-memory, unlimited budget.
        engine::EngineContext ctx(LocalOptions(threads));
        SkatPipeline pipeline = SkatPipeline::FromMemory(
            ctx, simdata::Generate(generator), StudyPipelineConfig());
        hashes.push_back(ResamplingHash(pipeline, method));
      }
      {  // In-memory under a budget small enough to churn the cache.
        engine::EngineContext::Options options = LocalOptions(threads);
        options.cache_capacity_bytes = 6000;
        engine::EngineContext ctx(options);
        SkatPipeline pipeline = SkatPipeline::FromMemory(
            ctx, simdata::Generate(generator), StudyPipelineConfig());
        hashes.push_back(ResamplingHash(pipeline, method));
      }
      {  // Store-backed under the same tight budget (drop-on-evict path).
        engine::EngineContext ctx(LocalOptions(threads));
        PipelineConfig config = StudyPipelineConfig();
        config.cache_budget_bytes = 6000;
        auto opened = SkatPipeline::OpenFromStore(
            ctx, path, config, simdata::StoreFingerprint(generator));
        ASSERT_TRUE(opened.ok())
            << cell << ": " << opened.status().ToString();
        hashes.push_back(ResamplingHash(opened.value(), method));
      }

      for (std::uint64_t hash : hashes) {
        if (!have_golden) {
          golden = hash;
          have_golden = true;
        }
        EXPECT_EQ(hash, golden) << cell;
      }
    }
  }
}

TEST(StorePipelineTest, ReopenServesPartitionsWithoutRestaging) {
  // Satellite: a "second process" (fresh context) reopens the store and
  // reloads partitions checksum-verified — zero re-staging writes, all
  // genotype bytes served from the existing file.
  const std::string path = StageStore("ss_store_reopen_run.ssg", 4);
  const std::uint64_t writes_after_staging = Counter("store.frame_writes");

  SetScores first;
  {
    engine::EngineContext ctx(LocalOptions());
    auto opened = SkatPipeline::OpenFromStore(ctx, path, StudyPipelineConfig());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    first = opened.value().ComputeObserved();
  }
  const std::uint64_t reads_before = Counter("store.frame_reads");
  {
    engine::EngineContext ctx(LocalOptions());
    auto reopened =
        SkatPipeline::OpenFromStore(ctx, path, StudyPipelineConfig());
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    const SetScores second = reopened.value().ComputeObserved();
    ASSERT_EQ(second.size(), first.size());
    for (const auto& [set_id, score] : first) {
      EXPECT_EQ(second.at(set_id), score) << "set " << set_id;
    }
  }
  // The reopen read real frames (aux + genotype partitions)...
  EXPECT_GE(Counter("store.frame_reads"), reads_before + 4u + 4u);
  // ...and wrote none: reopening never silently re-stages.
  EXPECT_EQ(Counter("store.frame_writes"), writes_after_staging);
}

TEST(StorePipelineTest, FingerprintMismatchRefusedWithDiagnostic) {
  const std::string path = StageStore("ss_store_mismatch.ssg", 4);
  const std::uint64_t writes_before = Counter("store.frame_writes");
  engine::EngineContext ctx(LocalOptions());
  const std::uint64_t staged = simdata::StoreFingerprint(StudyConfig());
  auto opened = SkatPipeline::OpenFromStore(ctx, path, StudyPipelineConfig(),
                                            staged + 1);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  const std::string diagnostic = opened.status().ToString();
  // Clear refusal: names both fingerprints and the staged provenance.
  EXPECT_NE(diagnostic.find(std::to_string(staged)), std::string::npos)
      << diagnostic;
  EXPECT_NE(diagnostic.find(std::to_string(staged + 1)), std::string::npos)
      << diagnostic;
  EXPECT_NE(diagnostic.find(simdata::StoreFingerprintText(StudyConfig())),
            std::string::npos)
      << diagnostic;
  // No silent re-ingest: the mismatch wrote nothing.
  EXPECT_EQ(Counter("store.frame_writes"), writes_before);

  // The right fingerprint (or none) opens fine.
  EXPECT_TRUE(SkatPipeline::OpenFromStore(ctx, path, StudyPipelineConfig(),
                                          staged)
                  .ok());
}

TEST(StorePipelineTest, EvictionDropsToStoreAndRereadsFrames) {
  // The store is the dataset's durable tier: under an unlimited budget a
  // second pass over the genotypes is pure cache hits (no new frame
  // reads); under a tight budget evicted partitions are DROPPED (no
  // second on-disk copy) and the next pass re-reads their frames.
  const std::string path = StageStore("ss_store_evict.ssg", 4);
  const std::vector<std::uint32_t> identity = [] {
    std::vector<std::uint32_t> perm(StudyConfig().num_patients);
    for (std::uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
    return perm;
  }();

  std::uint64_t unlimited_rereads = 0;
  {
    engine::EngineContext ctx(LocalOptions());
    auto opened = SkatPipeline::OpenFromStore(ctx, path, StudyPipelineConfig());
    ASSERT_TRUE(opened.ok());
    opened.value().ComputeObserved();
    const std::uint64_t after_observed = Counter("store.frame_reads");
    opened.value().ComputePermutationReplicate(identity);
    unlimited_rereads = Counter("store.frame_reads") - after_observed;
    EXPECT_EQ(unlimited_rereads, 0u);  // all four partitions were cached
  }
  {
    engine::EngineContext ctx(LocalOptions());
    PipelineConfig config = StudyPipelineConfig();
    config.cache_budget_bytes = 2000;  // far below one decoded partition set
    auto opened = SkatPipeline::OpenFromStore(ctx, path, config);
    ASSERT_TRUE(opened.ok());
    opened.value().ComputeObserved();
    const std::uint64_t after_observed = Counter("store.frame_reads");
    opened.value().ComputePermutationReplicate(identity);
    // Dropped partitions came back from the mmap.
    EXPECT_GT(Counter("store.frame_reads"), after_observed);
  }
}

}  // namespace
}  // namespace ss::core
