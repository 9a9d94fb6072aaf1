// Distributed SKAT-O: cross-checks the pipeline's per-set (SKAT, burden)
// pairs against direct computation and exercises the resampling driver.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/record_traits.hpp"
#include "core/sparkscore.hpp"
#include "stats/burden.hpp"
#include "stats/resampling.hpp"
#include "support/distributions.hpp"

namespace ss::core {
namespace {

simdata::SyntheticDataset SmallDataset(std::uint64_t seed = 61) {
  simdata::GeneratorConfig config;
  config.num_patients = 60;
  config.num_snps = 40;
  config.num_sets = 5;
  config.seed = seed;
  return simdata::Generate(config);
}

engine::EngineContext::Options LocalOptions() {
  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(2);
  options.physical_threads = 4;
  return options;
}

/// Direct (SKAT, burden) pair for one set.
std::pair<double, double> DirectPair(const simdata::SyntheticDataset& dataset,
                                     const stats::SnpSet& set) {
  stats::ScoreEngine engine(stats::Phenotype::Cox(dataset.survival));
  double skat = 0.0;
  double weighted_sum = 0.0;
  for (std::uint32_t snp : set.snps) {
    const auto u = engine.Contributions(dataset.genotypes.by_snp[snp]);
    const double score = std::accumulate(u.begin(), u.end(), 0.0);
    const double w = dataset.weights[snp];
    skat += w * w * score * score;
    weighted_sum += w * score;
  }
  return {skat, weighted_sum * weighted_sum};
}

TEST(SkatOPipelineTest, ObservedPairMatchesDirect) {
  // The driver folds the observed pair from a count-1 genotype score
  // block of the coefficients v, never from U.
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  PipelineConfig config;
  config.num_partitions = 4;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  const SkatOResult result =
      RunResampling(pipeline, {ResamplingMethod::kSkatO, 9}).skato;
  ASSERT_EQ(result.by_set.size(), dataset.sets.size());
  for (const stats::SnpSet& set : dataset.sets) {
    const auto [skat, burden] = DirectPair(dataset, set);
    EXPECT_NEAR(result.by_set.at(set.id).skat, skat, 1e-9) << "set " << set.id;
    EXPECT_NEAR(result.by_set.at(set.id).burden, burden, 1e-9)
        << "set " << set.id;
  }
  // Only the packed genotype partitions were cached: no U was built.
  EXPECT_EQ(ctx.cache().stats().insertions, config.num_partitions);
}

TEST(SkatOPipelineTest, SkatComponentMatchesComputeObserved) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  const SkatOResult result =
      RunResampling(pipeline, {ResamplingMethod::kSkatO, 9}).skato;
  const SetScores skat_only = pipeline.ComputeObserved();
  for (const auto& [set_id, score] : skat_only) {
    EXPECT_NEAR(result.by_set.at(set_id).skat, score, 1e-9);
  }
}

TEST(SkatOPipelineTest, ReplicatePairMatchesDirect) {
  // Replicate 0's V(z) block scored against the genotypes, as the SKAT-O
  // driver scores its replicate pool, against Σ_i z_i U_ij per SNP.
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  PipelineConfig config;
  config.seed = 91;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);

  stats::ScoreEngine engine(stats::Phenotype::Cox(dataset.survival));
  const auto block = pipeline.ComputeGenotypeScoreBlock(
      stats::MonteCarloCoefficientBlock(config.seed, engine, 0, 1), 1,
      engine.MultiplierColumnsSumToZero());
  const stats::MonteCarloWeights weights(config.seed, dataset.survival.n(), 1);
  for (const stats::SnpSet& set : dataset.sets) {
    double skat = 0.0;
    double weighted_sum = 0.0;
    double direct_skat = 0.0;
    double direct_sum = 0.0;
    for (std::uint32_t snp : set.snps) {
      const double w = dataset.weights[snp];
      const double score = block.at(snp)[0];
      skat += w * w * score * score;
      weighted_sum += w * score;
      const auto u = engine.Contributions(dataset.genotypes.by_snp[snp]);
      const double direct = stats::MonteCarloReplicateScore(u, weights.Get(0));
      direct_skat += w * w * direct * direct;
      direct_sum += w * direct;
    }
    EXPECT_NEAR(skat, direct_skat, 1e-9) << "set " << set.id;
    EXPECT_NEAR(weighted_sum * weighted_sum, direct_sum * direct_sum, 1e-9)
        << "set " << set.id;
  }
}

TEST(SkatOMethodTest, PValuesInRangeAndRanked) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  const SkatOResult result = RunResampling(pipeline, {ResamplingMethod::kSkatO, 49}).skato;
  EXPECT_EQ(result.replicates, 49u);
  ASSERT_EQ(result.by_set.size(), dataset.sets.size());
  for (const auto& [set_id, per_set] : result.by_set) {
    EXPECT_GE(per_set.skat, 0.0);
    EXPECT_GE(per_set.burden, 0.0);
    EXPECT_GT(per_set.pvalue, 0.0);
    EXPECT_LE(per_set.pvalue, 1.0);
  }
  const auto ranked = result.RankedPValues();
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].second, ranked[i].second);
  }
}

TEST(SkatOMethodTest, DeterministicInSeed) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  PipelineConfig config;
  config.seed = 13;
  engine::EngineContext ctx1(LocalOptions());
  engine::EngineContext ctx2(LocalOptions());
  SkatPipeline p1 = SkatPipeline::FromMemory(ctx1, dataset, config);
  SkatPipeline p2 = SkatPipeline::FromMemory(ctx2, dataset, config);
  const SkatOResult a = RunResampling(p1, {ResamplingMethod::kSkatO, 20}).skato;
  const SkatOResult b = RunResampling(p2, {ResamplingMethod::kSkatO, 20}).skato;
  for (const auto& [set_id, per_set] : a.by_set) {
    EXPECT_DOUBLE_EQ(per_set.pvalue, b.by_set.at(set_id).pvalue);
  }
}

TEST(SkatOMethodTest, DetectsAlignedBurdenSignal) {
  // Plant aligned positive effects in one set's SNPs by rebuilding the
  // survival times so carriers fail earlier on all member SNPs.
  simdata::SyntheticDataset dataset = SmallDataset(62);
  const stats::SnpSet& target = dataset.sets[2];
  const std::size_t causal = std::min<std::size_t>(3, target.snps.size());
  Rng rng(17);
  for (std::size_t i = 0; i < dataset.survival.n(); ++i) {
    double dosage = 0.0;
    for (std::size_t c = 0; c < causal; ++c) {
      dosage += dataset.genotypes.by_snp[target.snps[c]][i];
    }
    dataset.survival.time[i] =
        SampleExponential(rng, (1.0 / 12.0) * std::exp(0.9 * dosage));
    dataset.survival.event[i] = SampleBernoulli(rng, 0.85) ? 1 : 0;
  }
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  const SkatOResult result = RunResampling(pipeline, {ResamplingMethod::kSkatO, 99}).skato;
  EXPECT_EQ(result.RankedPValues().front().first, target.id);
}

}  // namespace
}  // namespace ss::core
