#include "core/resampling_methods.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "core/record_traits.hpp"
#include "simdata/generator.hpp"
#include "stats/cox_score.hpp"
#include "stats/distributions_math.hpp"
#include "stats/resampling.hpp"
#include "support/distributions.hpp"

namespace ss::core {
namespace {

engine::EngineContext::Options LocalOptions(std::size_t threads = 4) {
  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(2);
  options.physical_threads = threads;
  return options;
}

struct Fixture {
  simdata::SyntheticDataset dataset;

  explicit Fixture(std::uint64_t seed = 55, std::uint32_t snps = 40,
                   std::uint32_t patients = 80) {
    simdata::GeneratorConfig config;
    config.num_patients = patients;
    config.num_snps = snps;
    config.num_sets = 4;
    config.seed = seed;
    dataset = simdata::Generate(config);
  }

  std::vector<simdata::SnpRecord> Records() const {
    std::vector<simdata::SnpRecord> records;
    for (std::uint32_t j = 0; j < dataset.genotypes.num_snps(); ++j) {
      records.push_back({j, dataset.genotypes.by_snp[j]});
    }
    return records;
  }
};

/// The pipeline over the fixture's genotypes, weights and sets, scored
/// against `phenotype`, over `partitions` in-memory partitions.
SkatPipeline Pipeline(engine::EngineContext& ctx, const Fixture& f,
                      stats::Phenotype phenotype,
                      std::uint32_t partitions = 4) {
  PipelineConfig config;
  config.num_partitions = partitions;
  return SkatPipeline(ctx, config,
                      engine::Parallelize(ctx, f.Records(), partitions),
                      std::move(phenotype), f.dataset.weights, f.dataset.sets);
}

VariantScanResult Scan(SkatPipeline& pipeline, std::uint64_t replicates,
                       std::uint64_t batch_size = 0,
                       std::optional<std::uint64_t> seed = std::nullopt) {
  ResamplingRequest request(ResamplingMethod::kVariantScan, replicates);
  request.batch_size = batch_size;
  request.seed = seed;
  return RunResampling(pipeline, request).scan;
}

stats::Phenotype GaussianTrait(std::size_t n) {
  stats::QuantitativeData expression;
  for (std::size_t i = 0; i < n; ++i) {
    expression.value.push_back(static_cast<double>(i % 9));
  }
  return stats::Phenotype::Gaussian(std::move(expression));
}

bool IsConstant(const std::vector<std::uint8_t>& g) {
  return std::adjacent_find(g.begin(), g.end(), std::not_equal_to<>()) ==
         g.end();
}

/// The scan's serial factored oracle, its counterpart of
/// baseline::SerialMonteCarloFactored: observed U_j and V_j summed over the
/// contributions in ascending patient order (U_j = 0 for a constant
/// column), and replicate b's score a plain ascending-patient dot of g_j
/// with V(z_b) from stats::MonteCarloCoefficientBlock, 0 for a constant
/// column where the block's columns sum to zero.
struct SerialScan {
  std::vector<double> statistic;
  std::vector<std::uint64_t> exceed;
  std::vector<double> replicate_max;
};

SerialScan SerialFactoredScan(const simdata::GenotypeMatrix& genotypes,
                              const stats::Phenotype& phenotype,
                              std::uint64_t seed, std::uint64_t replicates) {
  const stats::ScoreEngine engine(phenotype);
  const bool zero_sum_columns = engine.MultiplierColumnsSumToZero();
  const std::uint32_t m = genotypes.num_snps();
  SerialScan scan;
  std::vector<double> variance(m, 0.0);
  for (std::uint32_t j = 0; j < m; ++j) {
    const std::vector<std::uint8_t>& g = genotypes.by_snp[j];
    double score = 0.0;
    for (double u : engine.Contributions(g)) {
      score += u;
      variance[j] += u * u;
    }
    if (IsConstant(g)) score = 0.0;
    scan.statistic.push_back(variance[j] > 0.0 ? score * score / variance[j]
                                               : 0.0);
  }
  scan.exceed.assign(m, 0);
  for (std::uint64_t b = 0; b < replicates; ++b) {
    const std::vector<double> v =
        stats::MonteCarloCoefficientBlock(seed, engine, b, 1);
    double max_stat = 0.0;
    for (std::uint32_t j = 0; j < m; ++j) {
      const std::vector<std::uint8_t>& g = genotypes.by_snp[j];
      double s = 0.0;
      if (!zero_sum_columns || !IsConstant(g)) {
        for (std::size_t l = 0; l < g.size(); ++l) {
          s += v[l] * static_cast<double>(g[l]);
        }
      }
      const double t = variance[j] > 0.0 ? s * s / variance[j] : 0.0;
      if (t >= scan.statistic[j]) ++scan.exceed[j];
      max_stat = std::max(max_stat, t);
    }
    scan.replicate_max.push_back(max_stat);
  }
  return scan;
}

TEST(VariantScanTest, ObservedMatchesDirectComputation) {
  Fixture f;
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline =
      Pipeline(ctx, f, stats::Phenotype::Cox(f.dataset.survival));
  const VariantScanResult result = Scan(pipeline, 0);

  ASSERT_EQ(result.stats.size(), 40u);
  const stats::RiskSetIndex index(f.dataset.survival);
  for (std::uint32_t j = 0; j < 40; ++j) {
    ASSERT_EQ(result.snps[j], j);
    const auto u = stats::CoxScoreContributions(f.dataset.survival, index,
                                                f.dataset.genotypes.by_snp[j]);
    const double score = stats::CoxScoreStatistic(u);
    const double variance = stats::CoxScoreVariance(u);
    const VariantStats& got = result.stats.at(j);
    EXPECT_NEAR(got.score, score, 1e-9);
    EXPECT_NEAR(got.variance, variance, 1e-9);
    EXPECT_NEAR(got.asymptotic_p, stats::ScoreTestPValue(score, variance),
                1e-12);
  }
}

TEST(VariantScanTest, EmpiricalPValuesCalibratedUnderNull) {
  // Under the null, empirical and asymptotic p-values should broadly
  // agree; check means are both unremarkable.
  Fixture f(77, 30, 120);
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline =
      Pipeline(ctx, f, stats::Phenotype::Cox(f.dataset.survival));
  const VariantScanResult result = Scan(pipeline, 99);

  ASSERT_EQ(result.stats.size(), 30u);
  double sum_emp = 0.0;
  for (std::size_t i = 0; i < 30; ++i) {
    const double p = result.EmpiricalP(i);
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, 1.0);
    sum_emp += p;
  }
  EXPECT_GT(sum_emp / 30.0, 0.25);
  EXPECT_LT(sum_emp / 30.0, 0.75);
}

TEST(VariantScanTest, MaxTAdjustmentIsMoreConservative) {
  Fixture f(78, 25, 100);
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline =
      Pipeline(ctx, f, stats::Phenotype::Cox(f.dataset.survival));
  const VariantScanResult result = Scan(pipeline, 49);
  ASSERT_EQ(result.stats.size(), 25u);
  for (std::size_t i = 0; i < 25; ++i) {
    EXPECT_GE(result.MaxTAdjustedP(i) + 1e-12, result.EmpiricalP(i));
  }
  EXPECT_EQ(result.replicate_max.size(), 49u);
}

TEST(VariantScanTest, PlantedSignalRanksFirst) {
  Fixture f(79, 30, 300);
  // Rebuild survival with a strong effect of SNP 5.
  Rng rng(99);
  for (std::uint32_t i = 0; i < 300; ++i) {
    const double g = f.dataset.genotypes.by_snp[5][i];
    f.dataset.survival.time[i] =
        SampleExponential(rng, (1.0 / 12.0) * std::exp(1.0 * g));
    f.dataset.survival.event[i] = SampleBernoulli(rng, 0.85) ? 1 : 0;
  }
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline =
      Pipeline(ctx, f, stats::Phenotype::Cox(f.dataset.survival));
  const VariantScanResult result = Scan(pipeline, 99);
  const std::size_t top = result.RankedByAsymptoticP().front();
  EXPECT_EQ(result.snps[top], 5u);
  EXPECT_LT(result.stats[top].asymptotic_p, 1e-4);
  EXPECT_LE(result.MaxTAdjustedP(top), 0.05);
}

TEST(VariantScanTest, DeterministicInSeed) {
  Fixture f;
  engine::EngineContext ctx1(LocalOptions());
  engine::EngineContext ctx2(LocalOptions());
  SkatPipeline p1 =
      Pipeline(ctx1, f, stats::Phenotype::Cox(f.dataset.survival), 4);
  SkatPipeline p2 = Pipeline(ctx2, f, stats::Phenotype::Cox(f.dataset.survival),
                             3);  // different partitioning
  const VariantScanResult a = Scan(p1, 20, 0, 123);
  const VariantScanResult b = Scan(p2, 20, 0, 123);
  EXPECT_EQ(a.snps, b.snps);
  EXPECT_EQ(a.exceed, b.exceed);
  EXPECT_EQ(a.replicate_max, b.replicate_max);
}

TEST(VariantScanTest, GaussianPhenotypeSupported) {
  Fixture f(81, 20, 100);
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = Pipeline(ctx, f, GaussianTrait(100));
  const VariantScanResult result = Scan(pipeline, 10);
  EXPECT_EQ(result.stats.size(), 20u);
  EXPECT_EQ(result.replicate_max.size(), 10u);
}

TEST(VariantScanTest, CachesOnlyPackedGenotypesAndMakesOnePassPerBatch) {
  // No contribution partitions are built or cached: the only cache
  // insertions are the 4 packed genotype partitions, and the scan makes
  // one observed pass plus one pass per batch of ⌈15/4⌉ = 4.
  Fixture f;
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline =
      Pipeline(ctx, f, stats::Phenotype::Cox(f.dataset.survival), 4);
  Scan(pipeline, 15, 4);
  EXPECT_EQ(ctx.cache().stats().insertions, 4u);
  const auto stages = ctx.metrics().stages();
  ASSERT_EQ(stages.size(), 1u + 4u);
  EXPECT_EQ(stages.front().label, "collect-variant-moments");
  for (std::size_t s = 1; s < stages.size(); ++s) {
    EXPECT_EQ(stages[s].label, "collect-score-block") << "stage " << s;
  }
}

TEST(VariantScanTest, ZeroReplicatesReportObservedStatisticsOnly) {
  Fixture f;
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline =
      Pipeline(ctx, f, stats::Phenotype::Cox(f.dataset.survival));
  const VariantScanResult result = Scan(pipeline, 0);
  EXPECT_EQ(result.stats.size(), 40u);
  EXPECT_TRUE(result.replicate_max.empty());
  EXPECT_EQ(result.exceed, std::vector<std::uint64_t>(40, 0));
  EXPECT_EQ(ctx.metrics().stages().size(), 1u);
  EXPECT_EQ(result.EmpiricalP(0), 1.0);
  EXPECT_EQ(result.MaxTAdjustedP(0), 1.0);
}

TEST(VariantScanTest, MonomorphicSnpsReportNoEvidence) {
  // An all-0 and an all-2 column score no evidence under every model,
  // including Gaussian, whose replicates still score them non-zero.
  Fixture f(83, 30, 100);
  std::fill(f.dataset.genotypes.by_snp[3].begin(),
            f.dataset.genotypes.by_snp[3].end(), 0);
  std::fill(f.dataset.genotypes.by_snp[11].begin(),
            f.dataset.genotypes.by_snp[11].end(), 2);
  for (const bool gaussian : {false, true}) {
    engine::EngineContext ctx(LocalOptions());
    SkatPipeline pipeline =
        Pipeline(ctx, f,
                 gaussian ? GaussianTrait(100)
                          : stats::Phenotype::Cox(f.dataset.survival));
    const VariantScanResult result = Scan(pipeline, 19);
    ASSERT_EQ(result.snps.size(), 30u);
    for (std::size_t i : {std::size_t{3}, std::size_t{11}}) {
      ASSERT_EQ(result.snps[i], i);
      const std::string cell =
          std::string(gaussian ? "gaussian" : "cox") + " SNP " +
          std::to_string(i);
      EXPECT_EQ(result.stats[i].score, 0.0) << cell;
      EXPECT_EQ(result.stats[i].statistic, 0.0) << cell;
      EXPECT_EQ(result.stats[i].asymptotic_p, 1.0) << cell;
      EXPECT_EQ(result.EmpiricalP(i), 1.0) << cell;
      EXPECT_EQ(result.MaxTAdjustedP(i), 1.0) << cell;
    }
  }
}

TEST(VariantScanTest, MatchesSerialFactoredOracleBitwise) {
  // Counts and maxima equal the serial oracle's across threads × batch ×
  // partitions, for Cox (V(z) columns sum to zero) and Gaussian (they do
  // not). Two planted constant columns exercise the constant-column rule.
  Fixture f(91, 40, 80);
  std::fill(f.dataset.genotypes.by_snp[0].begin(),
            f.dataset.genotypes.by_snp[0].end(), 0);
  std::fill(f.dataset.genotypes.by_snp[7].begin(),
            f.dataset.genotypes.by_snp[7].end(), 2);
  constexpr std::uint64_t kReplicates = 23;
  constexpr std::uint64_t kSeed = 606;
  for (const bool gaussian : {false, true}) {
    const stats::Phenotype phenotype =
        gaussian ? GaussianTrait(80) : stats::Phenotype::Cox(f.dataset.survival);
    const SerialScan oracle =
        SerialFactoredScan(f.dataset.genotypes, phenotype, kSeed, kReplicates);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (std::uint64_t batch : {1u, 7u, 64u}) {
        for (std::uint32_t partitions : {3u, 4u}) {
          const std::string cell =
              std::string(gaussian ? "gaussian" : "cox") +
              " threads=" + std::to_string(threads) +
              " batch=" + std::to_string(batch) +
              " partitions=" + std::to_string(partitions);
          engine::EngineContext ctx(LocalOptions(threads));
          SkatPipeline pipeline = Pipeline(ctx, f, phenotype, partitions);
          const VariantScanResult scan =
              Scan(pipeline, kReplicates, batch, kSeed);
          ASSERT_EQ(scan.stats.size(), oracle.statistic.size()) << cell;
          for (std::size_t i = 0; i < scan.stats.size(); ++i) {
            EXPECT_EQ(scan.stats[i].statistic, oracle.statistic[i])
                << cell << " SNP " << i;
          }
          EXPECT_EQ(scan.exceed, oracle.exceed) << cell;
          EXPECT_EQ(scan.replicate_max, oracle.replicate_max) << cell;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ss::core
