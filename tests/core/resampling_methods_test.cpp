// Algorithms 2/3 end-to-end: exceedance counters, p-values, and exact
// agreement with the serial baseline from identical seeds.
#include "core/resampling_methods.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>

#include "baseline/serial_skat.hpp"
#include "core/record_traits.hpp"
#include "support/distributions.hpp"
#include "support/rng.hpp"

namespace ss::core {
namespace {

simdata::SyntheticDataset SmallDataset(std::uint64_t seed = 44) {
  simdata::GeneratorConfig config;
  config.num_patients = 50;
  config.num_snps = 40;
  config.num_sets = 4;
  config.seed = seed;
  return simdata::Generate(config);
}

engine::EngineContext::Options LocalOptions() {
  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(2);
  options.physical_threads = 4;
  return options;
}

TEST(ResamplingMethodsTest, ZeroReplicatesComputesOnlyObserved) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  const ResamplingResult result = RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, 0}).scores;
  EXPECT_EQ(result.replicates, 0u);
  EXPECT_EQ(result.observed.size(), 4u);
  for (const auto& [set_id, count] : result.exceed) EXPECT_EQ(count, 0u);
}

TEST(ResamplingMethodsTest, MonteCarloMatchesSerialBaselineExactly) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  PipelineConfig config;
  config.seed = 77;
  const baseline::SkatAnalysis serial =
      baseline::SerialMonteCarlo(inputs, config.seed, 25);

  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  const ResamplingResult distributed = RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, 25}).scores;

  for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
    const std::uint32_t id = dataset.sets[k].id;
    EXPECT_NEAR(distributed.observed.at(id), serial.observed[k], 1e-9);
    EXPECT_EQ(distributed.exceed.at(id), serial.exceed_count[k]) << "set " << k;
    EXPECT_DOUBLE_EQ(distributed.PValue(id), serial.PValue(k));
  }
}

TEST(ResamplingMethodsTest, PermutationMatchesSerialBaselineExactly) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  PipelineConfig config;
  config.seed = 78;
  const baseline::SkatAnalysis serial =
      baseline::SerialPermutation(inputs, config.seed, 12);

  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  const ResamplingResult distributed = RunResampling(pipeline, {ResamplingMethod::kPermutation, 12}).scores;

  for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
    const std::uint32_t id = dataset.sets[k].id;
    EXPECT_EQ(distributed.exceed.at(id), serial.exceed_count[k]) << "set " << k;
  }
}

/// Algorithm 2 through the engine with an arbitrary phenotype model,
/// next to the literal serial Algorithm 2 on the same inputs.
void ExpectPermutationMatchesSerial(const simdata::SyntheticDataset& dataset,
                                    const stats::Phenotype& phenotype,
                                    std::uint64_t seed,
                                    std::uint64_t replicates) {
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  const baseline::SkatAnalysis serial =
      baseline::SerialPermutation(inputs, seed, replicates);

  std::vector<simdata::SnpRecord> records;
  for (std::uint32_t j = 0; j < dataset.genotypes.num_snps(); ++j) {
    records.push_back({j, dataset.genotypes.by_snp[j]});
  }
  engine::EngineContext ctx(LocalOptions());
  PipelineConfig config;
  config.seed = seed;
  config.model = phenotype.model;
  config.resampling_batch_size = 8;
  SkatPipeline pipeline(ctx, config, engine::Parallelize(ctx, records, 4),
                        phenotype, dataset.weights, dataset.sets);
  const ResamplingResult distributed =
      RunResampling(pipeline, {ResamplingMethod::kPermutation, replicates})
          .scores;

  for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
    const std::uint32_t id = dataset.sets[k].id;
    EXPECT_NEAR(distributed.observed.at(id), serial.observed[k],
                1e-12 * serial.observed[k])
        << "set " << k;
    EXPECT_EQ(distributed.exceed.at(id), serial.exceed_count[k]) << "set " << k;
  }
}

TEST(ResamplingMethodsTest, GaussianPermutationMatchesSerialBaselineExactly) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  Rng rng(81);
  stats::QuantitativeData expression;
  for (std::size_t i = 0; i < dataset.survival.n(); ++i) {
    expression.value.push_back(1.5 + SampleNormal(rng));
  }
  ExpectPermutationMatchesSerial(
      dataset, stats::Phenotype::Gaussian(expression), 82, 40);
}

TEST(ResamplingMethodsTest, BinomialPermutationMatchesSerialBaselineExactly) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  Rng rng(83);
  stats::BinaryData status;
  for (std::size_t i = 0; i < dataset.survival.n(); ++i) {
    status.value.push_back(rng.NextDouble() < 0.4 ? 1 : 0);
  }
  ExpectPermutationMatchesSerial(dataset, stats::Phenotype::Binomial(status),
                                 84, 40);
}

TEST(ResamplingMethodsTest, MonomorphicSetNeverLosesToItsReplicates) {
  // A constant genotype column has score exactly 0 (its coefficients sum
  // to 0), observed and permuted alike, so a set made only of such SNPs
  // meets its observed statistic in every replicate: exceed = B, p = 1,
  // as in the literal Algorithm 2 where its Cox U vector is exactly 0.
  simdata::SyntheticDataset dataset = SmallDataset();
  const std::uint32_t snp = 3;
  dataset.genotypes.by_snp[snp].assign(dataset.survival.n(), 1);
  std::uint32_t id = 0;
  for (const stats::SnpSet& set : dataset.sets) id = std::max(id, set.id + 1);
  dataset.sets.push_back({id, {snp}});
  const std::uint64_t replicates = 30;

  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  const baseline::SkatAnalysis serial =
      baseline::SerialPermutation(inputs, 85, replicates);
  EXPECT_EQ(serial.exceed_count.back(), replicates);

  engine::EngineContext ctx(LocalOptions());
  PipelineConfig config;
  config.seed = 85;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  const ResamplingResult result =
      RunResampling(pipeline, {ResamplingMethod::kPermutation, replicates})
          .scores;
  EXPECT_EQ(result.observed.at(id), 0.0);
  EXPECT_EQ(result.exceed.at(id), replicates);
  EXPECT_EQ(result.PValue(id), 1.0);
}

TEST(ResamplingMethodsTest, MethodsAgreeOnObservedScores) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx1(LocalOptions());
  engine::EngineContext ctx2(LocalOptions());
  SkatPipeline p1 = SkatPipeline::FromMemory(ctx1, dataset, {});
  SkatPipeline p2 = SkatPipeline::FromMemory(ctx2, dataset, {});
  const ResamplingResult mc = RunResampling(p1, {ResamplingMethod::kMonteCarlo, 3}).scores;
  const ResamplingResult perm = RunResampling(p2, {ResamplingMethod::kPermutation, 3}).scores;
  for (const auto& [set_id, score] : mc.observed) {
    EXPECT_NEAR(score, perm.observed.at(set_id), 1e-9);
  }
}

TEST(ResamplingMethodsTest, SinkInvokedPerReplicate) {
  class RecordingSink final : public ProgressSink {
   public:
    void OnReplicate(std::uint64_t b) override { seen.push_back(b); }
    std::vector<std::uint64_t> seen;
  };
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  RecordingSink sink;
  ResamplingRequest request(ResamplingMethod::kMonteCarlo, 5);
  request.sink = &sink;
  RunResampling(pipeline, request);
  EXPECT_EQ(sink.seen, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(ResamplingMethodsTest, PValuesInUnitInterval) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  const ResamplingResult result = RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, 19}).scores;
  for (const auto& [set_id, score] : result.observed) {
    const double p = result.PValue(set_id);
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(ResamplingMethodsTest, RankedPValuesSortedAscending) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, {});
  const ResamplingResult result = RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, 9}).scores;
  const auto ranked = result.RankedPValues();
  ASSERT_EQ(ranked.size(), 4u);
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].second, ranked[i].second);
  }
}

bool BitEqual(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

void ExpectByteIdentical(const ResamplingResult& a, const ResamplingResult& b) {
  ASSERT_EQ(a.replicates, b.replicates);
  ASSERT_EQ(a.observed.size(), b.observed.size());
  for (const auto& [set_id, score] : a.observed) {
    ASSERT_TRUE(b.observed.count(set_id)) << "set " << set_id;
    EXPECT_TRUE(BitEqual(score, b.observed.at(set_id)))
        << "observed score for set " << set_id << " differs";
  }
  ASSERT_EQ(a.exceed.size(), b.exceed.size());
  for (const auto& [set_id, count] : a.exceed) {
    EXPECT_EQ(count, b.exceed.at(set_id)) << "set " << set_id;
  }
}

/// Fresh context + pipeline per run so no cached state leaks between the
/// configurations under comparison.
ResamplingResult RunWithRequest(const simdata::SyntheticDataset& dataset,
                                const ResamplingRequest& request,
                                std::uint64_t batch_size, std::uint64_t threads,
                                std::uint64_t config_seed = 77) {
  engine::EngineContext::Options options = LocalOptions();
  options.physical_threads = threads;
  engine::EngineContext ctx(options);
  PipelineConfig config;
  config.seed = config_seed;
  config.resampling_batch_size = batch_size;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  return RunResampling(pipeline, request).scores;
}

TEST(ResamplingMethodsTest, MonteCarloBitwiseInvariantToBatchSize) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  ResamplingRequest request;
  request.method = ResamplingMethod::kMonteCarlo;
  request.replicates = 25;
  const ResamplingResult one = RunWithRequest(dataset, request, 1, 4);
  const ResamplingResult seven = RunWithRequest(dataset, request, 7, 4);
  const ResamplingResult big = RunWithRequest(dataset, request, 64, 4);
  ExpectByteIdentical(one, seven);
  ExpectByteIdentical(one, big);
}

TEST(ResamplingMethodsTest, MonteCarloBitwiseInvariantToThreadCount) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  ResamplingRequest request;
  request.method = ResamplingMethod::kMonteCarlo;
  request.replicates = 20;
  request.batch_size = 5;
  ExpectByteIdentical(RunWithRequest(dataset, request, 0, 1),
                      RunWithRequest(dataset, request, 0, 4));
}

TEST(ResamplingMethodsTest, BatchedMonteCarloBitwiseEqualsSerialBaseline) {
  // Bitwise against the factored oracle, which scores genotypes against
  // V(z) as the engine does; the literal U-path oracle agrees within
  // rounding, with the same exceedance counts.
  const simdata::SyntheticDataset dataset = SmallDataset();
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  const baseline::SkatAnalysis factored =
      baseline::SerialMonteCarloFactored(inputs, 77, 25);
  const baseline::SkatAnalysis literal =
      baseline::SerialMonteCarlo(inputs, 77, 25);

  ResamplingRequest request;
  request.method = ResamplingMethod::kMonteCarlo;
  request.replicates = 25;
  const ResamplingResult distributed = RunWithRequest(dataset, request, 8, 4);
  for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
    const std::uint32_t id = dataset.sets[k].id;
    EXPECT_TRUE(BitEqual(distributed.observed.at(id), factored.observed[k]))
        << "set " << k;
    EXPECT_EQ(distributed.exceed.at(id), factored.exceed_count[k])
        << "set " << k;
    EXPECT_NEAR(factored.observed[k], literal.observed[k],
                1e-12 * literal.observed[k])
        << "set " << k;
    EXPECT_EQ(factored.exceed_count[k], literal.exceed_count[k])
        << "set " << k;
  }
}

TEST(ResamplingMethodsTest, ReplicateScoreStreamMatchesSerialOracle) {
  // OnReplicateScores must deliver every replicate's statistics, in order,
  // bit-for-bit equal to the serial oracle — regardless of batching.
  const simdata::SyntheticDataset dataset = SmallDataset();
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  std::vector<std::vector<double>> serial;
  baseline::SerialMonteCarloFactored(inputs, 77, 11, &serial);

  struct Recorder final : ProgressSink {
    std::vector<std::pair<std::uint64_t, SetScores>> stream;
    void OnReplicateScores(std::uint64_t b, const SetScores& scores) override {
      stream.push_back({b, scores});
    }
  } recorder;
  ResamplingRequest request;
  request.method = ResamplingMethod::kMonteCarlo;
  request.replicates = 11;
  request.batch_size = 4;
  request.sink = &recorder;
  RunWithRequest(dataset, request, 0, 4);

  ASSERT_EQ(recorder.stream.size(), 11u);
  for (std::uint64_t b = 0; b < 11; ++b) {
    EXPECT_EQ(recorder.stream[b].first, b);
    for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
      const std::uint32_t id = dataset.sets[k].id;
      EXPECT_TRUE(BitEqual(recorder.stream[b].second.at(id), serial[b][k]))
          << "replicate " << b << " set " << k;
    }
  }
}

/// Algorithm 3 through the engine with an arbitrary phenotype model and
/// a monomorphic SNP in its own set and in a mixed set; returns the
/// result next to the inputs the serial oracles need.
struct ModelMonteCarloRun {
  simdata::SyntheticDataset dataset;
  std::uint32_t monomorphic_set = 0;
  ResamplingResult result;
};

ModelMonteCarloRun RunModelMonteCarlo(const stats::Phenotype& phenotype,
                                      std::uint64_t seed,
                                      std::uint64_t replicates,
                                      bool paper_faithful = false) {
  ModelMonteCarloRun run;
  run.dataset = SmallDataset();
  simdata::SyntheticDataset& dataset = run.dataset;
  const std::uint32_t snp = 3;  // a member of the first set, too
  dataset.genotypes.by_snp[snp].assign(dataset.survival.n(), 2);
  for (const stats::SnpSet& set : dataset.sets) {
    run.monomorphic_set = std::max(run.monomorphic_set, set.id + 1);
  }
  dataset.sets.push_back({run.monomorphic_set, {snp}});

  std::vector<simdata::SnpRecord> records;
  for (std::uint32_t j = 0; j < dataset.genotypes.num_snps(); ++j) {
    records.push_back({j, dataset.genotypes.by_snp[j]});
  }
  engine::EngineContext ctx(LocalOptions());
  PipelineConfig config;
  config.seed = seed;
  config.model = phenotype.model;
  config.resampling_batch_size = 8;
  config.paper_faithful_scores = paper_faithful;
  SkatPipeline pipeline(ctx, config, engine::Parallelize(ctx, records, 4),
                        phenotype, dataset.weights, dataset.sets);
  run.result =
      RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, replicates})
          .scores;
  return run;
}

/// Gaussian and Binomial Monte Carlo blocks z∘v do not sum to zero, so a
/// constant column is scored like any other — c·Σ z_i v_i, as the U path
/// scores it — and the whole result is bitwise the literal oracle's.
void ExpectMonteCarloBitwiseLiteral(const stats::Phenotype& phenotype,
                                    std::uint64_t seed) {
  const std::uint64_t replicates = 30;
  const ModelMonteCarloRun run =
      RunModelMonteCarlo(phenotype, seed, replicates);
  const simdata::SyntheticDataset& dataset = run.dataset;
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  const baseline::SkatAnalysis literal =
      baseline::SerialMonteCarlo(inputs, seed, replicates);
  const baseline::SkatAnalysis factored =
      baseline::SerialMonteCarloFactored(inputs, seed, replicates);
  EXPECT_NE(literal.observed.back(), 0.0)
      << "the monomorphic set should carry rounding noise, as on the U path";
  for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
    const std::uint32_t id = dataset.sets[k].id;
    EXPECT_TRUE(BitEqual(run.result.observed.at(id), literal.observed[k]))
        << "set " << k;
    EXPECT_EQ(run.result.exceed.at(id), literal.exceed_count[k]) << "set " << k;
    EXPECT_TRUE(BitEqual(factored.observed[k], literal.observed[k]))
        << "set " << k;
    EXPECT_EQ(factored.exceed_count[k], literal.exceed_count[k]) << "set " << k;
  }
}

TEST(ResamplingMethodsTest, GaussianMonteCarloBitwiseEqualsLiteralOracle) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  Rng rng(91);
  stats::QuantitativeData expression;
  for (std::size_t i = 0; i < dataset.survival.n(); ++i) {
    expression.value.push_back(1.5 + SampleNormal(rng));
  }
  ExpectMonteCarloBitwiseLiteral(stats::Phenotype::Gaussian(expression), 92);
}

TEST(ResamplingMethodsTest, BinomialMonteCarloBitwiseEqualsLiteralOracle) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  Rng rng(93);
  stats::BinaryData status;
  for (std::size_t i = 0; i < dataset.survival.n(); ++i) {
    status.value.push_back(rng.NextDouble() < 0.4 ? 1 : 0);
  }
  ExpectMonteCarloBitwiseLiteral(stats::Phenotype::Binomial(status), 94);
}

TEST(ResamplingMethodsTest, CoxMonteCarloMonomorphicSetScoresZero) {
  // Cox V(z) columns sum to zero, and a constant column's U vector is
  // exactly 0: observed and replicate scores are exactly 0, exceed = B.
  const simdata::SyntheticDataset base = SmallDataset();
  const stats::Phenotype phenotype = stats::Phenotype::Cox(base.survival);
  const std::uint64_t replicates = 30;
  const ModelMonteCarloRun run = RunModelMonteCarlo(phenotype, 95, replicates);
  baseline::SkatInputs inputs{&run.dataset.genotypes, &phenotype,
                              &run.dataset.weights, &run.dataset.sets};
  const baseline::SkatAnalysis literal =
      baseline::SerialMonteCarlo(inputs, 95, replicates);
  EXPECT_EQ(literal.observed.back(), 0.0);
  EXPECT_EQ(literal.exceed_count.back(), replicates);
  EXPECT_EQ(run.result.observed.at(run.monomorphic_set), 0.0);
  EXPECT_EQ(run.result.exceed.at(run.monomorphic_set), replicates);
}

TEST(ResamplingMethodsTest, PaperFaithfulMonteCarloKeepsTheUPath) {
  // Under paper_faithful_scores Monte Carlo scores the cached U: the
  // result is bitwise the literal oracle's, not the factored one's.
  const simdata::SyntheticDataset base = SmallDataset();
  const stats::Phenotype phenotype = stats::Phenotype::Cox(base.survival);
  const ModelMonteCarloRun run =
      RunModelMonteCarlo(phenotype, 96, 20, /*paper_faithful=*/true);
  baseline::SkatInputs inputs{&run.dataset.genotypes, &phenotype,
                              &run.dataset.weights, &run.dataset.sets};
  const baseline::SkatAnalysis literal =
      baseline::SerialMonteCarlo(inputs, 96, 20);
  const baseline::SkatAnalysis factored =
      baseline::SerialMonteCarloFactored(inputs, 96, 20);
  bool any_differs_from_factored = false;
  for (std::size_t k = 0; k < run.dataset.sets.size(); ++k) {
    const std::uint32_t id = run.dataset.sets[k].id;
    EXPECT_TRUE(BitEqual(run.result.observed.at(id), literal.observed[k]))
        << "set " << k;
    EXPECT_EQ(run.result.exceed.at(id), literal.exceed_count[k]) << "set " << k;
    any_differs_from_factored =
        any_differs_from_factored ||
        !BitEqual(run.result.observed.at(id), factored.observed[k]);
  }
  EXPECT_TRUE(any_differs_from_factored);
}

TEST(ResamplingMethodsTest, AdaptiveSinkCarriesOnlyLiveSets) {
  // Adaptive Monte Carlo scores only the sets still live at the start of
  // a batch: OnReplicateScores carries exactly those, and each entry is
  // bitwise the same set's statistic in an exhaustive run of that seed.
  simdata::GeneratorConfig generator;
  generator.num_patients = 60;
  generator.num_snps = 120;
  generator.num_sets = 12;
  generator.seed = 44;
  const simdata::SyntheticDataset dataset = simdata::Generate(generator);
  struct Recorder final : ProgressSink {
    std::vector<std::pair<std::uint64_t, SetScores>> stream;
    void OnReplicateScores(std::uint64_t b, const SetScores& scores) override {
      stream.push_back({b, scores});
    }
  };
  constexpr std::uint64_t kReplicates = 200;
  constexpr std::uint64_t kBatch = 8;
  Recorder exhaustive_sink;
  ResamplingRequest exhaustive(ResamplingMethod::kMonteCarlo, kReplicates);
  exhaustive.sink = &exhaustive_sink;
  RunWithRequest(dataset, exhaustive, kBatch, 4);
  ASSERT_EQ(exhaustive_sink.stream.size(), kReplicates);

  Recorder adaptive_sink;
  ResamplingRequest adaptive(ResamplingMethod::kMonteCarlo, kReplicates);
  adaptive.pvalue_method = PValueMethod::kHybrid;
  adaptive.refine_threshold = 0.5;
  adaptive.early_stop = 3;
  adaptive.sink = &adaptive_sink;
  const ResamplingResult result = RunWithRequest(dataset, adaptive, kBatch, 4);

  std::size_t screened_out = 0;
  std::size_t stopped_early = 0;
  for (const auto& [set_id, info] : result.inference) {
    if (!info.refined) ++screened_out;
    if (info.early_stopped && info.replicates_used + kBatch <= kReplicates) {
      ++stopped_early;
    }
  }
  EXPECT_GT(screened_out, 0u) << "no set was screened out";
  EXPECT_GT(stopped_early, 0u) << "no set stopped before the last batch";

  ASSERT_FALSE(adaptive_sink.stream.empty());
  for (const auto& [b, scores] : adaptive_sink.stream) {
    const std::uint64_t batch_begin = b / kBatch * kBatch;
    for (const auto& [set_id, info] : result.inference) {
      const bool live = info.refined && (!info.early_stopped ||
                                         batch_begin < info.replicates_used);
      EXPECT_EQ(scores.count(set_id), live ? 1u : 0u)
          << "replicate " << b << " set " << set_id;
    }
    const SetScores& reference = exhaustive_sink.stream[b].second;
    for (const auto& [set_id, score] : scores) {
      EXPECT_TRUE(BitEqual(score, reference.at(set_id)))
          << "replicate " << b << " set " << set_id;
    }
  }
}

TEST(ResamplingMethodsTest, SinkReportsBatchBoundaries) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  struct Recorder final : ProgressSink {
    std::vector<std::vector<std::uint64_t>> begins;
    std::vector<std::vector<std::uint64_t>> ends;
    std::vector<std::uint64_t> replicates;
    void OnBatchBegin(std::uint64_t index, std::uint64_t begin,
                      std::uint64_t end) override {
      begins.push_back({index, begin, end});
    }
    void OnReplicate(std::uint64_t b) override { replicates.push_back(b); }
    void OnBatchEnd(std::uint64_t index, std::uint64_t begin,
                    std::uint64_t end) override {
      ends.push_back({index, begin, end});
    }
  } recorder;
  ResamplingRequest request;
  request.method = ResamplingMethod::kMonteCarlo;
  request.replicates = 10;
  request.batch_size = 4;
  request.sink = &recorder;
  RunWithRequest(dataset, request, 0, 4);

  const std::vector<std::vector<std::uint64_t>> expected = {
      {0, 0, 4}, {1, 4, 8}, {2, 8, 10}};
  EXPECT_EQ(recorder.begins, expected);
  EXPECT_EQ(recorder.ends, expected);
  EXPECT_EQ(recorder.replicates,
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ResamplingMethodsTest, PaperFaithfulPermutationMatchesSerialBaseline) {
  // The per-replicate rebuild that Experiments A and B time: exact
  // counts, and invariant to the batch size like the default path.
  const simdata::SyntheticDataset dataset = SmallDataset();
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  baseline::SkatInputs inputs{&dataset.genotypes, &phenotype, &dataset.weights,
                              &dataset.sets};
  const baseline::SkatAnalysis serial =
      baseline::SerialPermutation(inputs, 79, 12);
  std::vector<ResamplingResult> runs;
  for (std::uint64_t batch : {1u, 5u}) {
    engine::EngineContext ctx(LocalOptions());
    PipelineConfig config;
    config.seed = 79;
    config.paper_faithful_scores = true;
    config.resampling_batch_size = batch;
    SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
    runs.push_back(
        RunResampling(pipeline, {ResamplingMethod::kPermutation, 12}).scores);
  }
  ExpectByteIdentical(runs[0], runs[1]);
  for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
    const std::uint32_t id = dataset.sets[k].id;
    EXPECT_NEAR(runs[0].observed.at(id), serial.observed[k],
                1e-12 * serial.observed[k]);
    EXPECT_EQ(runs[0].exceed.at(id), serial.exceed_count[k]) << "set " << k;
  }
}

TEST(ResamplingMethodsTest, AdaptivePermutationIgnoresPaperFaithfulMode) {
  // Only plain permutation keeps the per-replicate rebuild; an early-stop
  // run takes the score-block driver in both modes, so they agree bit for
  // bit (the rebuild's observed statistics are folded from U and round
  // differently from G·v).
  const simdata::SyntheticDataset dataset = SmallDataset();
  std::vector<ResamplingResult> runs;
  for (bool faithful : {false, true}) {
    engine::EngineContext ctx(LocalOptions());
    PipelineConfig config;
    config.seed = 81;
    config.paper_faithful_scores = faithful;
    config.resampling_batch_size = 4;
    SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
    ResamplingRequest request;
    request.method = ResamplingMethod::kPermutation;
    request.replicates = 40;
    request.early_stop = 2;
    runs.push_back(RunResampling(pipeline, request).scores);
  }
  ExpectByteIdentical(runs[0], runs[1]);
  ASSERT_EQ(runs[0].inference.size(), dataset.sets.size());
  for (const auto& [set_id, info] : runs[0].inference) {
    const SetInference& other = runs[1].inference.at(set_id);
    EXPECT_EQ(info.replicates_used, other.replicates_used) << "set " << set_id;
    EXPECT_EQ(info.early_stopped, other.early_stopped) << "set " << set_id;
  }
}

TEST(ResamplingMethodsTest, UnifiedPermutationMatchesLegacyWrapper) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  ResamplingRequest request;
  request.method = ResamplingMethod::kPermutation;
  request.replicates = 12;
  const ResamplingResult unified = RunWithRequest(dataset, request, 3, 4, 78);

  engine::EngineContext ctx(LocalOptions());
  PipelineConfig config;
  config.seed = 78;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  ExpectByteIdentical(unified, RunResampling(pipeline, {ResamplingMethod::kPermutation, 12}).scores);
}

TEST(ResamplingMethodsTest, SkatOBitwiseInvariantToBatchSize) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  auto run = [&dataset](std::uint64_t batch) {
    engine::EngineContext ctx(LocalOptions());
    PipelineConfig config;
    config.seed = 77;
    config.resampling_batch_size = batch;
    SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
    ResamplingRequest request;
    request.method = ResamplingMethod::kSkatO;
    request.replicates = 15;
    return RunResampling(pipeline, request).skato;
  };
  const SkatOResult one = run(1);
  const SkatOResult big = run(64);
  ASSERT_EQ(one.by_set.size(), big.by_set.size());
  for (const auto& [set_id, per_set] : one.by_set) {
    const auto& other = big.by_set.at(set_id);
    EXPECT_TRUE(BitEqual(per_set.skat, other.skat)) << "set " << set_id;
    EXPECT_TRUE(BitEqual(per_set.burden, other.burden)) << "set " << set_id;
    EXPECT_TRUE(BitEqual(per_set.pvalue, other.pvalue)) << "set " << set_id;
  }
}

TEST(ResamplingMethodsTest, RequestSeedOverridesPipelineSeed) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  ResamplingRequest plain;
  plain.method = ResamplingMethod::kMonteCarlo;
  plain.replicates = 9;
  ResamplingRequest overridden = plain;
  overridden.seed = 123;
  // config.seed=123 with no override ≡ config.seed=77 with seed=123.
  ExpectByteIdentical(RunWithRequest(dataset, overridden, 4, 4, 77),
                      RunWithRequest(dataset, plain, 4, 4, 123));
}

TEST(ResamplingMethodsTest, MoreReplicatesRefinePValueFloor) {
  const simdata::SyntheticDataset dataset = SmallDataset();
  engine::EngineContext ctx(LocalOptions());
  PipelineConfig config;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  const ResamplingResult result = RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, 49}).scores;
  for (const auto& [set_id, score] : result.observed) {
    EXPECT_GE(result.PValue(set_id), 1.0 / 50.0);
  }
}

TEST(ResamplingMethodsTest, SetWithNoScoredSnpFoldsToPositiveZero) {
  // A set none of whose SNPs is in the genotype matrix has no row in any
  // score block: its observed statistic and every replicate's are +0, so
  // every replicate meets the observed value.
  simdata::SyntheticDataset dataset = SmallDataset();
  const std::uint32_t absent = dataset.genotypes.num_snps();
  dataset.sets.push_back({999, {absent, absent + 1}});
  struct Recorder final : ProgressSink {
    std::vector<double> scores;
    void OnReplicateScores(std::uint64_t, const SetScores& set_scores) override {
      scores.push_back(set_scores.at(999));
    }
  };
  constexpr std::uint64_t kReplicates = 10;
  for (const bool paper_faithful : {false, true}) {
    for (const ResamplingMethod method :
         {ResamplingMethod::kMonteCarlo, ResamplingMethod::kPermutation}) {
      engine::EngineContext ctx(LocalOptions());
      PipelineConfig config;
      config.paper_faithful_scores = paper_faithful;
      config.resampling_batch_size = 4;
      SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
      Recorder recorder;
      ResamplingRequest request(method, kReplicates);
      request.sink = &recorder;
      const ResamplingResult result = RunResampling(pipeline, request).scores;
      EXPECT_TRUE(BitEqual(result.observed.at(999), 0.0));
      ASSERT_EQ(recorder.scores.size(), kReplicates);
      for (double score : recorder.scores) EXPECT_TRUE(BitEqual(score, 0.0));
      EXPECT_EQ(result.exceed.at(999), kReplicates);
    }
  }
}

TEST(ResamplingMethodsTest, ProgressSinkLeavesResultHashUnchanged) {
  // Per-set replicate maps are built only for an attached sink; building
  // them must not change a single result bit.
  const simdata::SyntheticDataset dataset = SmallDataset();
  struct Recorder final : ProgressSink {
    std::uint64_t scored = 0;
    void OnReplicateScores(std::uint64_t, const SetScores& scores) override {
      scored += scores.size();
    }
  };
  std::atomic<std::uint64_t>& hash =
      engine::CounterRegistry::Global().Get("resampling.result_hash");
  ResamplingRequest exhaustive(ResamplingMethod::kMonteCarlo, 30);
  ResamplingRequest permutation(ResamplingMethod::kPermutation, 30);
  ResamplingRequest hybrid(ResamplingMethod::kMonteCarlo, 30);
  hybrid.pvalue_method = PValueMethod::kHybrid;
  hybrid.refine_threshold = 0.5;
  hybrid.early_stop = 3;
  for (ResamplingRequest request : {exhaustive, permutation, hybrid}) {
    const std::uint64_t before = hash.load();
    RunWithRequest(dataset, request, 8, 4);
    const std::uint64_t without_sink = hash.load() - before;
    Recorder recorder;
    request.sink = &recorder;
    const std::uint64_t middle = hash.load();
    RunWithRequest(dataset, request, 8, 4);
    EXPECT_EQ(hash.load() - middle, without_sink);
    EXPECT_GT(recorder.scored, 0u);
  }
}

}  // namespace
}  // namespace ss::core
