// Determinism regression: the result of a distributed computation must
// never depend on the number of physical threads or on task scheduling
// order. Every replicate statistic is required to be *byte-identical*
// between a 1-thread and an N-thread run from the same seed — the
// property the resampling literature this repo reproduces silently
// assumes, and the one a data race would corrupt first.
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/serial_skat.hpp"
#include "cluster/fault_injector.hpp"
#include "core/resampling_methods.hpp"
#include "engine/context.hpp"
#include "engine/metrics.hpp"
#include "stats/kernels/kernels.hpp"

namespace ss::core {
namespace {

constexpr std::uint64_t kSeed = 20160521;  // Fixed: see file comment.

/// Bit-pattern equality: distinguishes -0.0 from 0.0 and differing NaN
/// payloads, i.e. strictly stronger than operator== on doubles.
bool BitEqual(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

simdata::SyntheticDataset FixedDataset() {
  simdata::GeneratorConfig config;
  config.num_patients = 60;
  config.num_snps = 48;
  config.num_sets = 6;
  config.seed = kSeed;
  return simdata::Generate(config);
}

engine::EngineContext::Options OptionsWithThreads(std::size_t threads) {
  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(3);
  options.physical_threads = threads;
  options.seed = kSeed;
  return options;
}

/// Cache budget of the scheduling grids' constrained cells, in bytes:
/// every cached partition but the most recent is evicted and recomputed
/// (a budget of 0 is unlimited).
constexpr std::uint64_t kTinyBudget = 2;

ResamplingResult RunMonteCarlo(std::size_t threads, std::uint64_t replicates,
                               const simdata::SyntheticDataset& dataset) {
  engine::EngineContext ctx(OptionsWithThreads(threads));
  PipelineConfig config;
  config.seed = kSeed;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  return RunResampling(pipeline, {ResamplingMethod::kMonteCarlo, replicates})
      .scores;
}

ResamplingResult RunConfigured(ResamplingMethod method, std::size_t threads,
                               std::uint64_t batch, std::uint64_t replicates,
                               const simdata::SyntheticDataset& dataset) {
  engine::EngineContext ctx(OptionsWithThreads(threads));
  PipelineConfig config;
  config.seed = kSeed;
  config.resampling_batch_size = batch;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  return RunResampling(pipeline, {method, replicates}).scores;
}

ResamplingResult RunPermutation(std::size_t threads, std::uint64_t replicates,
                                const simdata::SyntheticDataset& dataset) {
  engine::EngineContext ctx(OptionsWithThreads(threads));
  PipelineConfig config;
  config.seed = kSeed;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  return RunResampling(pipeline, {ResamplingMethod::kPermutation, replicates})
      .scores;
}

void ExpectByteIdentical(const ResamplingResult& a, const ResamplingResult& b) {
  ASSERT_EQ(a.replicates, b.replicates);
  ASSERT_EQ(a.observed.size(), b.observed.size());
  for (const auto& [set_id, score] : a.observed) {
    ASSERT_TRUE(b.observed.count(set_id)) << "set " << set_id;
    EXPECT_TRUE(BitEqual(score, b.observed.at(set_id)))
        << "observed score for set " << set_id << " differs across runs";
  }
  ASSERT_EQ(a.exceed.size(), b.exceed.size());
  for (const auto& [set_id, count] : a.exceed) {
    ASSERT_TRUE(b.exceed.count(set_id)) << "set " << set_id;
    EXPECT_EQ(count, b.exceed.at(set_id))
        << "exceedance counter for set " << set_id << " differs across runs";
  }
}

TEST(DeterminismTest, MonteCarloReplicatesIdentical1v4Threads) {
  const simdata::SyntheticDataset dataset = FixedDataset();
  ExpectByteIdentical(RunMonteCarlo(1, 20, dataset),
                      RunMonteCarlo(4, 20, dataset));
}

TEST(DeterminismTest, MonteCarloRepeatedNThreadRunsIdentical) {
  const simdata::SyntheticDataset dataset = FixedDataset();
  ExpectByteIdentical(RunMonteCarlo(4, 20, dataset),
                      RunMonteCarlo(4, 20, dataset));
}

TEST(DeterminismTest, PermutationReplicatesIdentical1v4Threads) {
  const simdata::SyntheticDataset dataset = FixedDataset();
  ExpectByteIdentical(RunPermutation(1, 10, dataset),
                      RunPermutation(4, 10, dataset));
}

TEST(DeterminismTest, ThreadCountDoesNotLeakIntoPValues) {
  const simdata::SyntheticDataset dataset = FixedDataset();
  const ResamplingResult serial = RunMonteCarlo(1, 15, dataset);
  const ResamplingResult wide = RunMonteCarlo(8, 15, dataset);
  for (const auto& [set_id, score] : serial.observed) {
    EXPECT_TRUE(BitEqual(serial.PValue(set_id), wide.PValue(set_id)))
        << "p-value for set " << set_id;
  }
}

TEST(DeterminismTest, PackedGenotypesIdenticalAcrossThreadsAndBatches) {
  // Scoring the 2-bit packed genotypes: every combination of threads
  // {1,4} x batch {1,64} must be byte-identical to the single-thread
  // per-replicate run.
  const simdata::SyntheticDataset dataset = FixedDataset();
  const ResamplingResult reference =
      RunConfigured(ResamplingMethod::kMonteCarlo, 1, 1, 20, dataset);
  for (std::size_t threads : {1u, 4u}) {
    for (std::uint64_t batch : {1u, 64u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch));
      ExpectByteIdentical(
          reference, RunConfigured(ResamplingMethod::kMonteCarlo, threads,
                                   batch, 20, dataset));
    }
  }
}

TEST(DeterminismTest, DispatchLevelsProduceIdenticalResults) {
  // SIMD kernels keep the scalar lane/accumulation order, so forcing any
  // executable dispatch level must reproduce the scalar run bit-for-bit.
  // Both methods are covered; batch 4 runs the 4-lane replicate blocks,
  // and batch 64 (one 20-replicate block) also runs the 16-lane block.
  // Batch 8 runs the 8-lane block; batch 33 over 99 replicates the
  // 32-lane block and a 1-lane tail; batch 65 over 159 replicates the
  // 64-lane block, then a 29-replicate batch (16 + 8 + 4 lanes + tail).
  const simdata::SyntheticDataset dataset = FixedDataset();
  const stats::kernels::DispatchLevel saved =
      stats::kernels::ActiveDispatchLevel();
  struct Cell {
    std::uint64_t batch;
    std::uint64_t replicates;
  };
  for (ResamplingMethod method :
       {ResamplingMethod::kMonteCarlo, ResamplingMethod::kPermutation}) {
    for (const auto& [batch, replicates] :
         {Cell{4, 20}, Cell{64, 20}, Cell{8, 20}, Cell{33, 99},
          Cell{65, 159}}) {
      SCOPED_TRACE("method=" + std::to_string(static_cast<int>(method)) +
                   " batch=" + std::to_string(batch) +
                   " replicates=" + std::to_string(replicates));
      stats::kernels::SetDispatchLevel(stats::kernels::DispatchLevel::kScalar);
      const ResamplingResult scalar =
          RunConfigured(method, 4, batch, replicates, dataset);
      for (stats::kernels::DispatchLevel level :
           stats::kernels::ExecutableLevels()) {
        if (level == stats::kernels::DispatchLevel::kScalar) continue;
        stats::kernels::SetDispatchLevel(level);
        SCOPED_TRACE(std::string("level=") +
                     stats::kernels::DispatchLevelName(
                         stats::kernels::ActiveDispatchLevel()));
        ExpectByteIdentical(
            scalar, RunConfigured(method, 4, batch, replicates, dataset));
      }
    }
  }
  stats::kernels::SetDispatchLevel(saved);
}

// ---------------------------------------------------------------------
// Adaptive p-value engine: early stopping decides per-replicate in the
// canonical fold order, so a stopped run must be byte-identical across
// every scheduling knob — threads, batch size, and cache budget.
// ---------------------------------------------------------------------

ResamplingResult RunAdaptive(std::size_t threads, std::uint64_t batch,
                             std::uint64_t budget, PValueMethod pmethod,
                             std::uint64_t early_stop,
                             const simdata::SyntheticDataset& dataset) {
  engine::EngineContext::Options options = OptionsWithThreads(threads);
  options.cache_capacity_bytes = budget;
  engine::EngineContext ctx(options);
  PipelineConfig config;
  config.seed = kSeed;
  config.resampling_batch_size = batch;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  ResamplingRequest request(ResamplingMethod::kMonteCarlo, 200);
  request.pvalue_method = pmethod;
  request.refine_threshold = 0.5;  // refine several sets, not just one
  request.early_stop = early_stop;
  return RunResampling(pipeline, request).scores;
}

/// ExpectByteIdentical plus the adaptive per-set inference records and
/// the final routed p-values (bit patterns, not just values).
void ExpectAdaptiveIdentical(const ResamplingResult& a,
                             const ResamplingResult& b) {
  ExpectByteIdentical(a, b);
  ASSERT_EQ(a.early_stop_h, b.early_stop_h);
  ASSERT_EQ(a.inference.size(), b.inference.size());
  for (const auto& [set_id, info] : a.inference) {
    ASSERT_TRUE(b.inference.count(set_id)) << "set " << set_id;
    const SetInference& other = b.inference.at(set_id);
    EXPECT_TRUE(BitEqual(info.analytic_p, other.analytic_p))
        << "analytic p for set " << set_id;
    EXPECT_EQ(info.replicates_used, other.replicates_used)
        << "replicates used for set " << set_id;
    EXPECT_EQ(info.early_stopped, other.early_stopped) << "set " << set_id;
    EXPECT_EQ(info.refined, other.refined) << "set " << set_id;
    EXPECT_TRUE(BitEqual(a.PValue(set_id), b.PValue(set_id)))
        << "routed p-value for set " << set_id;
  }
}

TEST(DeterminismTest, EarlyStoppedRunsIdenticalAcrossSchedulingKnobs) {
  // Early stopping interacts with batching (a stop mid-batch must not
  // depend on where the batch boundary fell) — sweep the full grid
  // threads {1,4} x batch {1,64} x budget {unlimited, tiny} against a
  // serial per-replicate reference.
  const simdata::SyntheticDataset dataset = FixedDataset();
  const ResamplingResult reference = RunAdaptive(
      1, 1, 0, PValueMethod::kResampling, /*early_stop=*/5, dataset);
  for (std::size_t threads : {1u, 4u}) {
    for (std::uint64_t batch : {1u, 64u}) {
      for (std::uint64_t budget : {std::uint64_t{0}, kTinyBudget}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " batch=" +
                     std::to_string(batch) + " budget=" +
                     std::to_string(budget));
        ExpectAdaptiveIdentical(
            reference, RunAdaptive(threads, batch, budget,
                                   PValueMethod::kResampling, 5, dataset));
      }
    }
  }
}

TEST(DeterminismTest, HybridRunsIdenticalAcrossSchedulingKnobs) {
  // Same grid for the full hybrid mode: analytic screen + refinement
  // with early stopping. The screen itself is replicate-independent, so
  // any divergence here isolates to the refinement driver.
  const simdata::SyntheticDataset dataset = FixedDataset();
  const ResamplingResult reference =
      RunAdaptive(1, 1, 0, PValueMethod::kHybrid, /*early_stop=*/5, dataset);
  for (std::size_t threads : {1u, 4u}) {
    for (std::uint64_t batch : {1u, 64u}) {
      for (std::uint64_t budget : {std::uint64_t{0}, kTinyBudget}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " batch=" +
                     std::to_string(batch) + " budget=" +
                     std::to_string(budget));
        ExpectAdaptiveIdentical(
            reference, RunAdaptive(threads, batch, budget,
                                   PValueMethod::kHybrid, 5, dataset));
      }
    }
  }
}

// ---------------------------------------------------------------------
// The analytic screen as engine stages. A cohort with one 220-SNP set
// makes the `set-gram` stage split that set's Gram across many row-block
// tasks and gives the `analytic-screen` stage one long eigensolve among
// short ones; neither the split, the scheduling knobs, nor a retried
// task may move a bit of the result.
// ---------------------------------------------------------------------

/// A generated cohort of `num_patients` whose set k is the SNP range
/// [bounds[k], bounds[k + 1]).
simdata::SyntheticDataset RangeSetDataset(
    std::uint32_t num_patients, const std::vector<std::uint32_t>& bounds) {
  simdata::GeneratorConfig config;
  config.num_patients = num_patients;
  config.num_snps = bounds.back();
  config.num_sets = static_cast<std::uint32_t>(bounds.size() - 1);
  config.seed = kSeed;
  simdata::SyntheticDataset dataset = simdata::Generate(config);
  for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
    dataset.sets[k].id = static_cast<std::uint32_t>(k);
    dataset.sets[k].snps.clear();
    for (std::uint32_t snp = bounds[k]; snp < bounds[k + 1]; ++snp) {
      dataset.sets[k].snps.push_back(snp);
    }
  }
  return dataset;
}

simdata::SyntheticDataset LargeSetDataset() {
  return RangeSetDataset(120, {0, 220, 260, 290, 310, 320});
}

struct HashedRun {
  ResamplingResult result;
  std::uint64_t hash = 0;  ///< This run's `resampling.result_hash`.
  std::vector<engine::StageMetrics> stages;
};

HashedRun RunHashed(std::size_t threads, std::uint64_t batch,
                    std::uint64_t budget, PValueMethod pmethod,
                    std::uint64_t early_stop,
                    const simdata::SyntheticDataset& dataset,
                    cluster::FaultInjector* faults = nullptr) {
  std::atomic<std::uint64_t>& hash_counter =
      engine::CounterRegistry::Global().Get("resampling.result_hash");
  const std::uint64_t before = hash_counter.load();
  engine::EngineContext::Options options = OptionsWithThreads(threads);
  options.cache_capacity_bytes = budget;
  engine::EngineContext ctx(options, nullptr, faults);
  PipelineConfig config;
  config.seed = kSeed;
  config.resampling_batch_size = batch;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  ResamplingRequest request(ResamplingMethod::kMonteCarlo, 200);
  request.pvalue_method = pmethod;
  request.refine_threshold = 0.5;
  request.early_stop = early_stop;
  HashedRun run;
  run.result = RunResampling(pipeline, request).scores;
  run.hash = hash_counter.load() - before;
  run.stages = ctx.metrics().stages();
  return run;
}

const engine::StageMetrics* FindStage(const HashedRun& run,
                                      const std::string& label) {
  for (const engine::StageMetrics& stage : run.stages) {
    if (stage.label == label) return &stage;
  }
  return nullptr;
}

TEST(DeterminismTest, SetGramStageBitwiseEqualsSerialGram) {
  // The stage splits the 220-SNP set into row blocks and scores four
  // columns per pass; every entry must still be the plain serial
  // w_a·w_b·Σ_i u_a[i]·u_b[i], bit for bit.
  const simdata::SyntheticDataset dataset = LargeSetDataset();
  engine::EngineContext ctx(OptionsWithThreads(4));
  PipelineConfig config;
  config.seed = kSeed;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  const auto grams = pipeline.CollectSetGramMatrices();
  const stats::ScoreEngine engine(stats::Phenotype::Cox(dataset.survival));
  for (const stats::SnpSet& set : dataset.sets) {
    SCOPED_TRACE("set " + std::to_string(set.id));
    std::vector<std::vector<double>> u;
    for (std::uint32_t snp : set.snps) {
      u.push_back(engine.Contributions(dataset.genotypes.by_snp[snp]));
    }
    const stats::Matrix& gram = grams.at(set.id);
    ASSERT_EQ(gram.rows(), set.snps.size());
    for (std::size_t a = 0; a < u.size(); ++a) {
      for (std::size_t b = 0; b < u.size(); ++b) {
        double dot = 0.0;
        for (std::size_t i = 0; i < u[a].size(); ++i) dot += u[a][i] * u[b][i];
        const double expected = dataset.weights[set.snps[a]] *
                                dataset.weights[set.snps[b]] * dot;
        ASSERT_TRUE(BitEqual(gram.at(a, b), expected))
            << "entry (" << a << ", " << b << ")";
      }
    }
  }
}

TEST(DeterminismTest, SetGramTilesBitwiseEqualSerialGramAtOddShapes) {
  // LargeSetDataset's pattern at n = 121, so every dot ends in the
  // vector kernel's scalar i-tail, with sets of 221, 42, 31, 13 and 7 SNPs
  // (d % 4 = 1, 2, 3, 1, 3: every padded row-tile shape). At every
  // executable level each entry must be the plain serial
  // w_a·w_b·Σ_i u_a[i]·u_b[i].
  const simdata::SyntheticDataset dataset =
      RangeSetDataset(121, {0, 221, 263, 294, 307, 314});
  const stats::ScoreEngine engine(stats::Phenotype::Cox(dataset.survival));
  const stats::kernels::DispatchLevel saved =
      stats::kernels::ActiveDispatchLevel();
  for (stats::kernels::DispatchLevel level :
       stats::kernels::ExecutableLevels()) {
    stats::kernels::SetDispatchLevel(level);
    SCOPED_TRACE(std::string("level=") +
                 stats::kernels::DispatchLevelName(level));
    engine::EngineContext ctx(OptionsWithThreads(4));
    PipelineConfig pipeline_config;
    pipeline_config.seed = kSeed;
    SkatPipeline pipeline =
        SkatPipeline::FromMemory(ctx, dataset, pipeline_config);
    const auto grams = pipeline.CollectSetGramMatrices();
    for (const stats::SnpSet& set : dataset.sets) {
      SCOPED_TRACE("set " + std::to_string(set.id));
      const std::size_t d = set.snps.size();
      const stats::Matrix& gram = grams.at(set.id);
      ASSERT_EQ(gram.rows(), d);
      std::vector<std::vector<double>> u;
      for (std::uint32_t snp : set.snps) {
        u.push_back(engine.Contributions(dataset.genotypes.by_snp[snp]));
      }
      for (std::size_t a = 0; a < d; ++a) {
        for (std::size_t b = 0; b < d; ++b) {
          double dot = 0.0;
          for (std::size_t i = 0; i < u[a].size(); ++i) {
            dot += u[a][i] * u[b][i];
          }
          const double expected = dataset.weights[set.snps[a]] *
                                  dataset.weights[set.snps[b]] * dot;
          ASSERT_TRUE(BitEqual(gram.at(a, b), expected))
              << "entry (" << a << ", " << b << ")";
        }
      }
    }
  }
  stats::kernels::SetDispatchLevel(saved);
}

TEST(DeterminismTest, ScreenStagesIdenticalAcrossSchedulingKnobs) {
  const simdata::SyntheticDataset dataset = LargeSetDataset();
  for (const auto& [pmethod, name] :
       {std::pair<PValueMethod, const char*>{PValueMethod::kHybrid, "hybrid"},
        std::pair<PValueMethod, const char*>{PValueMethod::kResampling,
                                             "early-stop"}}) {
    const HashedRun reference = RunHashed(1, 1, 0, pmethod, 5, dataset);
    if (pmethod == PValueMethod::kHybrid) {
      const engine::StageMetrics* gram = FindStage(reference, "set-gram");
      ASSERT_NE(gram, nullptr);
      EXPECT_GT(gram->task_seconds.size(), dataset.sets.size())
          << "the 220-SNP set's Gram should span several tasks";
      ASSERT_NE(FindStage(reference, "analytic-screen"), nullptr);
      EXPECT_TRUE(reference.result.inference.at(0).refined)
          << "the large set should take the refinement path";
    }
    for (std::size_t threads : {1u, 4u}) {
      for (std::uint64_t batch : {1u, 64u}) {
        for (std::uint64_t budget : {std::uint64_t{0}, kTinyBudget}) {
          SCOPED_TRACE(std::string(name) + " threads=" +
                       std::to_string(threads) + " batch=" +
                       std::to_string(batch) +
                       " budget=" + std::to_string(budget));
          const HashedRun run =
              RunHashed(threads, batch, budget, pmethod, 5, dataset);
          EXPECT_EQ(run.hash, reference.hash);
          ExpectAdaptiveIdentical(reference.result, run.result);
        }
      }
    }
  }
}

TEST(DeterminismTest, RetriedScreenTasksLeaveResultHashUnchanged) {
  const simdata::SyntheticDataset dataset = LargeSetDataset();
  const HashedRun clean =
      RunHashed(4, 64, kTinyBudget, PValueMethod::kHybrid, 5, dataset);
  // Stage ids are assigned in driver order, so a second identical run
  // reaches the screen stages under the same ids.
  cluster::FaultInjector faults;
  for (const char* label : {"set-gram", "analytic-screen"}) {
    const engine::StageMetrics* stage = FindStage(clean, label);
    ASSERT_NE(stage, nullptr) << label;
    const auto last = static_cast<std::uint32_t>(stage->task_seconds.size() - 1);
    faults.FailTask(stage->stage_id, 0, 1);
    faults.FailTask(stage->stage_id, last, 2);
  }
  const HashedRun retried =
      RunHashed(4, 64, kTinyBudget, PValueMethod::kHybrid, 5, dataset, &faults);
  for (const char* label : {"set-gram", "analytic-screen"}) {
    const engine::StageMetrics* stage = FindStage(retried, label);
    ASSERT_NE(stage, nullptr) << label;
    EXPECT_EQ(stage->failed_attempts, 3) << label;
  }
  EXPECT_EQ(retried.hash, clean.hash);
  ExpectAdaptiveIdentical(clean.result, retried.result);
}

// ---------------------------------------------------------------------
// Resampling as genotype score blocks: genotypes scored against permuted
// coefficient blocks (permutation) or V(z) blocks (Monte Carlo) must hash
// the same across every scheduling knob — threads, batch size and cache
// budget — both exhaustive and early-stopped.
// ---------------------------------------------------------------------

HashedRun RunScoreBlocksHashed(ResamplingMethod method, std::size_t threads,
                               std::uint64_t batch, std::uint64_t budget,
                               std::uint64_t early_stop,
                               const simdata::SyntheticDataset& dataset) {
  std::atomic<std::uint64_t>& hash_counter =
      engine::CounterRegistry::Global().Get("resampling.result_hash");
  const std::uint64_t before = hash_counter.load();
  engine::EngineContext::Options options = OptionsWithThreads(threads);
  options.cache_capacity_bytes = budget;
  engine::EngineContext ctx(options);
  PipelineConfig config;
  config.seed = kSeed;
  config.resampling_batch_size = batch;
  SkatPipeline pipeline = SkatPipeline::FromMemory(ctx, dataset, config);
  ResamplingRequest request(method, 90);
  request.early_stop = early_stop;
  HashedRun run;
  run.result = RunResampling(pipeline, request).scores;
  run.hash = hash_counter.load() - before;
  return run;
}

/// Sweeps threads {1,4} × batch {1,8,64} × budget {unlimited, tiny},
/// plain and early_stop=5, against a single-thread per-replicate
/// reference; returns the plain reference.
HashedRun ExpectScoreBlockGridIdentical(
    ResamplingMethod method, const simdata::SyntheticDataset& dataset) {
  HashedRun plain;
  for (std::uint64_t early_stop : {0u, 5u}) {
    const HashedRun reference =
        RunScoreBlocksHashed(method, 1, 1, 0, early_stop, dataset);
    if (early_stop != 0) {
      bool any_stopped = false;
      for (const auto& [set_id, info] : reference.result.inference) {
        any_stopped = any_stopped || info.early_stopped;
      }
      EXPECT_TRUE(any_stopped) << "the grid should cover a mid-run stop";
    } else {
      plain = reference;
    }
    for (std::size_t threads : {1u, 4u}) {
      for (std::uint64_t batch : {1u, 8u, 64u}) {
        for (std::uint64_t budget : {std::uint64_t{0}, kTinyBudget}) {
          SCOPED_TRACE("early_stop=" + std::to_string(early_stop) +
                       " threads=" + std::to_string(threads) +
                       " batch=" + std::to_string(batch) +
                       " budget=" + std::to_string(budget));
          const HashedRun run = RunScoreBlocksHashed(
              method, threads, batch, budget, early_stop, dataset);
          EXPECT_EQ(run.hash, reference.hash);
          ExpectAdaptiveIdentical(reference.result, run.result);
        }
      }
    }
  }
  return plain;
}

TEST(DeterminismTest, PermutationHashIdenticalAcrossSchedulingKnobs) {
  ExpectScoreBlockGridIdentical(ResamplingMethod::kPermutation,
                                FixedDataset());
}

TEST(DeterminismTest, MonteCarloHashIdenticalAcrossSchedulingKnobs) {
  // Every cell equals the plain reference bit for bit, and the plain
  // reference equals the factored serial oracle bit for bit.
  const simdata::SyntheticDataset dataset = FixedDataset();
  const HashedRun plain =
      ExpectScoreBlockGridIdentical(ResamplingMethod::kMonteCarlo, dataset);
  const stats::Phenotype phenotype = stats::Phenotype::Cox(dataset.survival);
  const baseline::SkatInputs inputs{&dataset.genotypes, &phenotype,
                                    &dataset.weights, &dataset.sets};
  const baseline::SkatAnalysis serial =
      baseline::SerialMonteCarloFactored(inputs, kSeed, 90);
  ASSERT_EQ(plain.result.observed.size(), dataset.sets.size());
  for (std::size_t k = 0; k < dataset.sets.size(); ++k) {
    const std::uint32_t id = dataset.sets[k].id;
    EXPECT_TRUE(BitEqual(plain.result.observed.at(id), serial.observed[k]))
        << "set " << id;
    EXPECT_EQ(plain.result.exceed.at(id), serial.exceed_count[k])
        << "set " << id;
  }
}

TEST(DeterminismTest, PureResamplingHashesUnchanged) {
  // pmethod=resampling never runs the screen, and the live-SNP filter
  // changes which SNPs are scored, not their values: these hashes are
  // pinned to the values of Cox Monte Carlo scored as genotype × V(z)
  // blocks (they moved once, when that replaced scoring the cached U).
  EXPECT_EQ(RunHashed(4, 64, 2, PValueMethod::kResampling, 0, FixedDataset())
                .hash,
            0x4112d73875f24107ULL);
  EXPECT_EQ(RunHashed(4, 64, 2, PValueMethod::kResampling, 0,
                      LargeSetDataset())
                .hash,
            0xffd20e281a19fd1aULL);
  EXPECT_EQ(RunHashed(4, 64, 2, PValueMethod::kResampling, 5,
                      LargeSetDataset())
                .hash,
            0x03278aa2d999162dULL);
}

TEST(DeterminismTest, ScreenHashesUnchanged) {
  // The adaptive methods' hashes mix each set's analytic p bits, so these
  // pin the screen's Grams, spectra and tails bit for bit across changes
  // to how the Grams are gathered.
  const simdata::SyntheticDataset dataset = LargeSetDataset();
  EXPECT_EQ(RunHashed(4, 64, 2, PValueMethod::kHybrid, 5, dataset).hash,
            0xb2fc22755a4e57a3ULL);
  EXPECT_EQ(RunHashed(4, 64, 2, PValueMethod::kSaddlepoint, 5, dataset).hash,
            0x3b113d693eeee31fULL);
  EXPECT_EQ(RunHashed(4, 64, 2, PValueMethod::kAnalytic, 5, dataset).hash,
            0x3646e349495aa2cfULL);
}

TEST(DeterminismTest, TaskRngIndependentOfAttemptNumber) {
  // A retried task must reproduce the same randomness as its first
  // attempt, or fault injection would silently change the statistics.
  engine::TaskContext first(7, 3, /*attempt=*/0, 0, 0, kSeed);
  engine::TaskContext retry(7, 3, /*attempt=*/2, 1, 1, kSeed);
  Rng a = first.MakeRng(5);
  Rng b = retry.MakeRng(5);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.NextU64(), b.NextU64()) << "draw " << i;
  }
}

}  // namespace
}  // namespace ss::core
