// Property test: randomly composed dataflow pipelines must agree with a
// straightforward std:: reference computation, across seeds, partition
// counts, caching decisions, and injected task failures. Also hosts the
// cache-budget differential soak matrix (ctest label `soak`): Monte Carlo
// resampling across (cache budget) x (threads) x (batch) x (faithful)
// cells, and under a mid-run node failure, must be bitwise identical to
// the unlimited-memory reference.
#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>

#include "cluster/fault_injector.hpp"
#include "core/pipeline.hpp"
#include "core/resampling_methods.hpp"
#include "engine/dataset.hpp"
#include "engine/trace.hpp"
#include "support/rng.hpp"

namespace ss::engine {
namespace {

EngineContext::Options LocalOptions(std::uint64_t seed) {
  EngineContext::Options options;
  options.topology = cluster::EmrCluster(3);
  options.physical_threads = 4;
  options.seed = seed;
  return options;
}

/// Applies one random order-preserving transformation to both the dataset
/// and the reference vector, keeping them semantically identical.
void ApplyRandomOp(Rng& rng, Dataset<int>& ds, std::vector<int>& reference) {
  switch (rng.NextBounded(3)) {
    case 0: {  // map: affine transform
      const int a = static_cast<int>(rng.NextBounded(5)) + 1;
      const int b = static_cast<int>(rng.NextBounded(100));
      ds = ds.Map([a, b](const int& x) { return a * x + b; });
      for (int& x : reference) x = a * x + b;
      break;
    }
    case 1: {  // filter: modulus predicate
      const int m = static_cast<int>(rng.NextBounded(4)) + 2;
      const int r =
          static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(m)));
      auto keep = [m, r](int x) { return ((x % m) + m) % m == r; };
      ds = ds.Filter([keep](const int& x) { return keep(x); });
      std::vector<int> kept;
      for (int x : reference) {
        if (keep(x)) kept.push_back(x);
      }
      reference = std::move(kept);
      break;
    }
    case 2: {  // flatMap: duplicate k times
      const int k = static_cast<int>(rng.NextBounded(3)) + 1;
      ds = ds.FlatMap([k](const int& x) {
        return std::vector<int>(static_cast<std::size_t>(k), x);
      });
      std::vector<int> expanded;
      expanded.reserve(reference.size() * static_cast<std::size_t>(k));
      for (int x : reference) {
        for (int i = 0; i < k; ++i) expanded.push_back(x);
      }
      reference = std::move(expanded);
      break;
    }
  }
}

class RandomDagSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDagSweep, PipelineMatchesReference) {
  Rng rng(GetParam());
  EngineContext ctx(LocalOptions(GetParam()));

  // Random input and partitioning.
  const std::size_t n = 50 + rng.NextBounded(300);
  std::vector<int> reference;
  reference.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    reference.push_back(static_cast<int>(rng.NextBounded(1000)) - 500);
  }
  const auto partitions = static_cast<std::uint32_t>(rng.NextBounded(9)) + 1;
  Dataset<int> ds = Parallelize(ctx, reference, partitions);

  // 2-5 random ops with random persistence in between.
  const std::uint64_t ops = 2 + rng.NextBounded(4);
  for (std::uint64_t o = 0; o < ops; ++o) {
    ApplyRandomOp(rng, ds, reference);
    if (rng.NextDouble() < 0.3) ds.Cache();
  }

  // Order-preserving comparison, twice (cache hits on the second pass).
  EXPECT_EQ(ds.Collect(), reference) << "seed " << GetParam();
  EXPECT_EQ(ds.Collect(), reference) << "seed " << GetParam();

  const long expected_sum =
      std::accumulate(reference.begin(), reference.end(), 0L);
  const std::vector<long> longs =
      ds.Map([](const int& x) { return static_cast<long>(x); }).Collect();
  EXPECT_EQ(std::accumulate(longs.begin(), longs.end(), 0L), expected_sum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagSweep,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(RandomDagFaultSweep, ResultsUnchangedByInjectedFailures) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    std::vector<int> data;
    for (int i = 0; i < 200; ++i) {
      data.push_back(static_cast<int>(rng.NextBounded(100)));
    }
    auto run = [&](cluster::FaultInjector* faults) {
      EngineContext ctx(LocalOptions(seed), nullptr, faults);
      auto ds = Parallelize(ctx, data, 6)
                    .Map([](const int& x) { return x * 3; })
                    .Filter([](const int& x) { return x % 2 == 0; });
      ds.Cache();
      auto keyed = ds.Map([](const int& x) {
        return std::pair<int, int>(x % 5, x);
      });
      return CollectAsMap(
          ReduceByKey(keyed, [](int a, int b) { return a + b; }, 3));
    };
    const auto clean = run(nullptr);
    cluster::FaultInjector faults;
    faults.FailTask(1, 0, 2);
    faults.FailTask(2, 1, 1);
    faults.FailNodeAfterTasks(0, 4);
    const auto with_faults = run(&faults);
    EXPECT_EQ(clean, with_faults) << "seed " << seed;
  }
}

// -- Cache-budget differential soak matrix ----------------------------------

/// One matrix cell: Monte Carlo resampling of a small synthetic study,
/// fingerprinted via the `resampling.result_hash` counter delta (the
/// order-independent fold RunResampling always records). `budget` 0 is
/// unlimited; 1 byte approximates "zero" (capacity 0 means unlimited).
/// `faithful` selects the paper-faithful path, which caches (and so
/// evicts and recomputes) U; the default path caches only the genotype
/// partitions it scores V(z) blocks against.
struct SoakCell {
  std::uint64_t budget = 0;
  std::size_t threads = 4;
  std::uint64_t batch = 64;
  bool fail_node_mid_run = false;
  bool faithful = false;
};

/// What one cell did to the cache, as counter deltas.
struct SoakTraffic {
  std::uint64_t hash = 0;
  std::uint64_t evictions = 0;
  std::uint64_t computes = 0;
  std::uint64_t dropped_by_failure = 0;
};

SoakTraffic RunSoakCell(std::uint64_t seed, const SoakCell& cell) {
  auto& registry = CounterRegistry::Global();
  const auto snapshot = [&registry]() {
    return SoakTraffic{registry.Get("resampling.result_hash").load(),
                       registry.Get("cache.evictions").load(),
                       registry.Get("cache.computes").load(),
                       registry.Get("cache.dropped_by_failure").load()};
  };
  const SoakTraffic before = snapshot();

  cluster::FaultInjector faults;
  EngineContext::Options options;
  options.topology = cluster::EmrCluster(3);
  options.physical_threads = cell.threads;
  options.seed = seed;
  options.cache_capacity_bytes = cell.budget;
  EngineContext ctx(options, nullptr, &faults);
  // With batch=1 a run is ~100 tasks, 4 per resampling pass. After 30
  // every cached partition exists and later passes still read them, so
  // losing node 0's copies forces recomputes the run actually reads,
  // whatever the thread interleaving.
  if (cell.fail_node_mid_run) faults.FailNodeAfterTasks(0, 30);

  simdata::GeneratorConfig generator;
  generator.num_patients = 40;
  generator.num_snps = 60;
  generator.num_sets = 6;
  generator.seed = seed;
  core::PipelineConfig config;
  config.seed = seed;
  config.num_partitions = 4;
  config.num_reducers = 4;
  config.resampling_batch_size = cell.batch;
  config.paper_faithful_scores = cell.faithful;
  core::SkatPipeline pipeline = core::SkatPipeline::FromMemory(
      ctx, simdata::Generate(generator), config);

  core::ResamplingRequest request;
  request.method = core::ResamplingMethod::kMonteCarlo;
  request.replicates = 24;
  core::RunResampling(pipeline, request);
  const SoakTraffic after = snapshot();
  return {after.hash - before.hash, after.evictions - before.evictions,
          after.computes - before.computes,
          after.dropped_by_failure - before.dropped_by_failure};
}

std::string SoakCellName(const SoakCell& cell) {
  std::string name = "budget=" + std::to_string(cell.budget) +
                     " threads=" + std::to_string(cell.threads) +
                     " batch=" + std::to_string(cell.batch);
  if (cell.fail_node_mid_run) name += " fail_node_mid_run";
  if (cell.faithful) name += " faithful";
  return name;
}

// ~6 KB holds roughly one U partition of this study (40 patients x 15
// SNPs per partition), forcing constant eviction; 1 byte evicts all but
// the most recent entry ("zero" budget — capacity 0 means unlimited).
constexpr std::uint64_t kTight = 6000;

TEST(BudgetSoakMatrix, EveryCellBitwiseEqualsUnlimitedMemoryRun) {
  // Both resampling paths run the whole matrix against their own unlimited
  // reference (their hashes differ: G·V(z) and Σ z·U round differently).
  constexpr std::uint64_t kBudgets[] = {0, kTight, 1};
  std::vector<std::uint64_t> failing_seeds;

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    bool seed_failed = false;
    for (bool faithful : {false, true}) {
      SoakCell base;
      base.faithful = faithful;
      const std::uint64_t reference = RunSoakCell(seed, base).hash;
      const auto check = [&](SoakCell cell) {
        cell.faithful = faithful;
        const std::uint64_t hash = RunSoakCell(seed, cell).hash;
        if (hash != reference) {
          seed_failed = true;
          ADD_FAILURE() << "seed " << seed << " diverged from the unlimited "
                        << "reference in cell [" << SoakCellName(cell) << "]";
        }
      };

      for (std::uint64_t budget : kBudgets) {
        for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          for (std::uint64_t batch : {std::uint64_t{1}, std::uint64_t{64}}) {
            check(SoakCell{budget, threads, batch, false});
          }
        }
        // A node failure mid-run drops node 0's cached partitions; the
        // run recomputes them through lineage and must still match.
        check(SoakCell{budget, 4, 1, /*fail_node_mid_run=*/true});
      }
    }
    if (seed_failed) failing_seeds.push_back(seed);
  }

  for (std::uint64_t seed : failing_seeds) {
    std::fprintf(stderr,
                 "[budget-soak] replay failing seed with: "
                 "--gtest_filter=BudgetSoakMatrix.* (seed %llu)\n",
                 static_cast<unsigned long long>(seed));
  }
  EXPECT_TRUE(failing_seeds.empty());
}

// The guards below keep the matrix from going vacuous: a miscalibrated
// budget or a mistimed node failure would leave its cells equal to the
// reference without ever evicting or recomputing anything. The unlimited
// run computes each cached partition once, so a cell that recomputes
// evicted or dropped partitions computes more.

TEST(BudgetSoakMatrix, TightBudgetEvictsAndRecomputesU) {
  // Batches of 8 make three U passes (the observed all-ones column rides
  // in the first), so later passes re-read what the budget evicted.
  SoakCell unlimited{/*budget=*/0, 4, 8, false};
  unlimited.faithful = true;
  SoakCell tight{kTight, 4, 8, false};
  tight.faithful = true;
  const SoakTraffic reference = RunSoakCell(7, unlimited);
  const SoakTraffic traffic = RunSoakCell(7, tight);
  EXPECT_EQ(reference.evictions, 0u);
  EXPECT_GT(traffic.evictions, 0u);
  EXPECT_GT(traffic.computes, reference.computes);
}

TEST(BudgetSoakMatrix, ZeroBudgetRecomputesPackedGenotypesOnTheDefaultPath) {
  // Without U, the default path's cached data is the packed genotype
  // partitions; a 1-byte budget must evict and recompute them. Batches of
  // 8 make three genotype passes (the observed scores ride in the first),
  // so later passes re-read what earlier ones cached.
  const SoakTraffic reference = RunSoakCell(7, SoakCell{0, 4, 8, false});
  const SoakTraffic traffic =
      RunSoakCell(7, SoakCell{/*budget=*/1, 4, 8, false});
  EXPECT_GT(traffic.evictions, 0u);
  EXPECT_GT(traffic.computes, reference.computes);
}

TEST(BudgetSoakMatrix, MidRunNodeFailureDropsPartitionsTheRunRecomputes) {
  for (bool faithful : {false, true}) {
    SoakCell unlimited{/*budget=*/0, 4, 1, false};
    unlimited.faithful = faithful;
    SoakCell failing{/*budget=*/0, 4, 1, /*fail_node_mid_run=*/true};
    failing.faithful = faithful;
    const SoakTraffic reference = RunSoakCell(7, unlimited);
    const SoakTraffic traffic = RunSoakCell(7, failing);
    EXPECT_GT(traffic.dropped_by_failure, 0u) << SoakCellName(failing);
    EXPECT_GT(traffic.computes, reference.computes) << SoakCellName(failing);
  }
}

}  // namespace
}  // namespace ss::engine
