// Burden / SKAT-O combination tests.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/burden.hpp"
#include "support/distributions.hpp"
#include "support/rng.hpp"

namespace ss::stats {
namespace {

std::unordered_map<std::uint32_t, double> Map(
    std::initializer_list<std::pair<const std::uint32_t, double>> init) {
  return std::unordered_map<std::uint32_t, double>(init);
}

TEST(BurdenTest, SquaredWeightedSum) {
  SnpSet set{0, {1, 2}};
  // (2*3 + 1*(-1))^2 = 25.
  EXPECT_DOUBLE_EQ(
      BurdenStatistic(set, Map({{1, 3.0}, {2, -1.0}}), Map({{1, 2.0}, {2, 1.0}})),
      25.0);
}

TEST(BurdenTest, OppositeEffectsCancel) {
  // The classic burden weakness SKAT avoids: equal and opposite scores.
  SnpSet set{0, {1, 2}};
  const auto scores = Map({{1, 5.0}, {2, -5.0}});
  const auto weights = Map({{1, 1.0}, {2, 1.0}});
  EXPECT_DOUBLE_EQ(BurdenStatistic(set, scores, weights), 0.0);
  // SKAT sees the signal (uses squared scores).
  EXPECT_DOUBLE_EQ(SkatStatistic(set, Map({{1, 25.0}, {2, 25.0}}), weights),
                   50.0);
}

TEST(BurdenTest, AlignedEffectsBeatSkatScale) {
  // With aligned effects, burden = (sum)^2 > sum of squares = SKAT.
  SnpSet set{0, {1, 2}};
  const auto scores = Map({{1, 3.0}, {2, 4.0}});
  const auto weights = Map({{1, 1.0}, {2, 1.0}});
  EXPECT_DOUBLE_EQ(BurdenStatistic(set, scores, weights), 49.0);
  EXPECT_DOUBLE_EQ(SkatStatistic(set, Map({{1, 9.0}, {2, 16.0}}), weights),
                   25.0);
}

TEST(BurdenTest, MissingWeightDefaultsToOneAndFilteredSnpSkipped) {
  SnpSet set{0, {1, 99}};
  EXPECT_DOUBLE_EQ(BurdenStatistic(set, Map({{1, 2.0}}), {}), 4.0);
}

TEST(BurdenTest, BatchMatchesSingle) {
  const auto scores = Map({{0, 1.0}, {1, -2.0}, {2, 3.0}});
  const auto weights = Map({{0, 1.0}, {1, 0.5}, {2, 2.0}});
  std::vector<SnpSet> sets = {{0, {0, 1}}, {1, {2}}};
  const auto batch = BurdenStatistics(sets, scores, weights);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_DOUBLE_EQ(batch[0], BurdenStatistic(sets[0], scores, weights));
  EXPECT_DOUBLE_EQ(batch[1], BurdenStatistic(sets[1], scores, weights));
}

TEST(SkatOTest, GridEndpointsAreBurdenAndSkat) {
  const auto grid = SkatORhoGrid();
  ASSERT_GE(grid.size(), 2u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.0);
  EXPECT_DOUBLE_EQ(grid.back(), 1.0);
  const auto q = SkatOGridStatistics(100.0, 40.0, grid);
  EXPECT_DOUBLE_EQ(q.front(), 40.0);   // rho=0: pure SKAT
  EXPECT_DOUBLE_EQ(q.back(), 100.0);   // rho=1: pure burden
}

TEST(SkatOTest, PValueInUnitIntervalAndNullish) {
  // Null replicates from the same distribution as the observed grid: the
  // p-value should be unremarkable.
  Rng rng(7);
  auto make_grid = [&]() {
    const double burden = std::pow(SampleNormal(rng), 2);
    const double skat = std::pow(SampleNormal(rng), 2) + std::pow(SampleNormal(rng), 2);
    return SkatOGridStatistics(burden, skat, SkatORhoGrid());
  };
  const auto observed = make_grid();
  std::vector<std::vector<double>> replicates;
  for (int b = 0; b < 200; ++b) replicates.push_back(make_grid());
  const double p = SkatOPValue(observed, replicates);
  EXPECT_GT(p, 0.0);
  EXPECT_LE(p, 1.0);
}

TEST(SkatOTest, DetectsSignalRegardlessOfDirectionMix) {
  // Observed grid far in the tail of the null replicates -> small p.
  Rng rng(8);
  std::vector<std::vector<double>> replicates;
  for (int b = 0; b < 99; ++b) {
    replicates.push_back(SkatOGridStatistics(std::fabs(SampleNormal(rng)),
                                             std::fabs(SampleNormal(rng)),
                                             SkatORhoGrid()));
  }
  const auto observed = SkatOGridStatistics(500.0, 500.0, SkatORhoGrid());
  EXPECT_DOUBLE_EQ(SkatOPValue(observed, replicates), 1.0 / 100.0);
}

TEST(SkatOTest, NoReplicatesGivesOne) {
  EXPECT_DOUBLE_EQ(SkatOPValue({1.0, 2.0}, {}), 1.0);
}

}  // namespace
}  // namespace ss::stats
