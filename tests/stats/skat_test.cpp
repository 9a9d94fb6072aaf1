#include "stats/skat.hpp"

#include <gtest/gtest.h>

namespace ss::stats {
namespace {

std::unordered_map<std::uint32_t, double> Map(
    std::initializer_list<std::pair<const std::uint32_t, double>> init) {
  return std::unordered_map<std::uint32_t, double>(init);
}

TEST(SkatTest, WeightedSumOfSquaredScores) {
  SnpSet set{0, {1, 2}};
  const auto squared = Map({{1, 4.0}, {2, 9.0}});
  const auto weights = Map({{1, 2.0}, {2, 1.0}});
  // 2^2 * 4 + 1^2 * 9 = 25.
  EXPECT_DOUBLE_EQ(SkatStatistic(set, squared, weights), 25.0);
}

TEST(SkatTest, MissingWeightDefaultsToOne) {
  SnpSet set{0, {1}};
  EXPECT_DOUBLE_EQ(SkatStatistic(set, Map({{1, 3.0}}), {}), 3.0);
}

TEST(SkatTest, FilteredSnpContributesNothing) {
  SnpSet set{0, {1, 99}};
  EXPECT_DOUBLE_EQ(SkatStatistic(set, Map({{1, 5.0}}), {}), 5.0);
}

TEST(SkatTest, StatisticIsNonNegative) {
  SnpSet set{0, {1, 2, 3}};
  const auto squared = Map({{1, 0.1}, {2, 7.0}, {3, 0.0}});
  EXPECT_GE(SkatStatistic(set, squared, Map({{1, 0.5}, {2, 2.0}, {3, 0.0}})),
            0.0);
}

TEST(SkatTest, AdditiveOverSetSplit) {
  // Splitting a set into two pieces: statistics add (linearity in SNPs).
  const auto squared = Map({{1, 1.0}, {2, 4.0}, {3, 9.0}, {4, 16.0}});
  const auto weights = Map({{1, 1.0}, {2, 0.5}, {3, 2.0}, {4, 1.0}});
  SnpSet whole{0, {1, 2, 3, 4}};
  SnpSet left{1, {1, 2}};
  SnpSet right{2, {3, 4}};
  EXPECT_DOUBLE_EQ(SkatStatistic(whole, squared, weights),
                   SkatStatistic(left, squared, weights) +
                       SkatStatistic(right, squared, weights));
}

TEST(SkatTest, WeightScalingQuadratic) {
  // Doubling all weights multiplies the statistic by 4.
  const auto squared = Map({{1, 2.0}, {2, 3.0}});
  const auto weights = Map({{1, 1.5}, {2, 0.5}});
  auto doubled = weights;
  for (auto& [snp, w] : doubled) w *= 2.0;
  SnpSet set{0, {1, 2}};
  EXPECT_DOUBLE_EQ(SkatStatistic(set, squared, doubled),
                   4.0 * SkatStatistic(set, squared, weights));
}

TEST(SkatTest, BatchMatchesSingle) {
  const auto squared = Map({{0, 1.0}, {1, 2.0}, {2, 3.0}});
  const auto weights = Map({{0, 1.0}, {1, 1.0}, {2, 1.0}});
  std::vector<SnpSet> sets = {{0, {0, 1}}, {1, {2}}, {2, {0, 1, 2}}};
  const auto batch = SkatStatistics(sets, squared, weights);
  ASSERT_EQ(batch.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_DOUBLE_EQ(batch[k], SkatStatistic(sets[k], squared, weights));
  }
}

TEST(SkatValidationTest, AcceptsPartition) {
  std::vector<SnpSet> sets = {{0, {0, 1}}, {1, {2}}};
  EXPECT_TRUE(ValidateSnpSets(sets, 3).ok());
}

TEST(SkatValidationTest, RejectsEmptyFamilyAndEmptySet) {
  EXPECT_FALSE(ValidateSnpSets({}, 3).ok());
  std::vector<SnpSet> sets = {{0, {}}};
  EXPECT_FALSE(ValidateSnpSets(sets, 3).ok());
}

TEST(SkatValidationTest, RejectsOutOfRangeSnp) {
  std::vector<SnpSet> sets = {{0, {5}}};
  EXPECT_EQ(ValidateSnpSets(sets, 3).code(), StatusCode::kInvalidArgument);
}

TEST(SkatValidationTest, RejectsRepeatedSetId) {
  std::vector<SnpSet> sets = {{4, {0}}, {7, {1}}, {4, {2}}};
  const Status status = ValidateSnpSets(sets, 3);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("SNP-set id 4"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(CheckDistinctSetIds(sets).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(CheckDistinctSetIds({{4, {0}}, {7, {1}}}).ok());
}

TEST(SkatValidationTest, AllowsOverlap) {
  std::vector<SnpSet> sets = {{0, {0, 1}}, {1, {1, 2}}};
  EXPECT_TRUE(ValidateSnpSets(sets, 3).ok());
}

TEST(UnionOfSetsTest, DeduplicatesAndSorts) {
  std::vector<SnpSet> sets = {{0, {3, 1}}, {1, {1, 2}}};
  EXPECT_EQ(UnionOfSets(sets), (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(UnionOfSetsTest, EmptyFamily) {
  EXPECT_TRUE(UnionOfSets({}).empty());
}

}  // namespace
}  // namespace ss::stats
