// Score coefficients: for every model, the marginal score of a genotype
// column is G·v with v = ScoreEngine::Coefficients(), a permuted
// phenotype's coefficients are the observed ones permuted, and a Monte
// Carlo replicate's score Σ_i z_i U_i is G·V(z) — the identities that let
// Algorithms 2 and 3 score coefficient blocks instead of building U.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/resampling.hpp"
#include "stats/score_engine.hpp"
#include "support/distributions.hpp"
#include "support/rng.hpp"

namespace ss::stats {
namespace {

constexpr std::size_t kPatients = 90;

/// Cox phenotype with many tied times (ten distinct values) and ~40%
/// censoring, so tie groups mix events and censorings.
Phenotype TiedCensoredCox(Rng& rng) {
  SurvivalData data;
  for (std::size_t i = 0; i < kPatients; ++i) {
    data.time.push_back(1.0 + static_cast<double>(rng.NextBounded(10)));
    data.event.push_back(rng.NextDouble() < 0.6 ? 1 : 0);
  }
  return Phenotype::Cox(data);
}

Phenotype RandomGaussian(Rng& rng) {
  QuantitativeData data;
  for (std::size_t i = 0; i < kPatients; ++i) {
    data.value.push_back(3.0 + 2.0 * SampleNormal(rng));
  }
  return Phenotype::Gaussian(data);
}

Phenotype RandomBinomial(Rng& rng) {
  BinaryData data;
  for (std::size_t i = 0; i < kPatients; ++i) {
    data.value.push_back(rng.NextDouble() < 0.35 ? 1 : 0);
  }
  return Phenotype::Binomial(data);
}

std::vector<Phenotype> AllModels(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Phenotype> phenotypes;
  phenotypes.push_back(TiedCensoredCox(rng));
  phenotypes.push_back(RandomGaussian(rng));
  phenotypes.push_back(RandomBinomial(rng));
  return phenotypes;
}

std::vector<std::uint8_t> RandomGenotypes(Rng& rng) {
  std::vector<std::uint8_t> genotypes(kPatients);
  for (std::uint8_t& g : genotypes) {
    g = static_cast<std::uint8_t>(rng.NextBounded(3));
  }
  return genotypes;
}

double MaxAbs(const std::vector<double>& values) {
  double max_abs = 0.0;
  for (double value : values) max_abs = std::max(max_abs, std::fabs(value));
  return max_abs;
}

TEST(ScoreCoefficientsTest, GenotypeDotCoefficientsIsTheMarginalScore) {
  for (const Phenotype& phenotype : AllModels(11)) {
    SCOPED_TRACE(ScoreModelName(phenotype.model));
    const ScoreEngine engine(phenotype);
    const std::vector<double> v = engine.Coefficients();
    ASSERT_EQ(v.size(), kPatients);
    Rng rng(12);
    for (int column = 0; column < 50; ++column) {
      const std::vector<std::uint8_t> g = RandomGenotypes(rng);
      const std::vector<double> u = engine.Contributions(g);
      double from_u = 0.0;
      double from_v = 0.0;
      double magnitude = 0.0;  // Σ|terms|: the scale rounding acts on
      for (std::size_t i = 0; i < kPatients; ++i) {
        from_u += u[i];
        const double term = static_cast<double>(g[i]) * v[i];
        from_v += term;
        magnitude += std::fabs(u[i]) + std::fabs(term);
      }
      EXPECT_NEAR(from_u, from_v, 1e-12 * magnitude) << "column " << column;
    }
  }
}

TEST(ScoreCoefficientsTest, CoefficientsSumToZero) {
  // Why a constant genotype column scores exactly 0 under permutation.
  for (const Phenotype& phenotype : AllModels(13)) {
    SCOPED_TRACE(ScoreModelName(phenotype.model));
    const std::vector<double> v = ScoreEngine(phenotype).Coefficients();
    double sum = 0.0;
    for (double value : v) sum += value;
    EXPECT_NEAR(sum, 0.0, 1e-12 * MaxAbs(v) * static_cast<double>(kPatients));
  }
}

TEST(ScoreCoefficientsTest, PermutedPhenotypeGathersCoefficients) {
  // Gather convention: patient i of Permuted(perm) holds the phenotype of
  // patient perm[i], so its coefficient is v[perm[i]].
  for (const Phenotype& phenotype : AllModels(17)) {
    SCOPED_TRACE(ScoreModelName(phenotype.model));
    const std::vector<double> v = ScoreEngine(phenotype).Coefficients();
    const double scale = MaxAbs(v);
    Rng rng(18);
    for (int trial = 0; trial < 20; ++trial) {
      const std::vector<std::uint32_t> perm = SamplePermutation(rng, kPatients);
      const std::vector<double> permuted =
          ScoreEngine(phenotype.Permuted(perm)).Coefficients();
      for (std::size_t i = 0; i < kPatients; ++i) {
        EXPECT_NEAR(permuted[i], v[perm[i]], 1e-15 * scale)
            << "trial " << trial << " patient " << i;
      }
    }
  }
}

TEST(ScoreCoefficientsTest, PaperFaithfulEngineHasTheSameCoefficients) {
  const Phenotype cox = AllModels(19)[0];
  const std::vector<double> fast = ScoreEngine(cox).Coefficients();
  const std::vector<double> faithful =
      ScoreEngine(cox, /*paper_faithful=*/true).Coefficients();
  EXPECT_EQ(fast, faithful);
}

TEST(ScoreCoefficientsTest, PermutedBlockFollowsThePermutationPlan) {
  // Column r of the block for [first, first+count) is v gathered by plan
  // permutation first+r, bit for bit and for every batch split.
  const std::vector<double> v = ScoreEngine(AllModels(23)[0]).Coefficients();
  const std::uint64_t seed = 29;
  const PermutationPlan plan(seed, kPatients, 12);
  for (std::uint64_t first : {0u, 5u}) {
    const std::size_t count = 7;
    const std::vector<double> block =
        PermutedCoefficientBlock(seed, v, first, count);
    ASSERT_EQ(block.size(), kPatients * count);
    for (std::size_t r = 0; r < count; ++r) {
      const std::vector<std::uint32_t>& perm = plan.Get(first + r);
      for (std::size_t i = 0; i < kPatients; ++i) {
        ASSERT_EQ(block[i * count + r], v[perm[i]])
            << "first " << first << " r " << r << " i " << i;
      }
    }
  }
}

bool BitEqual(double a, double b) {
  std::uint64_t ua = 0;
  std::uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  return ua == ub;
}

/// Patient-major block of `count` N(0,1) multiplier columns.
std::vector<double> RandomZBlock(Rng& rng, std::size_t count) {
  std::vector<double> z(kPatients * count);
  for (double& value : z) value = SampleNormal(rng);
  return z;
}

TEST(ScoreCoefficientsTest, MultiplierCoefficientsGiveTheReplicateScore) {
  // Σ_i z_i·Contributions(G)_i = Σ_l G_l V_l(z): within rounding for Cox,
  // bit for bit for Gaussian and Binomial (V(z) = z∘v and G ∈ {0,1,2}
  // scales exactly), in the kernels' ascending-patient order.
  for (const Phenotype& phenotype : AllModels(31)) {
    SCOPED_TRACE(ScoreModelName(phenotype.model));
    const ScoreEngine engine(phenotype);
    Rng rng(32);
    for (int trial = 0; trial < 20; ++trial) {
      const std::vector<double> z = RandomZBlock(rng, 1);
      const std::vector<double> v = engine.CoefficientBlock(z, 1);
      ASSERT_EQ(v.size(), kPatients);
      for (int column = 0; column < 5; ++column) {
        const std::vector<std::uint8_t> g = RandomGenotypes(rng);
        const std::vector<double> u = engine.Contributions(g);
        double from_u = 0.0;
        double from_v = 0.0;
        double magnitude = 0.0;
        for (std::size_t i = 0; i < kPatients; ++i) {
          from_u += z[i] * u[i];
          from_v += v[i] * static_cast<double>(g[i]);
          magnitude += std::fabs(z[i] * u[i]);
        }
        if (phenotype.model == ScoreModel::kCox) {
          EXPECT_NEAR(from_u, from_v, 1e-12 * magnitude)
              << "trial " << trial << " column " << column;
        } else {
          EXPECT_TRUE(BitEqual(from_u, from_v))
              << "trial " << trial << " column " << column << ": " << from_u
              << " vs " << from_v;
        }
      }
    }
  }
}

TEST(ScoreCoefficientsTest, CoxMultiplierColumnsSumToZero) {
  // Why a constant column scores exactly 0 in Cox Monte Carlo; the z∘v
  // columns of the other models carry no such identity.
  Rng rng(33);
  const std::vector<Phenotype> models = AllModels(34);
  for (const Phenotype& phenotype : models) {
    SCOPED_TRACE(ScoreModelName(phenotype.model));
    const std::size_t count = 6;
    const std::vector<double> block = ScoreEngine(phenotype).CoefficientBlock(
        RandomZBlock(rng, count), count);
    for (std::size_t r = 0; r < count; ++r) {
      double sum = 0.0;
      double magnitude = 0.0;
      for (std::size_t i = 0; i < kPatients; ++i) {
        sum += block[i * count + r];
        magnitude += std::fabs(block[i * count + r]);
      }
      if (phenotype.model == ScoreModel::kCox) {
        EXPECT_NEAR(sum, 0.0, 1e-12 * magnitude) << "column " << r;
      } else {
        EXPECT_GT(std::fabs(sum), 1e-6 * magnitude) << "column " << r;
      }
    }
  }
}

TEST(ScoreCoefficientsTest, CoxCoefficientsFollowTheRiskSetDefinition) {
  // v_l = Δ_l − Σ_{i: Y_i <= Y_l} Δ_i / b_i, accumulated the obvious way
  // (ascending distinct times, one 1/b per event): the z ≡ 1 block must
  // reproduce it bit for bit.
  const Phenotype cox = AllModels(35)[0];
  const SurvivalData& data = cox.survival;
  std::map<double, std::vector<std::size_t>> by_time;
  for (std::size_t i = 0; i < kPatients; ++i) {
    by_time[data.time[i]].push_back(i);
  }
  std::vector<double> expected(kPatients);
  double hazard = 0.0;
  for (const auto& [time, patients] : by_time) {
    double b = 0.0;
    for (std::size_t l = 0; l < kPatients; ++l) {
      if (data.time[l] >= time) b += 1.0;
    }
    for (std::size_t i : patients) {
      if (data.event[i] != 0) hazard += 1.0 / b;
    }
    for (std::size_t i : patients) {
      expected[i] = static_cast<double>(data.event[i]) - hazard;
    }
  }
  const std::vector<double> v = ScoreEngine(cox).Coefficients();
  for (std::size_t i = 0; i < kPatients; ++i) {
    EXPECT_TRUE(BitEqual(v[i], expected[i]))
        << "patient " << i << ": " << v[i] << " vs " << expected[i];
  }
}

TEST(ScoreCoefficientsTest, MonteCarloBlockColumnsIndependentOfTheBatch) {
  // Column r of MonteCarloCoefficientBlock(seed, engine, first, count) is
  // the V(z) of MonteCarloWeights' replicate first+r computed on its own,
  // bit for bit, for every model and batch split.
  const std::uint64_t seed = 37;
  const MonteCarloWeights weights(seed, kPatients, 12);
  for (const Phenotype& phenotype : AllModels(38)) {
    SCOPED_TRACE(ScoreModelName(phenotype.model));
    const ScoreEngine engine(phenotype);
    for (std::uint64_t first : {0u, 5u}) {
      const std::size_t count = 7;
      const std::vector<double> block =
          MonteCarloCoefficientBlock(seed, engine, first, count);
      ASSERT_EQ(block.size(), kPatients * count);
      for (std::size_t r = 0; r < count; ++r) {
        const std::vector<double> column =
            engine.CoefficientBlock(weights.Get(first + r), 1);
        for (std::size_t i = 0; i < kPatients; ++i) {
          ASSERT_TRUE(BitEqual(block[i * count + r], column[i]))
              << "first " << first << " r " << r << " i " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ss::stats
