#include "stats/score_engine.hpp"

#include "stats/cox_score.hpp"
#include "support/status.hpp"

namespace ss::stats {

const char* ScoreModelName(ScoreModel model) {
  switch (model) {
    case ScoreModel::kCox: return "Cox";
    case ScoreModel::kGaussian: return "Gaussian";
    case ScoreModel::kBinomial: return "Binomial";
  }
  return "?";
}

Phenotype Phenotype::Cox(SurvivalData data) {
  Phenotype p;
  p.model = ScoreModel::kCox;
  p.survival = std::move(data);
  return p;
}

Phenotype Phenotype::Gaussian(QuantitativeData data) {
  Phenotype p;
  p.model = ScoreModel::kGaussian;
  p.quantitative = std::move(data);
  return p;
}

Phenotype Phenotype::Binomial(BinaryData data) {
  Phenotype p;
  p.model = ScoreModel::kBinomial;
  p.binary = std::move(data);
  return p;
}

std::size_t Phenotype::n() const {
  switch (model) {
    case ScoreModel::kCox: return survival.n();
    case ScoreModel::kGaussian: return quantitative.n();
    case ScoreModel::kBinomial: return binary.n();
  }
  return 0;
}

Phenotype Phenotype::Permuted(const std::vector<std::uint32_t>& perm) const {
  SS_CHECK(perm.size() == n());
  Phenotype out;
  out.model = model;
  switch (model) {
    case ScoreModel::kCox:
      out.survival = survival.Permuted(perm);
      break;
    case ScoreModel::kGaussian:
      out.quantitative.value.resize(n());
      for (std::size_t i = 0; i < n(); ++i) {
        out.quantitative.value[i] = quantitative.value[perm[i]];
      }
      break;
    case ScoreModel::kBinomial:
      out.binary.value.resize(n());
      for (std::size_t i = 0; i < n(); ++i) {
        out.binary.value[i] = binary.value[perm[i]];
      }
      break;
  }
  return out;
}

ScoreEngine::ScoreEngine(Phenotype phenotype, bool paper_faithful)
    : phenotype_(std::move(phenotype)), paper_faithful_(paper_faithful) {
  switch (phenotype_.model) {
    case ScoreModel::kCox:
      if (!paper_faithful_) {
        risk_index_ = std::make_unique<RiskSetIndex>(phenotype_.survival);
      }
      break;
    case ScoreModel::kGaussian:
      center_ = phenotype_.quantitative.Mean();
      break;
    case ScoreModel::kBinomial:
      center_ = phenotype_.binary.CaseRate();
      break;
  }
}

std::vector<double> ScoreEngine::Contributions(
    const std::vector<std::uint8_t>& genotypes) const {
  switch (phenotype_.model) {
    case ScoreModel::kCox:
      if (paper_faithful_) {
        return CoxScoreContributionsNaive(phenotype_.survival, genotypes);
      }
      return CoxScoreContributions(phenotype_.survival, *risk_index_,
                                   genotypes);
    case ScoreModel::kGaussian:
      return LinearScoreContributions(phenotype_.quantitative, center_,
                                      genotypes);
    case ScoreModel::kBinomial:
      return LogisticScoreContributions(phenotype_.binary, center_, genotypes);
  }
  return {};
}

std::vector<double> ScoreEngine::Coefficients() const {
  switch (phenotype_.model) {
    case ScoreModel::kCox:
      if (risk_index_ == nullptr) {  // paper-faithful engines skip the index
        return CoxScoreCoefficients(phenotype_.survival,
                                    RiskSetIndex(phenotype_.survival));
      }
      return CoxScoreCoefficients(phenotype_.survival, *risk_index_);
    case ScoreModel::kGaussian: {
      std::vector<double> v(n());
      for (std::size_t i = 0; i < n(); ++i) {
        v[i] = phenotype_.quantitative.value[i] - center_;
      }
      return v;
    }
    case ScoreModel::kBinomial: {
      std::vector<double> v(n());
      for (std::size_t i = 0; i < n(); ++i) {
        v[i] = static_cast<double>(phenotype_.binary.value[i]) - center_;
      }
      return v;
    }
  }
  return {};
}

}  // namespace ss::stats
