#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <random>
#include <thread>

#include "baseline/serial_skat.hpp"
#include "stats/score_engine.hpp"

namespace perfbench {
namespace {

using ss::core::PValueMethod;
using ss::core::ResamplingMethod;

bool RelativeClose(double actual, double expected, double tolerance) {
  const double scale = std::max(std::fabs(expected), 1e-300);
  return std::fabs(actual - expected) <= tolerance * scale;
}

std::string Describe(const char* what, std::uint32_t set_id, double actual,
                     double expected) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "%s of set %u: got %.17g, want %.17g",
                what, set_id, actual, expected);
  return buffer;
}

/// The sets' SNPs as a standalone cohort with SNP ids renumbered 0..m'-1;
/// member order (the fold order) is preserved.
struct SubCohort {
  ss::simdata::GenotypeMatrix genotypes;
  std::vector<double> weights;
  std::vector<ss::stats::SnpSet> sets;
};

SubCohort Extract(const ss::simdata::SyntheticDataset& dataset,
                  const std::vector<const ss::stats::SnpSet*>& sets) {
  SubCohort sub;
  sub.genotypes.num_patients = dataset.genotypes.num_patients;
  std::unordered_map<std::uint32_t, std::uint32_t> renumbered;
  for (const ss::stats::SnpSet* set : sets) {
    ss::stats::SnpSet copy;
    copy.id = set->id;
    for (std::uint32_t snp : set->snps) {
      auto [it, inserted] = renumbered.emplace(
          snp, static_cast<std::uint32_t>(sub.genotypes.by_snp.size()));
      if (inserted) {
        sub.genotypes.by_snp.push_back(dataset.genotypes.by_snp[snp]);
        sub.genotypes.allele_freq.push_back(dataset.genotypes.allele_freq[snp]);
        sub.weights.push_back(dataset.weights[snp]);
      }
      copy.snps.push_back(it->second);
    }
    sub.sets.push_back(std::move(copy));
  }
  return sub;
}

}  // namespace

Reference::Reference(const Workload& workload, std::uint64_t seed)
    : workload_(workload),
      seed_(seed),
      dataset_(ss::simdata::Generate(GeneratorFor(workload, seed))) {
  const ss::stats::Phenotype phenotype =
      ss::stats::Phenotype::Cox(dataset_.survival);
  const ss::baseline::SkatInputs inputs{&dataset_.genotypes, &phenotype,
                                        &dataset_.weights, &dataset_.sets};
  const ss::baseline::SkatAnalysis analysis =
      ss::baseline::SerialObserved(inputs);
  for (std::size_t k = 0; k < dataset_.sets.size(); ++k) {
    observed_[dataset_.sets[k].id] = analysis.observed[k];
  }
}

std::vector<std::uint32_t> Reference::SampleSets(std::uint32_t count) const {
  std::vector<std::uint32_t> ids;
  for (const ss::stats::SnpSet& set : dataset_.sets) ids.push_back(set.id);
  if (count != 0 && count < ids.size()) {
    std::mt19937_64 rng(seed_ ^ 0x5eedc0ffeeULL);
    std::shuffle(ids.begin(), ids.end(), rng);
    ids.resize(count);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void Reference::ComputeExceedances(const std::vector<std::uint32_t>& set_ids) {
  std::unordered_map<std::uint32_t, const ss::stats::SnpSet*> by_id;
  for (const ss::stats::SnpSet& set : dataset_.sets) by_id[set.id] = &set;

  const std::size_t threads = std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), set_ids.size());
  std::vector<std::vector<const ss::stats::SnpSet*>> chunks(threads);
  for (std::size_t i = 0; i < set_ids.size(); ++i) {
    chunks[i % threads].push_back(by_id.at(set_ids[i]));
  }
  const ss::stats::Phenotype phenotype =
      ss::stats::Phenotype::Cox(dataset_.survival);
  std::vector<ss::baseline::SkatAnalysis> analyses(threads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const SubCohort sub = Extract(dataset_, chunks[t]);
      const ss::baseline::SkatInputs inputs{&sub.genotypes, &phenotype,
                                            &sub.weights, &sub.sets};
      analyses[t] =
          workload_.method == ResamplingMethod::kPermutation
              ? ss::baseline::SerialPermutation(inputs, seed_,
                                                workload_.replicates)
              : ss::baseline::SerialMonteCarlo(inputs, seed_,
                                               workload_.replicates);
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (std::size_t t = 0; t < threads; ++t) {
    for (std::size_t k = 0; k < chunks[t].size(); ++k) {
      exceed_[chunks[t][k]->id] = analyses[t].exceed_count[k];
    }
  }
}

std::string Reference::Check(const ss::core::ResamplingResult& result) const {
  if (result.replicates != workload_.replicates) {
    return "replicates: got " + std::to_string(result.replicates) + ", want " +
           std::to_string(workload_.replicates);
  }
  if (result.observed.size() != observed_.size()) {
    return "result covers " + std::to_string(result.observed.size()) +
           " sets, want " + std::to_string(observed_.size());
  }
  const bool hybrid = workload_.pvalue == PValueMethod::kHybrid;
  for (const auto& [set_id, expected] : observed_) {
    const auto it = result.observed.find(set_id);
    if (it == result.observed.end()) {
      return "set " + std::to_string(set_id) + " missing from the result";
    }
    if (!RelativeClose(it->second, expected, 1e-9)) {
      return Describe("observed statistic", set_id, it->second, expected);
    }
    const auto count_it = result.exceed.find(set_id);
    const std::uint64_t count =
        count_it == result.exceed.end() ? 0 : count_it->second;
    if (count > workload_.replicates) {
      return "exceedance count of set " + std::to_string(set_id) +
             " exceeds B";
    }
    if (!hybrid) continue;
    const auto info_it = result.inference.find(set_id);
    if (info_it == result.inference.end()) {
      return "set " + std::to_string(set_id) + " has no inference record";
    }
    const ss::core::SetInference& info = info_it->second;
    const double screen_p = screen_p_.at(set_id);
    if (!RelativeClose(info.analytic_p, screen_p, 1e-6)) {
      return Describe("analytic p-value", set_id, info.analytic_p, screen_p);
    }
    const bool refine = screen_p < workload_.refine_threshold;
    const std::uint64_t used = refine ? workload_.replicates : 0;
    if (info.refined != refine || info.replicates_used != used ||
        (!refine && count != 0)) {
      return "refinement of set " + std::to_string(set_id) + ": refined=" +
             std::to_string(info.refined) + " used=" +
             std::to_string(info.replicates_used) + ", want refined=" +
             std::to_string(refine) + " used=" + std::to_string(used);
    }
  }
  for (const auto& [set_id, expected] : exceed_) {
    const auto it = result.exceed.find(set_id);
    const std::uint64_t count = it == result.exceed.end() ? 0 : it->second;
    if (count != expected) {
      return "exceedance count of set " + std::to_string(set_id) + ": got " +
             std::to_string(count) + ", want " + std::to_string(expected);
    }
  }
  return "";
}

}  // namespace perfbench
