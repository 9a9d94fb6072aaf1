#include "core/paper_faithful.hpp"

#include "core/score_block.hpp"
#include "engine/profile.hpp"
#include "engine/trace.hpp"
#include "stats/resampling.hpp"
#include "support/status.hpp"

namespace ss::core {
namespace {

/// snp -> list of containing set ids (step 11's aggregation map).
std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> BuildSnpToSets(
    const std::vector<stats::SnpSet>& sets) {
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> map;
  for (const stats::SnpSet& set : sets) {
    for (std::uint32_t snp : set.snps) {
      map[snp].push_back(set.id);
    }
  }
  return map;
}

struct NoScratch {};

}  // namespace

PaperFaithful::PaperFaithful(engine::EngineContext& ctx,
                             const PipelineConfig& config,
                             engine::Dataset<stats::PackedSnpRecord> genotypes,
                             WeightDataset weights, stats::Phenotype phenotype,
                             const std::vector<stats::SnpSet>& sets)
    : ctx_(&ctx), config_(config), genotypes_(std::move(genotypes)),
      weights_(std::move(weights)), phenotype_(std::move(phenotype)),
      snp_to_sets_(engine::MakeBroadcast(ctx, BuildSnpToSets(sets))) {
  set_ids_.reserve(sets.size());
  for (const stats::SnpSet& set : sets) set_ids_.push_back(set.id);
}

PaperFaithful::UDataset PaperFaithful::BuildU(
    const engine::Broadcast<stats::ScoreEngine>& engine) const {
  // Steps 6-7: per-SNP contributions under the broadcast phenotype. The
  // 2-bit block decodes back to dosages at the point of use; the roundtrip
  // is lossless so scores are bitwise unchanged. The unpack is profiled as
  // decode time (untraced: one span per record would flood the Chrome
  // trace; coalescing keeps the accounting exact).
  return genotypes_.Map([engine](const stats::PackedSnpRecord& record) {
    std::vector<std::uint8_t> dosages;
    {
      ss::engine::PhaseTimer decode_phase(ss::engine::TaskPhase::kDecode,
                                          /*trace=*/false);
      record.genotypes.UnpackInto(&dosages);
    }
    return std::pair<std::uint32_t, std::vector<double>>(
        record.snp, engine->Contributions(dosages));
  });
}

SetScores PaperFaithful::SetScoresFromU(const UDataset& u) const {
  // Step 8: U_j² = (Σ_i U_ij)².
  auto inner_sigma = u.Map(
      [](const std::pair<std::uint32_t, std::vector<double>>& record) {
        double total = 0.0;
        for (double contribution : record.second) total += contribution;
        return std::pair<std::uint32_t, double>(record.first, total * total);
      });
  // Step 9: join with squared weights. Step 10: per-SNP score.
  auto weights_sq =
      weights_.Map([](const std::pair<std::uint32_t, double>& weight) {
        return std::pair<std::uint32_t, double>(weight.first,
                                                weight.second * weight.second);
      });
  auto joined = engine::Join(weights_sq, inner_sigma, config_.num_reducers);
  auto snp_scores =
      joined.Map([](const std::pair<std::uint32_t, std::pair<double, double>>&
                        record) {
        return std::pair<std::uint32_t, double>(
            record.first, record.second.first * record.second.second);
      });

  // Steps 11-12: scatter each SNP's score to its containing sets and sum.
  auto map = snp_to_sets_;
  auto set_contributions = snp_scores.FlatMap(
      [map](const std::pair<std::uint32_t, double>& record) {
        std::vector<std::pair<std::uint32_t, double>> out;
        auto it = map->find(record.first);
        if (it != map->end()) {
          out.reserve(it->second.size());
          for (std::uint32_t set_id : it->second) {
            out.push_back({set_id, record.second});
          }
        }
        return out;
      });
  auto set_scores = engine::ReduceByKey(
      set_contributions, [](double a, double b) { return a + b; },
      config_.num_reducers);
  SetScores observed = engine::CollectAsMap(set_scores, "collect-set-scores");
  // Sets none of whose SNPs survived filtering score 0.
  for (std::uint32_t set_id : set_ids_) observed.try_emplace(set_id, 0.0);
  return observed;
}

void PaperFaithful::EnsureUBuilt() {
  if (u_built_) return;
  auto engine_bcast = engine::MakeBroadcast(
      *ctx_, stats::ScoreEngine(phenotype_, config_.paper_faithful_scores));
  u_observed_ = BuildU(engine_bcast);
  if (config_.cache_contributions && config_.paper_faithful_scores) {
    // Algorithm 3 step 2: paper-faithful Monte Carlo re-reads U every
    // batch. An observed-only call reads it once, where a cached copy
    // would only hold U's bytes for nothing.
    u_observed_.Cache();
  }
  u_built_ = true;
}

SetScores PaperFaithful::ComputeObserved() {
  engine::TraceSpan span(engine::Tracer::Global(), "algo", "observed skat");
  EnsureUBuilt();
  return SetScoresFromU(u_observed_);
}

ScoreBlock PaperFaithful::ComputeMonteCarloScoreBlock(
    const std::vector<double>& zblock, std::size_t count,
    std::shared_ptr<const std::unordered_set<std::uint32_t>> live_snps) {
  SS_CHECK(zblock.size() == count * phenotype_.n());
  engine::TraceSpan span(engine::Tracer::Global(), "algo",
                         "monte-carlo score block",
                         {engine::Arg("replicates", count)});
  EnsureUBuilt();
  auto z = engine::MakeBroadcast(*ctx_, zblock);
  return CollectScoreBlock<NoScratch>(
      u_observed_, count, std::move(live_snps), "collect-score-block",
      [z, count](const std::pair<std::uint32_t, std::vector<double>>& record,
                 NoScratch*, double* row) {
        stats::BatchedReplicateScores(record.second, z->data(), count, row);
      });
}

SetScores PaperFaithful::ComputePermutationReplicate(
    const std::vector<std::uint32_t>& perm) {
  // Algorithm 2: rebroadcast a permuted phenotype and rerun steps 6-12.
  engine::TraceSpan span(engine::Tracer::Global(), "algo",
                         "permutation replicate");
  auto engine_bcast = engine::MakeBroadcast(
      *ctx_, stats::ScoreEngine(phenotype_.Permuted(perm),
                                config_.paper_faithful_scores));
  return SetScoresFromU(BuildU(engine_bcast));
}

}  // namespace ss::core
