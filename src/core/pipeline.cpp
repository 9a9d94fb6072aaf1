#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <functional>

#include "core/record_traits.hpp"  // IWYU pragma: keep (ApproxBytesImpl specializations)
#include "core/store_source.hpp"
#include "dfs/genotype_store.hpp"
#include "engine/dataset_ops.hpp"
#include "simdata/store_codec.hpp"
#include "engine/profile.hpp"
#include "engine/trace.hpp"
#include "stats/kernels/kernels.hpp"
#include "stats/resampling.hpp"
#include "support/log.hpp"

namespace ss::core {
namespace {

using engine::Dataset;
using simdata::SnpRecord;

/// Parses one genotype line inside a task; malformed input is a task
/// failure (fails the job after retries rather than skewing results).
SnpRecord ParseSnpRecordOrThrow(const std::string& line) {
  Result<SnpRecord> record = simdata::ParseSnpRecord(line);
  if (!record.ok()) {
    throw engine::TaskFailure(record.status().ToString());
  }
  return std::move(record).value();
}

std::pair<std::uint32_t, double> ParseWeightSquaredOrThrow(
    const std::string& line) {
  Result<simdata::WeightRecord> record = simdata::ParseWeight(line);
  if (!record.ok()) {
    throw engine::TaskFailure(record.status().ToString());
  }
  // Step 2 emits (SNP j, ω_j²).
  return {record.value().snp, record.value().weight * record.value().weight};
}

std::pair<std::uint32_t, double> ParseWeightOrThrow(const std::string& line) {
  Result<simdata::WeightRecord> record = simdata::ParseWeight(line);
  if (!record.ok()) {
    throw engine::TaskFailure(record.status().ToString());
  }
  return {record.value().snp, record.value().weight};
}

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

/// Membership bitmap over 0..max_snp for the step-4 filter.
std::vector<std::uint8_t> BuildMembership(
    const std::vector<stats::SnpSet>& sets) {
  std::uint32_t max_snp = 0;
  for (const stats::SnpSet& set : sets) {
    for (std::uint32_t snp : set.snps) max_snp = std::max(max_snp, snp);
  }
  std::vector<std::uint8_t> member(max_snp + 1, 0);
  for (const stats::SnpSet& set : sets) {
    for (std::uint32_t snp : set.snps) member[snp] = 1;
  }
  return member;
}

/// Row a of a weighted Gram, entries (a, b≥a) and their mirrors:
/// M_ab = w_a w_b Σ_i u_a[i] u_b[i]. Four columns share each pass over
/// u_a, but every dot is still its own ascending-i accumulator chain, so
/// each entry is bitwise the plain one-column loop's.
void FillGramRow(const std::vector<const std::vector<double>*>& u,
                 const std::vector<double>& w, std::size_t a,
                 stats::Matrix* gram) {
  const std::size_t d = u.size();
  const std::vector<double>& ua = *u[a];
  const std::size_t n = ua.size();
  const auto store = [&](std::size_t b, double dot) {
    const double m = w[a] * w[b] * dot;
    gram->at(a, b) = m;
    gram->at(b, a) = m;
  };
  std::size_t b = a;
  for (; b + 4 <= d; b += 4) {
    const double* u0 = u[b]->data();
    const double* u1 = u[b + 1]->data();
    const double* u2 = u[b + 2]->data();
    const double* u3 = u[b + 3]->data();
    double dot0 = 0.0;
    double dot1 = 0.0;
    double dot2 = 0.0;
    double dot3 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = ua[i];
      dot0 += x * u0[i];
      dot1 += x * u1[i];
      dot2 += x * u2[i];
      dot3 += x * u3[i];
    }
    store(b, dot0);
    store(b + 1, dot1);
    store(b + 2, dot2);
    store(b + 3, dot3);
  }
  for (; b < d; ++b) {
    const std::vector<double>& ub = *u[b];
    double dot = 0.0;
    for (std::size_t i = 0; i < n; ++i) dot += ua[i] * ub[i];
    store(b, dot);
  }
}

std::uint32_t SnpOf(
    const std::pair<std::uint32_t, std::vector<double>>& record) {
  return record.first;
}
std::uint32_t SnpOf(const stats::PackedSnpRecord& record) { return record.snp; }
std::uint32_t SnpOf(const SnpRecord& record) { return record.snp; }

/// The score-block scaffold: one MapPartitions pass that scores every
/// record whose SNP is live (all, when `live_snps` is null) and collects
/// SNP -> replicate scores to the driver. `score(record, &scratch,
/// &scores)` fills one SNP's scores; `Scratch` is per-partition working
/// memory.
template <typename Scratch, typename Record, typename Score>
std::unordered_map<std::uint32_t, std::vector<double>> CollectScoreBlock(
    const Dataset<Record>& records,
    std::shared_ptr<const std::unordered_set<std::uint32_t>> live_snps,
    Score score) {
  auto scored = records.MapPartitions(
      [live_snps, score](std::uint32_t, const std::vector<Record>& partition) {
        std::vector<std::pair<std::uint32_t, std::vector<double>>> out;
        out.reserve(partition.size());
        Scratch scratch;
        std::vector<double> scores;
        for (const Record& record : partition) {
          const std::uint32_t snp = SnpOf(record);
          if (live_snps != nullptr && live_snps->count(snp) == 0) continue;
          score(record, &scratch, &scores);
          out.push_back({snp, scores});
        }
        return out;
      });
  return engine::CollectAsMap(scored, "collect-score-block");
}

struct NoScratch {};

struct GenotypeScratch {
  std::vector<std::uint8_t> dosages;
  std::vector<double> widened;
};

/// out[r] = Σ_i G_i · vblock[i*count + r]. When the block's columns sum to
/// zero exactly (`zero_sum_columns`), a constant column scores exactly 0,
/// its exact value: Σ_l c·V_l would instead leave rounding noise that
/// decides its exceedances by coin flip. Otherwise it is scored like any
/// other column, as the U path scores it.
void GenotypeScores(const std::vector<std::uint8_t>& dosages,
                    const double* vblock, std::size_t count,
                    bool zero_sum_columns, std::vector<double>* widened,
                    std::vector<double>* out) {
  if (zero_sum_columns &&
      std::adjacent_find(dosages.begin(), dosages.end(),
                         std::not_equal_to<>()) == dosages.end()) {
    out->assign(count, 0.0);
    return;
  }
  widened->assign(dosages.begin(), dosages.end());
  stats::BatchedReplicateScores(*widened, vblock, count, out);
}

}  // namespace

SkatPipeline::SkatPipeline(engine::EngineContext& ctx,
                           const PipelineConfig& config,
                           Dataset<SnpRecord> genotypes,
                           stats::Phenotype phenotype,
                           std::vector<double> weights,
                           std::vector<stats::SnpSet> sets)
    : ctx_(&ctx), config_(config), phenotype_(std::move(phenotype)),
      sets_(std::move(sets)) {
  SS_CHECK(!sets_.empty());

  if (config_.cache_budget_bytes != 0) {
    ctx.cache().SetCapacityBytes(config_.cache_budget_bytes);
  }

  // Every run reports which kernel tier it executed with (the gauge
  // lands in the metrics JSON "kernel" section).
  engine::CounterRegistry::Global()
      .Get("kernel.dispatch")
      .store(static_cast<std::uint64_t>(stats::kernels::ActiveDispatchLevel()),
             std::memory_order_relaxed);

  // Step 4: filter the genotype matrix to the union of all SNP-sets. The
  // membership bitmap is broadcast (it is tiny relative to genotypes).
  auto membership = engine::MakeBroadcast(ctx, BuildMembership(sets_));
  fgm_ = genotypes.Filter([membership](const SnpRecord& record) {
    return record.snp < membership->size() && (*membership)[record.snp] != 0;
  });

  if (config_.pack_genotypes) {
    // The genotype partitions that live in the cache (and spill under a
    // budget) are the 2-bit packed form — 4x fewer bytes. The byte
    // counters track both representations so the run report can show
    // the savings; lineage recomputation re-adds to both, preserving
    // the packed/unpacked ratio.
    auto& registry = engine::CounterRegistry::Global();
    std::atomic<std::uint64_t>* packed_bytes =
        &registry.Get("genotype.packed_bytes");
    std::atomic<std::uint64_t>* unpacked_bytes =
        &registry.Get("genotype.unpacked_bytes");
    fgm_packed_ = fgm_.Map(
        [packed_bytes, unpacked_bytes](const SnpRecord& record) {
          stats::PackedSnpRecord packed{
              record.snp, stats::PackedGenotypeBlock::Pack(record.genotypes)};
          unpacked_bytes->fetch_add(record.genotypes.size(),
                                    std::memory_order_relaxed);
          packed_bytes->fetch_add(packed.genotypes.payload().size(),
                                  std::memory_order_relaxed);
          return packed;
        });
    if (config_.cache_contributions) {
      // Resampling batches score the genotypes every pass; caching the
      // packed form keeps them off the parse chain at a quarter of the
      // unpacked footprint.
      fgm_packed_.Cache();
    }
  }

  // Step 2 result, from driver-side weights (in-memory construction path).
  std::vector<std::pair<std::uint32_t, double>> weight_sq_pairs;
  std::vector<std::pair<std::uint32_t, double>> weight_pairs;
  weight_sq_pairs.reserve(weights.size());
  weight_pairs.reserve(weights.size());
  for (std::uint32_t j = 0; j < weights.size(); ++j) {
    weight_sq_pairs.push_back({j, weights[j] * weights[j]});
    weight_pairs.push_back({j, weights[j]});
  }
  weights_sq_ =
      engine::Parallelize(ctx, weight_sq_pairs, config_.num_partitions);
  weights_ = engine::Parallelize(ctx, weight_pairs, config_.num_partitions);

  snp_to_sets_ = engine::MakeBroadcast(ctx, BuildSnpToSets(sets_));
}

Result<SkatPipeline> SkatPipeline::Open(engine::EngineContext& ctx,
                                        const simdata::StudyPaths& paths,
                                        const PipelineConfig& config) {
  SS_CHECK(ctx.dfs() != nullptr);

  // Phenotype: small, read whole on the driver then broadcast (step 5).
  // The file's "#model" header selects Cox/Gaussian/Binomial.
  Result<std::vector<std::string>> phenotype_lines =
      ctx.dfs()->ReadTextFile(paths.phenotype);
  if (!phenotype_lines.ok()) return phenotype_lines.status();
  Result<stats::Phenotype> phenotype =
      simdata::ParsePhenotypeFile(phenotype_lines.value());
  if (!phenotype.ok()) return phenotype.status();

  // SNP-sets: also small and driver-resident.
  Result<std::vector<std::string>> set_lines =
      ctx.dfs()->ReadTextFile(paths.snp_sets);
  if (!set_lines.ok()) return set_lines.status();
  std::vector<stats::SnpSet> sets;
  sets.reserve(set_lines.value().size());
  for (const std::string& line : set_lines.value()) {
    Result<stats::SnpSet> set = simdata::ParseSnpSet(line);
    if (!set.ok()) return set.status();
    sets.push_back(std::move(set).value());
  }

  // Weights: distributed parse (step 2). Note: unlike the in-memory
  // constructor we keep them as a dataset end-to-end.
  Dataset<std::string> weight_lines = engine::TextFile(ctx, paths.weights);
  Dataset<std::pair<std::uint32_t, double>> weights_sq =
      weight_lines.Map(ParseWeightSquaredOrThrow);
  Dataset<std::pair<std::uint32_t, double>> weights_unsquared =
      weight_lines.Map(ParseWeightOrThrow);

  // Genotype matrix: distributed parse (step 3), one partition per block.
  Dataset<SnpRecord> genotypes =
      engine::TextFile(ctx, paths.genotypes).Map(ParseSnpRecordOrThrow);

  SkatPipeline pipeline(ctx, config, genotypes, std::move(phenotype).value(),
                        /*weights=*/{}, sets);
  pipeline.weights_sq_ = weights_sq;  // replace the (empty) in-memory weights
  pipeline.weights_ = weights_unsquared;
  // The staged file's model is authoritative.
  pipeline.config_.model = pipeline.phenotype_.model;
  return pipeline;
}

Result<SkatPipeline> SkatPipeline::OpenFromStore(
    engine::EngineContext& ctx, const std::string& store_path,
    const PipelineConfig& config,
    std::optional<std::uint64_t> expected_fingerprint) {
  auto store_or = dfs::GenotypeStore::Open(store_path);
  if (!store_or.ok()) return store_or.status();
  std::shared_ptr<dfs::GenotypeStore> store = std::move(store_or).value();

  if (expected_fingerprint.has_value() &&
      *expected_fingerprint != store->fingerprint()) {
    // Never silently re-ingest over a mismatch: the caller asked for one
    // specific cohort and this file holds another.
    return Status(
        StatusCode::kInvalidArgument,
        "genotype store fingerprint mismatch at " + store_path +
            ": expected " + std::to_string(*expected_fingerprint) +
            " but the file has " + std::to_string(store->fingerprint()) +
            " (staged as: " + store->description() +
            "); restage the store or pass the parameters it was staged with");
  }

  // Aux frames -> driver-side phenotype / weights / SNP-sets, through the
  // same strict parsers as the DFS text path.
  auto phenotype_bytes = store->ReadAuxFrame(dfs::StoreFrameKind::kPhenotype);
  if (!phenotype_bytes.ok()) return phenotype_bytes.status();
  Result<stats::Phenotype> phenotype = simdata::ParsePhenotypeFile(
      simdata::DecodeTextLines(phenotype_bytes.value()));
  if (!phenotype.ok()) return phenotype.status();

  auto set_bytes = store->ReadAuxFrame(dfs::StoreFrameKind::kSets);
  if (!set_bytes.ok()) return set_bytes.status();
  std::vector<stats::SnpSet> sets;
  for (const std::string& line :
       simdata::DecodeTextLines(set_bytes.value())) {
    Result<stats::SnpSet> set = simdata::ParseSnpSet(line);
    if (!set.ok()) return set.status();
    sets.push_back(std::move(set).value());
  }
  if (sets.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "genotype store " + store_path + " has no SNP-sets");
  }

  auto weight_bytes = store->ReadAuxFrame(dfs::StoreFrameKind::kWeights);
  if (!weight_bytes.ok()) return weight_bytes.status();
  std::vector<std::pair<std::uint32_t, double>> weight_sq_pairs;
  std::vector<std::pair<std::uint32_t, double>> weight_pairs;
  for (const std::string& line :
       simdata::DecodeTextLines(weight_bytes.value())) {
    Result<simdata::WeightRecord> record = simdata::ParseWeight(line);
    if (!record.ok()) return record.status();
    weight_sq_pairs.push_back(
        {record.value().snp, record.value().weight * record.value().weight});
    weight_pairs.push_back({record.value().snp, record.value().weight});
  }

  SkatPipeline pipeline;
  pipeline.ctx_ = &ctx;
  pipeline.config_ = config;
  pipeline.config_.pack_genotypes = true;  // store frames ARE packed
  pipeline.config_.model = phenotype.value().model;  // staged file rules
  pipeline.phenotype_ = std::move(phenotype).value();
  pipeline.sets_ = std::move(sets);

  if (pipeline.config_.cache_budget_bytes != 0) {
    ctx.cache().SetCapacityBytes(pipeline.config_.cache_budget_bytes);
  }
  engine::CounterRegistry::Global()
      .Get("kernel.dispatch")
      .store(static_cast<std::uint64_t>(stats::kernels::ActiveDispatchLevel()),
             std::memory_order_relaxed);

  // Step 4's filter happens inside the store node (membership bitmap);
  // steps 1 + 3 collapse into frame read + decode off the mmap.
  auto membership = std::make_shared<const std::vector<std::uint8_t>>(
      BuildMembership(pipeline.sets_));
  auto node = std::make_shared<StoreGenotypeNode>(&ctx, std::move(store),
                                                  std::move(membership));
  if (pipeline.config_.cache_contributions) {
    // Cache decoded partitions under the budget, but evict by dropping:
    // the store is this dataset's durable tier, so a spill copy would
    // just double the I/O (see StoreGenotypeNode).
    node->EnableCache();
    node->DisableCacheSpill();
  }
  pipeline.fgm_packed_ =
      engine::Dataset<stats::PackedSnpRecord>(&ctx, std::move(node));

  pipeline.weights_sq_ = engine::Parallelize(ctx, weight_sq_pairs,
                                             pipeline.config_.num_partitions);
  pipeline.weights_ =
      engine::Parallelize(ctx, weight_pairs, pipeline.config_.num_partitions);
  pipeline.snp_to_sets_ =
      engine::MakeBroadcast(ctx, BuildSnpToSets(pipeline.sets_));
  return pipeline;
}

SkatPipeline SkatPipeline::FromMemory(engine::EngineContext& ctx,
                                      const simdata::SyntheticDataset& dataset,
                                      const PipelineConfig& config) {
  std::vector<SnpRecord> records;
  records.reserve(dataset.genotypes.num_snps());
  for (std::uint32_t j = 0; j < dataset.genotypes.num_snps(); ++j) {
    records.push_back({j, dataset.genotypes.by_snp[j]});
  }
  Dataset<SnpRecord> genotypes =
      engine::Parallelize(ctx, records, config.num_partitions);
  return SkatPipeline(ctx, config, genotypes,
                      stats::Phenotype::Cox(dataset.survival),
                      dataset.weights, dataset.sets);
}

Dataset<std::pair<std::uint32_t, std::vector<double>>> SkatPipeline::BuildU(
    const engine::Broadcast<stats::ScoreEngine>& engine) const {
  // Steps 6-7: per-SNP contributions under the broadcast phenotype.
  if (config_.pack_genotypes) {
    // Decode the 2-bit block back to dosages at the point of use; the
    // roundtrip is lossless so scores are bitwise unchanged. The unpack
    // is profiled as decode time (untraced: one span per record would
    // flood the Chrome trace; coalescing keeps the accounting exact).
    return fgm_packed_.Map([engine](const stats::PackedSnpRecord& record) {
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
  return fgm_.Map([engine](const SnpRecord& record) {
    return std::pair<std::uint32_t, std::vector<double>>(
        record.snp, engine->Contributions(record.genotypes));
  });
}

SetScores SkatPipeline::SetScoresFromInnerSigma(
    const Dataset<std::pair<std::uint32_t, double>>& inner_sigma) const {
  // Step 9: join with squared weights. Step 10: per-SNP score.
  auto joined = engine::Join(weights_sq_, inner_sigma, config_.num_reducers);
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
  for (const stats::SnpSet& set : sets_) {
    observed.try_emplace(set.id, 0.0);
  }
  return observed;
}

SetScores SkatPipeline::SetScoresFromU(
    const Dataset<std::pair<std::uint32_t, std::vector<double>>>& u) const {
  // Step 8: U_j² = (Σ_i U_ij)².
  auto inner_sigma = u.Map(
      [](const std::pair<std::uint32_t, std::vector<double>>& record) {
        double total = 0.0;
        for (double contribution : record.second) total += contribution;
        return std::pair<std::uint32_t, double>(record.first, total * total);
      });
  return SetScoresFromInnerSigma(inner_sigma);
}

void SkatPipeline::EnsureUBuilt() {
  if (u_built_) return;
  auto engine_bcast = engine::MakeBroadcast(
      *ctx_, stats::ScoreEngine(phenotype_, config_.paper_faithful_scores));
  u_observed_ = BuildU(engine_bcast);
  if (!config_.checkpoint_contributions_path.empty() &&
      ctx_->dfs() != nullptr) {
    // Persist U to the DFS and continue from the truncated-lineage
    // dataset; a node failure now re-reads replicated blocks instead of
    // recomputing scores from the genotype inputs.
    auto checkpointed = engine::Checkpoint(
        u_observed_, config_.checkpoint_contributions_path);
    if (checkpointed.ok()) {
      u_observed_ = std::move(checkpointed).value();
    } else {
      SS_LOG(kWarn, "sparkscore")
          << "U checkpoint failed (" << checkpointed.status().ToString()
          << "); continuing with lineage recovery";
    }
  }
  if (config_.cache_contributions) {
    u_observed_.Cache();  // Algorithm 3 step 2
  }
  u_built_ = true;
}

SetScores SkatPipeline::ComputeObserved() {
  engine::TraceSpan span(engine::Tracer::Global(), "algo", "observed skat");
  EnsureUBuilt();
  return SetScoresFromU(u_observed_);
}

std::unordered_map<std::uint32_t, std::vector<double>>
SkatPipeline::ComputeMonteCarloScoreBlock(
    const std::vector<double>& zblock, std::size_t count,
    std::shared_ptr<const std::unordered_set<std::uint32_t>> live_snps) {
  SS_CHECK(u_built_);  // ComputeObserved must run first (Algorithm 3 step 1)
  SS_CHECK(zblock.size() == count * n());
  engine::TraceSpan span(engine::Tracer::Global(), "algo",
                         "monte-carlo score block",
                         {engine::Arg("replicates", count)});
  auto z = engine::MakeBroadcast(*ctx_, zblock);
  return CollectScoreBlock<NoScratch>(
      u_observed_, std::move(live_snps),
      [z, count](const std::pair<std::uint32_t, std::vector<double>>& record,
                 NoScratch*, std::vector<double>* scores) {
        stats::BatchedReplicateScores(record.second, z->data(), count, scores);
      });
}

std::unordered_map<std::uint32_t, std::vector<double>>
SkatPipeline::ComputeGenotypeScoreBlock(
    const std::vector<double>& vblock, std::size_t count,
    bool zero_sum_columns,
    std::shared_ptr<const std::unordered_set<std::uint32_t>> live_snps) {
  SS_CHECK(vblock.size() == count * n());
  engine::TraceSpan span(engine::Tracer::Global(), "algo",
                         "genotype score block",
                         {engine::Arg("replicates", count)});
  auto v = engine::MakeBroadcast(*ctx_, vblock);
  if (config_.pack_genotypes) {
    return CollectScoreBlock<GenotypeScratch>(
        fgm_packed_, std::move(live_snps),
        [v, count, zero_sum_columns](const stats::PackedSnpRecord& record,
                                     GenotypeScratch* scratch,
                                     std::vector<double>* scores) {
          {
            // Untraced like BuildU's unpack: one span per record would
            // flood the trace.
            ss::engine::PhaseTimer decode_phase(
                ss::engine::TaskPhase::kDecode, /*trace=*/false);
            record.genotypes.UnpackInto(&scratch->dosages);
          }
          GenotypeScores(scratch->dosages, v->data(), count, zero_sum_columns,
                         &scratch->widened, scores);
        });
  }
  return CollectScoreBlock<GenotypeScratch>(
      fgm_, std::move(live_snps),
      [v, count, zero_sum_columns](const SnpRecord& record,
                                   GenotypeScratch* scratch,
                                   std::vector<double>* scores) {
        GenotypeScores(record.genotypes, v->data(), count, zero_sum_columns,
                       &scratch->widened, scores);
      });
}

std::unordered_map<std::uint32_t, double> SkatPipeline::CollectObservedScores() {
  EnsureUBuilt();
  auto scores = u_observed_.Map(
      [](const std::pair<std::uint32_t, std::vector<double>>& record) {
        double total = 0.0;
        for (double contribution : record.second) total += contribution;
        return std::pair<std::uint32_t, double>(record.first, total);
      });
  return engine::CollectAsMap(scores, "collect-observed-scores");
}

const std::unordered_map<std::uint32_t, double>& SkatPipeline::DriverWeights() {
  if (!driver_weights_built_) {
    driver_weights_ = engine::CollectAsMap(weights_, "collect-weights");
    driver_weights_built_ = true;
  }
  return driver_weights_;
}

std::unordered_map<std::uint32_t, stats::Matrix>
SkatPipeline::CollectSetGramMatrices() {
  EnsureUBuilt();
  engine::TraceSpan span(engine::Tracer::Global(), "algo",
                         "collect set gram matrices");
  // Driver-side copy of the per-SNP contribution vectors — the same bytes
  // the score-block collect moves. Sets reach hundreds of members (a
  // generated cohort's last set takes every leftover SNP), so the d²/2
  // length-n dots are real work: they run as one engine stage below.
  const auto u_by_snp = engine::CollectAsMap(u_observed_, "collect-u-vectors");
  const std::unordered_map<std::uint32_t, double>& weights = DriverWeights();

  // One preallocated Gram per set, and its members with live (unfiltered)
  // U vectors in declaration order.
  struct SetMembers {
    stats::Matrix* gram = nullptr;
    std::vector<const std::vector<double>*> u;
    std::vector<double> w;
  };
  std::unordered_map<std::uint32_t, stats::Matrix> grams;
  grams.reserve(sets_.size());
  std::vector<SetMembers> members;
  members.reserve(sets_.size());
  for (const stats::SnpSet& set : sets_) {
    SetMembers entry;
    for (std::uint32_t snp : set.snps) {
      auto u_it = u_by_snp.find(snp);
      if (u_it == u_by_snp.end()) continue;  // SNP filtered out
      auto w_it = weights.find(snp);
      entry.u.push_back(&u_it->second);
      entry.w.push_back(w_it == weights.end() ? 1.0 : w_it->second);
    }
    const std::size_t d = entry.u.size();
    auto [it, inserted] = grams.emplace(set.id, stats::Matrix(d, d));
    if (!inserted) continue;  // a repeated set id keeps its first Gram
    entry.gram = &it->second;
    members.push_back(std::move(entry));
  }

  // Tasks are fixed (set, row-block) ranges of about kDotsPerTask upper-
  // triangle entries each, so a large set is split across workers. Task
  // [a_begin, a_end) owns entries (a, b≥a) and their mirrors (b, a): no
  // two tasks write the same entry, and a retried task rewrites the same
  // values. Each entry is a fixed ascending-i dot (FillGramRow), so the
  // Grams are bitwise independent of the split and the thread count.
  constexpr std::size_t kDotsPerTask = 2048;
  struct RowBlock {
    const SetMembers* set;
    std::size_t a_begin;
    std::size_t a_end;
  };
  std::vector<RowBlock> blocks;
  for (const SetMembers& entry : members) {
    const std::size_t d = entry.u.size();
    std::size_t a_begin = 0;
    std::size_t dots = 0;
    for (std::size_t a = 0; a < d; ++a) {
      dots += d - a;
      if (dots >= kDotsPerTask || a + 1 == d) {
        blocks.push_back({&entry, a_begin, a + 1});
        a_begin = a + 1;
        dots = 0;
      }
    }
  }
  if (blocks.empty()) return grams;
  ctx_->RunTasks(
      "set-gram", static_cast<std::uint32_t>(blocks.size()),
      [&blocks](engine::TaskContext& task) {
        const RowBlock& block = blocks[task.partition()];
        for (std::size_t a = block.a_begin; a < block.a_end; ++a) {
          FillGramRow(block.set->u, block.set->w, a, block.set->gram);
        }
      });
  return grams;
}

SetScores SkatPipeline::ComputeMonteCarloReplicate(
    const std::vector<double>& multipliers) {
  SS_CHECK(u_built_);  // ComputeObserved must run first (Algorithm 3 step 1)
  SS_CHECK(multipliers.size() == n());
  engine::TraceSpan span(engine::Tracer::Global(), "algo",
                         "monte-carlo replicate");
  auto z = engine::MakeBroadcast(*ctx_, multipliers);
  // Algorithm 3's modification of step 8: Ũ_j = Σ_i Z_i U_ij, squared.
  auto inner_sigma = u_observed_.Map(
      [z](const std::pair<std::uint32_t, std::vector<double>>& record) {
        double total = 0.0;
        const std::vector<double>& multiplier = *z;
        for (std::size_t i = 0; i < record.second.size(); ++i) {
          total += multiplier[i] * record.second[i];
        }
        return std::pair<std::uint32_t, double>(record.first, total * total);
      });
  return SetScoresFromInnerSigma(inner_sigma);
}

SetScores SkatPipeline::ComputePermutationReplicate(
    const std::vector<std::uint32_t>& perm) {
  // Algorithm 2: rebroadcast a permuted phenotype and rerun steps 6-12.
  engine::TraceSpan span(engine::Tracer::Global(), "algo",
                         "permutation replicate");
  auto engine_bcast = engine::MakeBroadcast(
      *ctx_, stats::ScoreEngine(phenotype_.Permuted(perm),
                                config_.paper_faithful_scores));
  return SetScoresFromU(BuildU(engine_bcast));
}

void SkatPipeline::UnpersistContributions() {
  if (u_built_) u_observed_.Unpersist();
}

}  // namespace ss::core
