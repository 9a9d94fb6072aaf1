#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>

#include "core/record_traits.hpp"  // IWYU pragma: keep (ApproxBytesImpl specializations)
#include "core/store_source.hpp"
#include "dfs/genotype_store.hpp"
#include "engine/profile.hpp"
#include "engine/trace.hpp"
#include "simdata/store_codec.hpp"
#include "stats/kernels/kernels.hpp"
#include "stats/resampling.hpp"

// Score partitions are never cached, but every Dataset element type needs
// a byte estimate for the cache path.
template <>
struct ss::engine::internal::ApproxBytesImpl<ss::core::ScoreRows> {
  static std::size_t Of(const ss::core::ScoreRows& rows) {
    return ApproxBytesOf(rows.snps) + ApproxBytesOf(rows.scores);
  }
};

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

std::pair<std::uint32_t, double> ParseWeightOrThrow(const std::string& line) {
  Result<simdata::WeightRecord> record = simdata::ParseWeight(line);
  if (!record.ok()) {
    throw engine::TaskFailure(record.status().ToString());
  }
  return {record.value().snp, record.value().weight};
}

/// (j, ω_j) for driver-side weights indexed by SNP id.
std::vector<std::pair<std::uint32_t, double>> IndexedWeights(
    const std::vector<double>& weights) {
  std::vector<std::pair<std::uint32_t, double>> pairs;
  pairs.reserve(weights.size());
  for (std::uint32_t j = 0; j < weights.size(); ++j) {
    pairs.push_back({j, weights[j]});
  }
  return pairs;
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

/// Steps 3-4 for a genotype dataset: filter to the union of all SNP-sets
/// (the membership bitmap is broadcast; it is tiny relative to genotypes)
/// and pack each record to 2 bits per dosage, the form that lives in the
/// cache and spills under a budget (4x fewer bytes). The byte counters
/// track both representations so the run report can show the savings;
/// lineage recomputation re-adds to both, preserving the ratio.
Dataset<stats::PackedSnpRecord> FilterAndPack(
    engine::EngineContext& ctx, const Dataset<SnpRecord>& genotypes,
    const std::vector<stats::SnpSet>& sets) {
  auto membership = engine::MakeBroadcast(ctx, BuildMembership(sets));
  const Dataset<SnpRecord> fgm =
      genotypes.Filter([membership](const SnpRecord& record) {
        return record.snp < membership->size() &&
               (*membership)[record.snp] != 0;
      });
  auto& registry = engine::CounterRegistry::Global();
  std::atomic<std::uint64_t>* packed_bytes =
      &registry.Get("genotype.packed_bytes");
  std::atomic<std::uint64_t>* unpacked_bytes =
      &registry.Get("genotype.unpacked_bytes");
  return fgm.Map([packed_bytes, unpacked_bytes](const SnpRecord& record) {
    stats::PackedSnpRecord packed{
        record.snp, stats::PackedGenotypeBlock::Pack(record.genotypes)};
    unpacked_bytes->fetch_add(record.genotypes.size(),
                              std::memory_order_relaxed);
    packed_bytes->fetch_add(packed.genotypes.payload().size(),
                            std::memory_order_relaxed);
    return packed;
  });
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

/// The score-block scaffold: one MapPartitions pass that scores every
/// record whose SNP is live (all, when `live_snps` is null) into its
/// partition's flat `live records × count` buffer, then moves the
/// buffers to the driver as one ScoreBlock. `score(record, &scratch,
/// row)` writes one SNP's `count` scores to `row`; `Scratch` is
/// per-partition working memory.
template <typename Scratch, typename Record, typename Score>
ScoreBlock CollectScoreBlock(
    const Dataset<Record>& records, std::size_t count,
    std::shared_ptr<const std::unordered_set<std::uint32_t>> live_snps,
    const char* label, Score score) {
  auto scored = records.MapPartitions(
      [live_snps, count, score](std::uint32_t,
                                const std::vector<Record>& partition) {
        std::vector<const Record*> live;
        live.reserve(partition.size());
        for (const Record& record : partition) {
          if (live_snps == nullptr || live_snps->count(SnpOf(record)) != 0) {
            live.push_back(&record);
          }
        }
        std::vector<ScoreRows> out(1);
        ScoreRows& rows = out.front();
        rows.snps.reserve(live.size());
        rows.scores.resize(live.size() * count);
        Scratch scratch;
        double* row = rows.scores.data();
        for (const Record* record : live) {
          rows.snps.push_back(SnpOf(*record));
          score(*record, &scratch, row);
          row += count;
        }
        return out;
      });
  return ScoreBlock(count, scored.Collect(label));
}

struct NoScratch {};

/// One SNP's non-zero genotypes (NonZeroInto runs) and the coefficient
/// rows they select (kernels::SelectDosageRows).
struct GenotypeScratch {
  std::vector<std::uint32_t> index;
  std::vector<std::uint8_t> dosage;
  std::vector<const double*> rows;
  std::vector<double> scaled;
};

/// out[r] = Σ_i G_i · V[i*count + r], scored over the `nnz` non-zero
/// genotypes in `runs` of a SNP with `n` patients by summing their rows
/// of `table` (kernels::DosageScaledTable over V). The sparse kernel is
/// bitwise equal to the dense MAC over all n (docs/KERNELS.md). When the
/// block's columns sum to zero exactly (`zero_sum_columns`), a constant
/// column scores exactly 0, its exact value: Σ_l c·V_l would instead
/// leave rounding noise that decides its exceedances by coin flip. An
/// all-zero column (nnz = 0) scores +0 either way. Otherwise a column is
/// scored like any other, as the U path scores it.
void GenotypeScores(GenotypeScratch* runs, std::size_t nnz, std::size_t n,
                    const double* table, std::size_t count,
                    bool zero_sum_columns, double* out) {
  const std::uint8_t* d = runs->dosage.data();
  if (zero_sum_columns && nnz == n &&
      std::all_of(d, d + nnz, [d](std::uint8_t x) { return x == d[0]; })) {
    std::fill(out, out + count, 0.0);
    return;
  }
  stats::kernels::SelectDosageRows(runs->index.data(), d, nnz, table, n,
                                   count, &runs->rows, &runs->scaled);
  stats::kernels::ActiveKernels().row_sum(runs->rows.data(), nnz, count, out);
}

}  // namespace

ScoreBlock::ScoreBlock(std::size_t count, std::vector<ScoreRows> partitions)
    : count_(count), partitions_(std::move(partitions)) {
  std::uint32_t end = 0;
  for (const ScoreRows& rows : partitions_) {
    for (std::uint32_t snp : rows.snps) end = std::max(end, snp + 1);
  }
  rows_.assign(end, nullptr);
  for (const ScoreRows& rows : partitions_) {
    for (std::size_t i = 0; i < rows.snps.size(); ++i) {
      const double*& row = rows_[rows.snps[i]];
      if (row == nullptr) ++size_;
      row = rows.scores.data() + i * count_;
    }
  }
}

SkatPipeline::SkatPipeline(engine::EngineContext& ctx,
                           const PipelineConfig& config,
                           Dataset<stats::PackedSnpRecord> genotypes,
                           stats::Phenotype phenotype, WeightDataset weights,
                           std::vector<stats::SnpSet> sets)
    : ctx_(&ctx), config_(config), genotypes_(std::move(genotypes)),
      weights_(std::move(weights)), phenotype_(std::move(phenotype)),
      sets_(std::move(sets)) {
  SS_CHECK(!sets_.empty());
  SS_CHECK(stats::CheckDistinctSetIds(sets_).ok());

  if (config_.cache_budget_bytes != 0) {
    ctx.cache().SetCapacityBytes(config_.cache_budget_bytes);
  }

  // Every run reports which kernel tier it executed with (the gauge
  // lands in the metrics JSON "kernel" section).
  engine::CounterRegistry::Global()
      .Get("kernel.dispatch")
      .store(static_cast<std::uint64_t>(stats::kernels::ActiveDispatchLevel()),
             std::memory_order_relaxed);

  if (config_.cache_contributions) {
    // Resampling batches score the genotypes every pass; caching the
    // packed form keeps them off the parse chain at a quarter of the
    // unpacked footprint.
    genotypes_.Cache();
  }

  snp_to_sets_ = engine::MakeBroadcast(ctx, BuildSnpToSets(sets_));
}

SkatPipeline::SkatPipeline(engine::EngineContext& ctx,
                           const PipelineConfig& config,
                           Dataset<SnpRecord> genotypes,
                           stats::Phenotype phenotype,
                           std::vector<double> weights,
                           std::vector<stats::SnpSet> sets)
    : SkatPipeline(ctx, config, FilterAndPack(ctx, genotypes, sets),
                   std::move(phenotype),
                   engine::Parallelize(ctx, IndexedWeights(weights),
                                       config.num_partitions),
                   sets) {}

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
  if (Status distinct = stats::CheckDistinctSetIds(sets); !distinct.ok()) {
    return distinct;
  }

  // Weights and genotypes: distributed parses (steps 2 and 3), one
  // partition per block.
  WeightDataset weights =
      engine::TextFile(ctx, paths.weights).Map(ParseWeightOrThrow);
  Dataset<SnpRecord> genotypes =
      engine::TextFile(ctx, paths.genotypes).Map(ParseSnpRecordOrThrow);

  PipelineConfig opened = config;
  opened.model = phenotype.value().model;  // the staged file's model rules
  Dataset<stats::PackedSnpRecord> packed = FilterAndPack(ctx, genotypes, sets);
  return SkatPipeline(ctx, opened, std::move(packed),
                      std::move(phenotype).value(), std::move(weights),
                      std::move(sets));
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
  if (Status distinct = stats::CheckDistinctSetIds(sets); !distinct.ok()) {
    return distinct;
  }

  auto weight_bytes = store->ReadAuxFrame(dfs::StoreFrameKind::kWeights);
  if (!weight_bytes.ok()) return weight_bytes.status();
  std::vector<std::pair<std::uint32_t, double>> weight_pairs;
  for (const std::string& line :
       simdata::DecodeTextLines(weight_bytes.value())) {
    Result<simdata::WeightRecord> record = simdata::ParseWeight(line);
    if (!record.ok()) return record.status();
    weight_pairs.push_back({record.value().snp, record.value().weight});
  }

  // Step 4's filter happens inside the store node (membership bitmap);
  // steps 1 + 3 collapse into frame read + decode off the mmap. Cached
  // partitions are evicted by dropping: the store is this dataset's
  // durable tier, so a spill copy would just double the I/O (see
  // StoreGenotypeNode).
  auto membership = std::make_shared<const std::vector<std::uint8_t>>(
      BuildMembership(sets));
  auto node = std::make_shared<StoreGenotypeNode>(&ctx, std::move(store),
                                                  std::move(membership));
  node->DisableCacheSpill();

  PipelineConfig opened = config;
  opened.model = phenotype.value().model;  // the staged file's model rules
  return SkatPipeline(
      ctx, opened, Dataset<stats::PackedSnpRecord>(&ctx, std::move(node)),
      std::move(phenotype).value(),
      engine::Parallelize(ctx, weight_pairs, config.num_partitions),
      std::move(sets));
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

SetScores SkatPipeline::SetScoresFromU(
    const Dataset<std::pair<std::uint32_t, std::vector<double>>>& u) const {
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
  for (const stats::SnpSet& set : sets_) {
    observed.try_emplace(set.id, 0.0);
  }
  return observed;
}

void SkatPipeline::EnsureUBuilt() {
  if (u_built_) return;
  auto engine_bcast = engine::MakeBroadcast(
      *ctx_, stats::ScoreEngine(phenotype_, config_.paper_faithful_scores));
  u_observed_ = BuildU(engine_bcast);
  if (config_.cache_contributions && config_.paper_faithful_scores) {
    // Algorithm 3 step 2: paper-faithful Monte Carlo re-reads U every
    // batch. The default path reads it at most once (the adaptive screen's
    // Grams), where a cached copy would only double the driver's U bytes.
    u_observed_.Cache();
  }
  u_built_ = true;
}

SetScores SkatPipeline::ComputeObserved() {
  engine::TraceSpan span(engine::Tracer::Global(), "algo", "observed skat");
  EnsureUBuilt();
  return SetScoresFromU(u_observed_);
}

ScoreBlock SkatPipeline::ComputeMonteCarloScoreBlock(
    const std::vector<double>& zblock, std::size_t count,
    std::shared_ptr<const std::unordered_set<std::uint32_t>> live_snps) {
  SS_CHECK(u_built_);  // ComputeObserved must run first (Algorithm 3 step 1)
  SS_CHECK(zblock.size() == count * n());
  engine::TraceSpan span(engine::Tracer::Global(), "algo",
                         "monte-carlo score block",
                         {engine::Arg("replicates", count)});
  auto z = engine::MakeBroadcast(*ctx_, zblock);
  return CollectScoreBlock<NoScratch>(
      u_observed_, count, std::move(live_snps), "collect-score-block",
      [z, count](const std::pair<std::uint32_t, std::vector<double>>& record,
                 NoScratch*, double* row) {
        stats::BatchedReplicateScores(record.second, z->data(), count, row);
      });
}

ScoreBlock SkatPipeline::ComputeGenotypeScoreBlock(
    const std::vector<double>& vblock, std::size_t count,
    bool zero_sum_columns,
    std::shared_ptr<const std::unordered_set<std::uint32_t>> live_snps) {
  SS_CHECK(vblock.size() == count * n());
  engine::TraceSpan span(engine::Tracer::Global(), "algo",
                         "genotype score block",
                         {engine::Arg("replicates", count)});
  // Workers read the pre-scaled [V; 2V; 3V] table, built once here, so
  // the replicate kernel only adds.
  auto table =
      engine::MakeBroadcast(*ctx_, stats::kernels::DosageScaledTable(vblock));
  // The non-zero decode is profiled as decode time (untraced like
  // BuildU's unpack: one span per record would flood the trace).
  return CollectScoreBlock<GenotypeScratch>(
      genotypes_, count, std::move(live_snps), "collect-score-block",
      [table, count, zero_sum_columns](const stats::PackedSnpRecord& record,
                                       GenotypeScratch* scratch, double* row) {
        std::size_t nnz = 0;
        {
          ss::engine::PhaseTimer decode_phase(ss::engine::TaskPhase::kDecode,
                                              /*trace=*/false);
          nnz = record.genotypes.NonZeroInto(&scratch->index,
                                             &scratch->dosage);
        }
        GenotypeScores(scratch, nnz, record.genotypes.size(),
                       table->data(), count, zero_sum_columns, row);
      });
}

ScoreBlock SkatPipeline::CollectObservedScores() {
  EnsureUBuilt();
  return CollectScoreBlock<NoScratch>(
      u_observed_, 1, nullptr, "collect-observed-scores",
      [](const std::pair<std::uint32_t, std::vector<double>>& record,
         NoScratch*, double* row) {
        double total = 0.0;
        for (double contribution : record.second) total += contribution;
        *row = total;
      });
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
    entry.gram = &grams.emplace(set.id, stats::Matrix(d, d)).first->second;
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

}  // namespace ss::core
