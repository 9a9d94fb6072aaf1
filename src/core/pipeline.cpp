#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <functional>

#include "core/paper_faithful.hpp"
#include "core/record_traits.hpp"  // IWYU pragma: keep (ApproxBytesImpl specializations)
#include "core/score_block.hpp"
#include "core/store_source.hpp"
#include "dfs/genotype_store.hpp"
#include "engine/profile.hpp"
#include "engine/trace.hpp"
#include "simdata/store_codec.hpp"
#include "stats/kernels/kernels.hpp"

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
/// cache (4x fewer bytes). A dosage above 3 has no 2-bit code: it fails
/// the task, naming the SNP, as a malformed genotype line does. The byte
/// counters track both representations so the run report can show the
/// savings; lineage recomputation re-adds to both, preserving the ratio.
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
    const auto big = std::find_if(record.genotypes.begin(),
                                  record.genotypes.end(),
                                  [](std::uint8_t d) { return d > 3; });
    if (big != record.genotypes.end()) {
      throw engine::TaskFailure("dosage " + std::to_string(*big) +
                                " for SNP " + std::to_string(record.snp) +
                                " does not fit in 2 bits");
    }
    stats::PackedSnpRecord packed{
        record.snp, stats::PackedGenotypeBlock::Pack(record.genotypes)};
    unpacked_bytes->fetch_add(record.genotypes.size(),
                              std::memory_order_relaxed);
    packed_bytes->fetch_add(packed.genotypes.payload().size(),
                            std::memory_order_relaxed);
    return packed;
  });
}

/// out[r] = Σ_i G_i · V[i*count + r] for a SNP with `n` patients, from
/// the `nnz` rows of kernels::DosageScaledTable over V that
/// PackedGenotypeBlock::DosageRowsInto listed for its non-zero genotypes.
/// The sparse kernel is bitwise equal to the dense MAC over all n
/// (docs/KERNELS.md). When the block's columns sum to zero exactly
/// (`zero_sum_columns`), a constant column scores exactly 0, its exact
/// value: Σ_l c·V_l would instead leave rounding noise that decides its
/// exceedances by coin flip. A column is constant non-zero when every
/// patient has a row (nnz = n) and every row has one dosage, which the
/// ascending row list shows as rows[k] == rows[0] + k·count. An all-zero
/// column (nnz = 0) scores +0 either way. Otherwise a column is scored
/// like any other, as the U path scores it.
void GenotypeScores(const double* const* rows, std::size_t nnz, std::size_t n,
                    std::size_t count, bool zero_sum_columns, double* out) {
  if (zero_sum_columns && nnz == n) {
    std::size_t k = 1;
    while (k < nnz && rows[k] == rows[0] + k * count) ++k;
    if (k >= nnz) {
      std::fill(out, out + count, 0.0);
      return;
    }
  }
  stats::kernels::ActiveKernels().row_sum(rows, nnz, count, out);
}

/// One pass over the packed genotypes that builds each SNP's observed
/// contributions u_j (steps 6-7) transiently and hands them, with the
/// SNP's dosages, to `fill(dosages, u, row)`, which writes the SNP's
/// `count` values. The unpack is profiled as decode time; nothing is
/// cached.
template <typename Fill>
ScoreBlock CollectContributionRows(
    engine::EngineContext& ctx,
    const Dataset<stats::PackedSnpRecord>& genotypes,
    const stats::Phenotype& phenotype, bool paper_faithful, std::size_t count,
    const char* label, Fill fill) {
  auto score_engine = engine::MakeBroadcast(
      ctx, stats::ScoreEngine(phenotype, paper_faithful));
  return CollectScoreBlock<std::vector<std::uint8_t>>(
      genotypes, count, nullptr, label,
      [score_engine, fill](const stats::PackedSnpRecord& record,
                           std::vector<std::uint8_t>* dosages, double* row) {
        {
          ss::engine::PhaseTimer decode_phase(ss::engine::TaskPhase::kDecode,
                                              /*trace=*/false);
          record.genotypes.UnpackInto(dosages);
        }
        fill(*dosages, score_engine->Contributions(*dosages), row);
      });
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

  Dataset<stats::PackedSnpRecord> packed = FilterAndPack(ctx, genotypes, sets);
  return SkatPipeline(ctx, config, std::move(packed),
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
  // steps 1 + 3 collapse into frame read + decode off the mmap. An
  // evicted partition is re-read from its frame (see StoreGenotypeNode).
  auto membership = std::make_shared<const std::vector<std::uint8_t>>(
      BuildMembership(sets));
  auto node = std::make_shared<StoreGenotypeNode>(&ctx, std::move(store),
                                                  std::move(membership));

  return SkatPipeline(
      ctx, config, Dataset<stats::PackedSnpRecord>(&ctx, std::move(node)),
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

SkatPipeline::SkatPipeline(SkatPipeline&&) noexcept = default;
SkatPipeline& SkatPipeline::operator=(SkatPipeline&&) noexcept = default;
SkatPipeline::~SkatPipeline() = default;

PaperFaithful& SkatPipeline::Faithful() {
  if (faithful_ == nullptr) {
    faithful_ = std::make_unique<PaperFaithful>(*ctx_, config_, genotypes_,
                                                weights_, phenotype_, sets_);
  }
  return *faithful_;
}

SetScores SkatPipeline::ComputeObserved() {
  return Faithful().ComputeObserved();
}

ScoreBlock SkatPipeline::ComputeMonteCarloScoreBlock(
    const std::vector<double>& zblock, std::size_t count,
    std::shared_ptr<const std::unordered_set<std::uint32_t>> live_snps) {
  return Faithful().ComputeMonteCarloScoreBlock(zblock, count,
                                                std::move(live_snps));
}

ScoreBlock SkatPipeline::CollectObservedScores() {
  return ComputeMonteCarloScoreBlock(std::vector<double>(n(), 1.0), 1);
}

SetScores SkatPipeline::ComputePermutationReplicate(
    const std::vector<std::uint32_t>& perm) {
  return Faithful().ComputePermutationReplicate(perm);
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
  // the replicate kernel only adds, and the pass's row-offset LUT, so a
  // SNP's row list comes from one walk of its packed bytes.
  std::vector<double> scaled;
  stats::kernels::DosageScaledTable(vblock, &scaled);
  auto table = engine::MakeBroadcast(*ctx_, std::move(scaled));
  auto offsets =
      engine::MakeBroadcast(*ctx_, stats::DosageRowOffsets(n(), count));
  // The row-list walk is profiled as decode time (untraced: one span per
  // record would flood the trace).
  return CollectScoreBlock<std::vector<const double*>>(
      genotypes_, count, std::move(live_snps), "collect-score-block",
      [table, offsets, count, zero_sum_columns](
          const stats::PackedSnpRecord& record,
          std::vector<const double*>* rows, double* row) {
        std::size_t nnz = 0;
        {
          ss::engine::PhaseTimer decode_phase(ss::engine::TaskPhase::kDecode,
                                              /*trace=*/false);
          nnz = record.genotypes.DosageRowsInto(*offsets, table->data(), rows);
        }
        GenotypeScores(rows->data(), nnz, record.genotypes.size(), count,
                       zero_sum_columns, row);
      });
}

ScoreBlock SkatPipeline::CollectVariantMoments() {
  return CollectContributionRows(
      *ctx_, genotypes_, phenotype_, config_.paper_faithful_scores, 2,
      "collect-variant-moments",
      [](const std::vector<std::uint8_t>& dosages,
         const std::vector<double>& contributions, double* row) {
        double score = 0.0;
        double variance = 0.0;
        for (double contribution : contributions) {
          score += contribution;
          variance += contribution * contribution;
        }
        const bool constant =
            std::adjacent_find(dosages.begin(), dosages.end(),
                               std::not_equal_to<>()) == dosages.end();
        row[0] = constant ? 0.0 : score;
        row[1] = variance;
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
  engine::TraceSpan span(engine::Tracer::Global(), "algo",
                         "collect set gram matrices");
  // Each filtered SNP's observed contributions u_j (steps 6-7), built in
  // one pass over the packed genotypes into a transient count-n block —
  // the bytes a U collect would move, with nothing cached. Sets reach
  // hundreds of members (a generated cohort's last set takes every
  // leftover SNP), so the d²/2 length-n dots are real work: they run as
  // one engine stage below.
  const std::size_t n = phenotype_.n();
  const ScoreBlock u = CollectContributionRows(
      *ctx_, genotypes_, phenotype_, config_.paper_faithful_scores, n,
      "collect-u-rows",
      [](const std::vector<std::uint8_t>&,
         const std::vector<double>& contributions, double* row) {
        std::copy(contributions.begin(), contributions.end(), row);
      });
  const std::unordered_map<std::uint32_t, double>& weights = DriverWeights();

  // One preallocated Gram per set, and its members' contribution rows
  // (unfiltered SNPs only) in declaration order.
  struct SetMembers {
    stats::Matrix* gram = nullptr;
    std::vector<const double*> u;
    std::vector<double> w;
  };
  std::unordered_map<std::uint32_t, stats::Matrix> grams;
  grams.reserve(sets_.size());
  std::vector<SetMembers> members;
  members.reserve(sets_.size());
  for (const stats::SnpSet& set : sets_) {
    SetMembers entry;
    for (std::uint32_t snp : set.snps) {
      const double* row = u.row(snp);
      if (row == nullptr) continue;  // SNP filtered out
      auto w_it = weights.find(snp);
      entry.u.push_back(row);
      entry.w.push_back(w_it == weights.end() ? 1.0 : w_it->second);
    }
    const std::size_t d = entry.u.size();
    entry.gram = &grams.emplace(set.id, stats::Matrix(d, d)).first->second;
    members.push_back(std::move(entry));
  }

  // Tasks are fixed (set, row-tile) ranges of about kDotsPerTask tile
  // dots each, so a large set is split across workers. Task
  // [t_begin, t_end) owns the entries (a, b≥a) of rows [4·t_begin,
  // 4·t_end) and their mirrors (b, a): no two tasks write the same entry,
  // and a retried task rewrites the same values. Each entry is a fixed
  // ascending-i dot (stats::FillWeightedGramRowTile), so the Grams are
  // bitwise independent of the split, the thread count and the dispatch
  // level.
  constexpr std::size_t kDotsPerTask = 4096;
  struct RowTiles {
    const SetMembers* set;
    std::size_t t_begin;
    std::size_t t_end;
  };
  std::vector<RowTiles> blocks;
  for (const SetMembers& entry : members) {
    const std::size_t tiles = (entry.u.size() + 3) / 4;
    std::size_t t_begin = 0;
    std::size_t dots = 0;
    for (std::size_t t = 0; t < tiles; ++t) {
      dots += 16 * (tiles - t);
      if (dots >= kDotsPerTask || t + 1 == tiles) {
        blocks.push_back({&entry, t_begin, t + 1});
        t_begin = t + 1;
        dots = 0;
      }
    }
  }
  if (blocks.empty()) return grams;
  const stats::kernels::KernelTable::GramTileFn gram_tile =
      stats::kernels::ActiveKernels().gram_tile;
  ctx_->RunTasks(
      "set-gram", static_cast<std::uint32_t>(blocks.size()),
      [&blocks, n, gram_tile](engine::TaskContext& task) {
        const RowTiles& block = blocks[task.partition()];
        for (std::size_t t = block.t_begin; t < block.t_end; ++t) {
          stats::FillWeightedGramRowTile(block.set->u, block.set->w, n, t,
                                         gram_tile, block.set->gram);
        }
      });
  return grams;
}

}  // namespace ss::core
