// Per-SNP score rows collected to the driver: the ScoreBlock every score
// pass returns, and the one engine pass that fills it (CollectScoreBlock),
// shared by the default genotype path (core/pipeline.cpp) and the
// paper-faithful U path (core/paper_faithful.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/record_traits.hpp"  // IWYU pragma: keep (ApproxBytesImpl specializations)
#include "engine/dataset.hpp"
#include "stats/kernels/packed_genotype.hpp"

namespace ss::core {

/// One partition's share of a score pass: the SNPs it scored, in record
/// order, and their scores in one row-major `snps.size() × count` buffer.
struct ScoreRows {
  std::vector<std::uint32_t> snps;
  std::vector<double> scores;
};

}  // namespace ss::core

// Score partitions are never cached, but every Dataset element type needs
// a byte estimate for the cache path.
template <>
struct ss::engine::internal::ApproxBytesImpl<ss::core::ScoreRows> {
  static std::size_t Of(const ss::core::ScoreRows& rows) {
    return ApproxBytesOf(rows.snps) + ApproxBytesOf(rows.scores);
  }
};

namespace ss::core {

/// The per-SNP scores of one engine pass (`count` per SNP), collected to
/// the driver as the partitions wrote them: one contiguous buffer per
/// partition, no per-SNP vector and no hash map. A row table indexed by
/// SNP id, built once per pass, points each scored SNP at its row.
class ScoreBlock {
 public:
  ScoreBlock() = default;
  ScoreBlock(std::size_t count, std::vector<ScoreRows> partitions);

  // Movable only: the row table points into the partition buffers.
  ScoreBlock(ScoreBlock&&) noexcept = default;
  ScoreBlock& operator=(ScoreBlock&&) noexcept = default;
  ScoreBlock(const ScoreBlock&) = delete;
  ScoreBlock& operator=(const ScoreBlock&) = delete;

  /// Scores per SNP (the pass's replicate count; 1 for observed scores).
  std::size_t count() const { return count_; }

  /// Distinct SNPs scored.
  std::size_t size() const { return size_; }

  /// One past the largest SNP id scored.
  std::size_t snp_end() const { return rows_.size(); }

  /// `snp`'s `count` scores, or nullptr when the pass did not score it
  /// (filtered out of every set, or outside the pass's `live_snps`). A
  /// SNP scored by two records keeps the later partition's row.
  const double* row(std::uint32_t snp) const {
    return snp < rows_.size() ? rows_[snp] : nullptr;
  }

 private:
  std::size_t count_ = 0;
  std::size_t size_ = 0;
  std::vector<ScoreRows> partitions_;
  std::vector<const double*> rows_;
};

inline std::uint32_t SnpOf(const stats::PackedSnpRecord& record) {
  return record.snp;
}
inline std::uint32_t SnpOf(
    const std::pair<std::uint32_t, std::vector<double>>& record) {
  return record.first;
}

/// The score-block scaffold: one MapPartitions pass that scores every
/// record whose SNP is live (all, when `live_snps` is null) into its
/// partition's flat `live records × count` buffer, then moves the
/// buffers to the driver as one ScoreBlock. `score(record, &scratch,
/// row)` writes one SNP's `count` scores to `row`; `Scratch` is
/// per-partition working memory.
template <typename Scratch, typename Record, typename Score>
ScoreBlock CollectScoreBlock(
    const engine::Dataset<Record>& records, std::size_t count,
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

}  // namespace ss::core
