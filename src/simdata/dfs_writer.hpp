// Stages a synthetic dataset into the mini-DFS under a directory prefix,
// producing the four text inputs of Algorithm 1.
#pragma once

#include <string>

#include "dfs/dfs.hpp"
#include "simdata/generator.hpp"
#include "stats/score_engine.hpp"
#include "support/status.hpp"

namespace ss::simdata {

/// File paths of one staged study.
struct StudyPaths {
  std::string genotypes;
  std::string phenotype;
  std::string weights;
  std::string snp_sets;

  /// "<prefix>/genotypes.txt" etc.
  static StudyPaths Under(const std::string& prefix);
};

/// Writes all four files. Fails if any already exists.
Status WriteStudy(dfs::MiniDfs& dfs, const StudyPaths& paths,
                  const SyntheticDataset& dataset);

/// Like WriteStudy, but stages `phenotype` (any model) instead of the
/// dataset's survival table — e.g. an eQTL study's expression values.
Status WriteStudyWithPhenotype(dfs::MiniDfs& dfs, const StudyPaths& paths,
                               const SyntheticDataset& dataset,
                               const stats::Phenotype& phenotype);

/// Convenience: generate + stage in one call, returning the paths.
Result<StudyPaths> GenerateToDfs(dfs::MiniDfs& dfs, const std::string& prefix,
                                 const GeneratorConfig& config);

/// What GenerateToStore staged.
struct StoreStageResult {
  std::uint32_t num_partitions = 0;
  std::uint64_t payload_bytes = 0;  ///< Frame payloads (packed + aux text).
};

/// Generates the cohort and stages it straight into a genotype store file
/// at `path` (dfs/genotype_store.hpp), split into about
/// `requested_partitions` genotype frames using the same truncating
/// row-count formula as the MiniDfs text path. Genotypes are produced via
/// GenotypeStream and packed one partition at a time, so peak memory is
/// one partition — never the dense matrix — which is what makes 1M-SNP
/// staging feasible. An existing file at `path` is overwritten; callers
/// that want stage-once semantics open first and stage only on NotFound
/// (as core::OpenStudy does).
Result<StoreStageResult> GenerateToStore(const GeneratorConfig& config,
                                         const std::string& path,
                                         std::uint32_t requested_partitions);

}  // namespace ss::simdata
