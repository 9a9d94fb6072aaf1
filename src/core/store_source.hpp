// Lineage source over a memory-mapped genotype store.
//
// A StoreGenotypeNode is a parentless Node<stats::PackedSnpRecord> whose
// partitions come straight from an opened dfs::GenotypeStore: compute =
// read the partition's checksummed frame from the mmap, decode the
// packed records, filter by SNP-set membership. It replaces the whole
// textFile -> parse -> filter -> pack prefix of Algorithm 1 for cohorts
// that were staged once with simdata::GenerateToStore.
//
// The store is this dataset's durable tier: eviction under
// `cache_budget=` is a plain drop and a later miss re-reads the frame.
// The node also registers a cache fetcher so the async executor's
// prefetch lane streams frames `prefetch=` ahead of the compute wave
// directly off the mmap.
#pragma once

#include <memory>
#include <vector>

#include "dfs/genotype_store.hpp"
#include "engine/node.hpp"
#include "stats/kernels/packed_genotype.hpp"
#include "support/status.hpp"

namespace ss::core {

class StoreGenotypeNode final : public engine::Node<stats::PackedSnpRecord> {
 public:
  /// `membership[snp] != 0` keeps the SNP (step 4's filter); SNPs at or
  /// past `membership.size()` are dropped. Registers a prefetch fetcher
  /// for this node with the context's cache.
  StoreGenotypeNode(
      engine::EngineContext* ctx, std::shared_ptr<dfs::GenotypeStore> store,
      std::shared_ptr<const std::vector<std::uint8_t>> membership);

  /// Blocks until no prefetch fetch of this node is in flight.
  ~StoreGenotypeNode() override;

  std::vector<stats::PackedSnpRecord> ComputePartition(
      std::uint32_t index, engine::TaskContext& task) override;

  const dfs::GenotypeStore& store() const { return *store_; }

 private:
  /// Frame read + decode + membership filter (shared by the task path
  /// and the prefetch fetcher).
  Result<std::vector<stats::PackedSnpRecord>> Materialize(
      std::uint32_t index) const;

  std::shared_ptr<dfs::GenotypeStore> store_;
  std::shared_ptr<const std::vector<std::uint8_t>> membership_;
};

}  // namespace ss::core
