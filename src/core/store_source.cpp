#include "core/store_source.hpp"

#include <atomic>
#include <utility>

#include "core/record_traits.hpp"  // IWYU pragma: keep (ApproxBytes for PackedSnpRecord)
#include "engine/profile.hpp"
#include "simdata/store_codec.hpp"
#include "support/status.hpp"

namespace ss::core {

StoreGenotypeNode::StoreGenotypeNode(
    engine::EngineContext* ctx, std::shared_ptr<dfs::GenotypeStore> store,
    std::shared_ptr<const std::vector<std::uint8_t>> membership)
    : engine::Node<stats::PackedSnpRecord>(
          ctx, "genotypeStore(" + store->path() + ")",
          store->num_partitions(), {}),
      store_(std::move(store)),
      membership_(std::move(membership)) {}

std::vector<stats::PackedSnpRecord> StoreGenotypeNode::ComputePartition(
    std::uint32_t index, engine::TaskContext&) {
  static std::atomic<std::uint64_t>& packed_bytes =
      engine::CounterRegistry::Global().Get("genotype.packed_bytes");
  static std::atomic<std::uint64_t>& unpacked_bytes =
      engine::CounterRegistry::Global().Get("genotype.unpacked_bytes");

  // A store defect is retryable like a DFS read: the scheduler's attempts
  // surface a corrupt store as a job failure with the store diagnostic.
  const auto fail = [](const Status& status) {
    return engine::TaskFailure("genotype store read failed: " +
                               status.ToString());
  };
  Result<std::vector<std::uint8_t>> payload = [&] {
    engine::PhaseTimer fetch_phase(engine::TaskPhase::kFetch);
    return store_->ReadGenotypeFrame(index);
  }();
  if (!payload.ok()) throw fail(payload.status());

  engine::PhaseTimer decode_phase(engine::TaskPhase::kDecode);
  Result<std::vector<stats::PackedSnpRecord>> decoded =
      simdata::DecodeGenotypePartition(payload.value());
  if (!decoded.ok()) throw fail(decoded.status());

  const std::vector<std::uint8_t>& member = *membership_;
  std::vector<stats::PackedSnpRecord> records;
  records.reserve(decoded.value().size());
  for (stats::PackedSnpRecord& record : decoded.value()) {
    if (record.snp >= member.size() || member[record.snp] == 0) continue;
    // Same byte accounting as the text path's pack step, so the run
    // report's packed/unpacked ratio stays comparable across sources.
    unpacked_bytes.fetch_add(record.genotypes.size(),
                             std::memory_order_relaxed);
    packed_bytes.fetch_add(record.genotypes.payload().size(),
                           std::memory_order_relaxed);
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace ss::core
