// Persistent, memory-mapped packed-genotype store.
//
// Stores checksummed frames (magic | FNV-1a checksum | payload size |
// payload) in a reopenable on-disk layout so
// paper-scale cohorts are staged ONCE and every later run maps the file
// instead of re-ingesting text. One file holds everything a pipeline
// needs: per-partition 2-bit packed genotype frames plus small aux
// frames (phenotype / weights / SNP-sets, stored in the text formats of
// simdata/text_format.hpp), all indexed by a fixed table written right
// after the header.
//
// Layout (little-endian, no alignment requirements):
//
//   [header  72 B]  magic "SSGSTOR1" | version+partitions | num_snps |
//                   num_patients | fingerprint | index_offset |
//                   index_entries | data_end | header FNV-1a
//   [index]         index_entries x {offset, length, kind, ordinal}
//                   followed by one FNV-1a over the entry bytes
//   [frames...]     each: frame magic "SSGFRM01" | payload FNV-1a |
//                   payload size | payload
//
// The index is PRE-ALLOCATED at Create time (its size is known from the
// partition count) and back-filled by Finish, so the two truncation
// failure modes stay distinguishable: a file cut inside the index fails
// Open with "frame index truncated", while a torn final frame leaves the
// index intact and fails with "frame out of bounds". Every validation
// failure counts `store.corrupt` and fails CLOSED — the store never
// silently degrades to re-ingest (the pipeline layer decides that).
//
// The fingerprint is an opaque u64 the staging layer derives from the
// generator/ingest parameters (simdata::StoreFingerprint); Open exposes
// it and callers refuse mismatches with the stored human-readable
// description frame in the diagnostic.
//
// Readers mmap the whole file read-only with MADV_SEQUENTIAL and advise
// MADV_DONTNEED on a genotype frame's pages right after its payload is
// copied out ("retirement"): once the decoded partition is charged to
// the cache budget, the mapped pages are reclaimable, which is what
// keeps resident memory flat in out-of-core runs. All raw mmap/madvise
// calls in the project are confined to genotype_store.cpp (enforced by
// tools/ss_lint.py rule `mmap-confine`).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/status.hpp"

namespace ss::dfs {

/// What a frame holds. Genotype frames are keyed by (kGenotypes,
/// partition ordinal); each aux kind appears exactly once (ordinal 0).
enum class StoreFrameKind : std::uint32_t {
  kGenotypes = 1,    ///< One partition of packed genotype records.
  kPhenotype = 2,    ///< Phenotype file lines (model-tagged text).
  kWeights = 3,      ///< Weights file lines.
  kSets = 4,         ///< SNP-set file lines.
  kDescription = 5,  ///< Human-readable fingerprint provenance string.
};

/// Number of aux frames every store carries (all kinds but kGenotypes).
inline constexpr std::uint32_t kStoreAuxFrames = 4;

/// Immutable facts about a store, fixed at Create and echoed by Open.
struct GenotypeStoreMeta {
  std::uint32_t num_partitions = 0;
  std::uint64_t num_snps = 0;
  std::uint64_t num_patients = 0;
  /// Opaque identity of the staged data (generator/ingest parameters);
  /// see simdata::StoreFingerprint.
  std::uint64_t fingerprint = 0;
};

/// Single-threaded staging-side writer. Usage: Create, append exactly one
/// genotype frame per partition plus each aux frame (any order), Finish.
/// The file is not readable until Finish back-fills the index + header.
class GenotypeStoreWriter {
 public:
  static Result<std::unique_ptr<GenotypeStoreWriter>> Create(
      const std::string& path, const GenotypeStoreMeta& meta);

  ~GenotypeStoreWriter();

  GenotypeStoreWriter(const GenotypeStoreWriter&) = delete;
  GenotypeStoreWriter& operator=(const GenotypeStoreWriter&) = delete;

  /// Appends one checksummed frame. Genotype ordinals must be unique and
  /// < num_partitions; aux kinds must appear at most once (ordinal 0).
  Status Append(StoreFrameKind kind, std::uint32_t ordinal,
                const std::vector<std::uint8_t>& payload);

  /// Writes the index + final header and closes the file. Fails if any
  /// frame slot (partition or aux kind) was never appended.
  Status Finish();

  /// Cumulative payload bytes appended so far (excluding frame headers).
  std::uint64_t payload_bytes() const { return payload_bytes_; }

 private:
  struct IndexEntry {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;  ///< Whole frame: header + payload.
    std::uint32_t kind = 0;
    std::uint32_t ordinal = 0;
  };

  GenotypeStoreWriter(std::string path, GenotypeStoreMeta meta, void* file);

  const std::string path_;
  const GenotypeStoreMeta meta_;
  void* file_ = nullptr;  ///< FILE*; void to keep <cstdio> out of the header.
  std::vector<IndexEntry> entries_;
  std::uint64_t write_offset_ = 0;
  std::uint64_t payload_bytes_ = 0;
  bool finished_ = false;
};

/// Read side: maps the whole file and serves checksum-verified payload
/// copies. Immutable after Open — safe to share across task threads
/// with no locking.
class GenotypeStore {
 public:
  /// Maps + validates `path`. A missing file is NotFound (the caller may
  /// stage it); every structural defect is DataLoss, counts
  /// `store.corrupt`, and names the failed check.
  static Result<std::shared_ptr<GenotypeStore>> Open(const std::string& path);

  ~GenotypeStore();

  GenotypeStore(const GenotypeStore&) = delete;
  GenotypeStore& operator=(const GenotypeStore&) = delete;

  const GenotypeStoreMeta& meta() const { return meta_; }
  std::uint32_t num_partitions() const { return meta_.num_partitions; }
  std::uint64_t fingerprint() const { return meta_.fingerprint; }
  const std::string& path() const { return path_; }
  std::uint64_t file_bytes() const { return map_bytes_; }

  /// The provenance string staged alongside the fingerprint (decoded at
  /// Open; empty only in pathological stores).
  const std::string& description() const { return description_; }

  /// Checksum-verified payload copy of partition `partition`'s genotype
  /// frame. After the copy the frame's pages are madvise(MADV_DONTNEED)d:
  /// the decoded partition now lives in (and is charged to) the cache, so
  /// the mapped bytes are reclaimable immediately.
  Result<std::vector<std::uint8_t>> ReadGenotypeFrame(
      std::uint32_t partition) const;

  /// Checksum-verified payload copy of an aux frame (no madvise — aux
  /// frames are tiny and read once).
  Result<std::vector<std::uint8_t>> ReadAuxFrame(StoreFrameKind kind) const;

 private:
  struct FrameRef {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
  };

  GenotypeStore() = default;

  Result<std::vector<std::uint8_t>> ReadFrame(const FrameRef& ref,
                                              bool retire) const;

  std::string path_;
  GenotypeStoreMeta meta_;
  std::string description_;
  std::vector<FrameRef> genotype_frames_;  ///< Indexed by partition.
  std::vector<std::pair<std::uint32_t, FrameRef>> aux_frames_;
  int fd_ = -1;
  const std::uint8_t* map_ = nullptr;
  std::size_t map_bytes_ = 0;
};

}  // namespace ss::dfs
