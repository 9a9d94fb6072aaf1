// 2-bit packed genotype storage, PLINK-.bed style: four dosages per
// byte, so a cached genotype partition costs ~4x fewer bytes
// under `cache_budget=`. This is the only genotype encoding: the paper
// draws every dosage from Binomial(2, ρ), and every input path (the text
// parser, the generator, the store) holds to 0..2, so codes 0..3 always
// fit. A dosage above 3 is refused where records enter the pipeline
// (core::FilterAndPack fails the task), never stored another way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ss::stats {

class DosageRowOffsets;

class PackedGenotypeBlock {
 public:
  PackedGenotypeBlock() = default;

  /// Packs a dosage vector. Every dosage must fit in two bits (0..3);
  /// a larger one is a checked precondition failure.
  static PackedGenotypeBlock Pack(const std::vector<std::uint8_t>& dosages);

  /// Reassembles a block from its stored fields (see
  /// simdata/store_codec.hpp). `payload` must hold ceil(size/4) bytes;
  /// the codec checks that before it calls here.
  static PackedGenotypeBlock FromPayload(std::uint32_t size,
                                         std::vector<std::uint8_t> payload);

  /// Number of dosages stored (not bytes).
  std::size_t size() const { return size_; }

  /// The stored bytes: 2-bit crumbs, ceil(size/4) bytes, low crumb
  /// first; unused crumbs of the last byte are zero when packed here.
  const std::vector<std::uint8_t>& payload() const { return payload_; }

  /// Decodes back to one dosage per byte (LUT fast path, 4 at a time).
  std::vector<std::uint8_t> Unpack() const;
  void UnpackInto(std::vector<std::uint8_t>* out) const;

  /// Points rows[k], for k < the returned count, at the coefficient row
  /// of this SNP's k-th non-zero genotype in `table`, a
  /// kernels::DosageScaledTable over size() patients and
  /// `offsets.count()` columns: patient i with dosage d gets row
  /// (d − 1)·n + i, in ascending patient order — the row list
  /// kernels::KernelTable::row_sum scores the SNP from. One walk of the
  /// payload: each byte stores the four slots of its `offsets` entry at
  /// the next free position and advances by its non-zero count, so there
  /// is no byte unpack and no index or dosage list. Crumbs of the last
  /// byte past size() are masked. `rows` is grown as needed (to 4 slots
  /// per payload byte) and reused across calls; entries past the
  /// returned count are scratch.
  std::size_t DosageRowsInto(const DosageRowOffsets& offsets,
                             const double* table,
                             std::vector<const double*>* rows) const;

  bool operator==(const PackedGenotypeBlock&) const = default;

 private:
  std::uint32_t size_ = 0;
  std::vector<std::uint8_t> payload_;
};

/// The 256 × 4 offset table PackedGenotypeBlock::DosageRowsInto reads,
/// for one score pass's n patients and `count` columns. For the k-th
/// non-zero crumb c of byte value b, with dosage d, entry [b][k] is
/// ((d − 1)·n + c)·count: that genotype's row in a DosageScaledTable,
/// counted in doubles from the row of the byte's first patient. Slots
/// past the byte's non-zero count are 0. Built once per pass, next to the
/// table.
class DosageRowOffsets {
 public:
  DosageRowOffsets(std::size_t n, std::size_t count);

  std::size_t n() const { return n_; }
  std::size_t count() const { return count_; }

  /// The four slots of byte value `byte`.
  const std::size_t* slots(std::uint8_t byte) const { return offset_[byte]; }

 private:
  std::size_t n_;
  std::size_t count_;
  std::size_t offset_[256][4];
};

/// Packed counterpart of `simdata::SnpRecord`: the storage format for
/// genotype partitions in the cache and the genotype store.
struct PackedSnpRecord {
  std::uint32_t snp = 0;
  PackedGenotypeBlock genotypes;

  bool operator==(const PackedSnpRecord&) const = default;
};

}  // namespace ss::stats
