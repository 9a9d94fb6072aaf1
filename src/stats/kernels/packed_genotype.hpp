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

  /// Lists the non-zero dosages in ascending patient order: for
  /// k < the returned count, patient (*index)[k] has dosage (*dosage)[k],
  /// a code in 1..3. It decodes straight from the 2-bit crumbs through a
  /// LUT, with no byte unpack. Both buffers are grown as needed and
  /// reused across calls; entries past the returned count are scratch.
  std::size_t NonZeroInto(std::vector<std::uint32_t>* index,
                          std::vector<std::uint8_t>* dosage) const;

  bool operator==(const PackedGenotypeBlock&) const = default;

 private:
  std::uint32_t size_ = 0;
  std::vector<std::uint8_t> payload_;
};

/// Packed counterpart of `simdata::SnpRecord`: the storage format for
/// genotype partitions in the cache and the genotype store.
struct PackedSnpRecord {
  std::uint32_t snp = 0;
  PackedGenotypeBlock genotypes;

  bool operator==(const PackedSnpRecord&) const = default;
};

}  // namespace ss::stats
