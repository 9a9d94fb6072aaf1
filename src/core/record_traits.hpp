// ApproxBytes specializations for the record types SparkScore moves
// through the engine (cache accounting and shuffle/broadcast metering).
// Must be included before any Dataset<...> of these types is instantiated;
// pipeline.hpp does so.
#pragma once

#include <unordered_map>

#include "engine/approx_bytes.hpp"
#include "engine/codec.hpp"
#include "simdata/text_format.hpp"
#include "stats/kernels/packed_genotype.hpp"
#include "stats/score_engine.hpp"

namespace ss::engine::internal {

template <>
struct ApproxBytesImpl<ss::simdata::SnpRecord> {
  static std::size_t Of(const ss::simdata::SnpRecord& record) {
    // capacity(), not size(): the cache budget must account for the
    // bytes the vector actually owns — parsers and push_back growth
    // commonly over-allocate, and those slack bytes are resident.
    return sizeof(record.snp) + sizeof(record.genotypes) +
           record.genotypes.capacity() * sizeof(std::uint8_t);
  }
};

template <>
struct ApproxBytesImpl<ss::stats::PackedGenotypeBlock> {
  static std::size_t Of(const ss::stats::PackedGenotypeBlock& block) {
    return sizeof(block) + block.payload().capacity() * sizeof(std::uint8_t);
  }
};

template <>
struct ApproxBytesImpl<ss::stats::PackedSnpRecord> {
  static std::size_t Of(const ss::stats::PackedSnpRecord& record) {
    return sizeof(record.snp) + ApproxBytesOf(record.genotypes);
  }
};

template <>
struct ApproxBytesImpl<ss::stats::Phenotype> {
  static std::size_t Of(const ss::stats::Phenotype& phenotype) {
    // Each patient carries one double plus one byte in whichever arm of
    // the union is active.
    return phenotype.n() * (sizeof(double) + 1) + sizeof(phenotype);
  }
};

template <>
struct ApproxBytesImpl<ss::stats::ScoreEngine> {
  static std::size_t Of(const ss::stats::ScoreEngine& engine) {
    // Phenotype plus the Cox risk-set index (two u32 per patient).
    return ApproxBytesOf(engine.phenotype()) +
           engine.n() * 2 * sizeof(std::uint32_t);
  }
};

}  // namespace ss::engine::internal

namespace ss::engine {

/// Spill serialization for genotype records.
template <>
struct Codec<ss::simdata::SnpRecord> {
  static void Encode(BinaryWriter& writer,
                     const ss::simdata::SnpRecord& record) {
    writer.WriteU32(record.snp);
    writer.WritePodVector(record.genotypes);
  }
  static ss::simdata::SnpRecord Decode(BinaryReader& reader) {
    ss::simdata::SnpRecord record;
    record.snp = reader.ReadU32();
    record.genotypes = reader.ReadPodVector<std::uint8_t>();
    return record;
  }
};

/// Spill serialization for 2-bit packed genotype records.
template <>
struct Codec<ss::stats::PackedSnpRecord> {
  static void Encode(BinaryWriter& writer,
                     const ss::stats::PackedSnpRecord& record) {
    writer.WriteU32(record.snp);
    writer.WriteU8(record.genotypes.packed() ? 1 : 0);
    writer.WriteU32(static_cast<std::uint32_t>(record.genotypes.size()));
    writer.WritePodVector(record.genotypes.payload());
  }
  static ss::stats::PackedSnpRecord Decode(BinaryReader& reader) {
    ss::stats::PackedSnpRecord record;
    record.snp = reader.ReadU32();
    const bool packed = reader.ReadU8() != 0;
    const std::uint32_t size = reader.ReadU32();
    record.genotypes = ss::stats::PackedGenotypeBlock::FromPayload(
        size, packed, reader.ReadPodVector<std::uint8_t>());
    return record;
  }
};

// Genotype partitions (both representations) may cross the cache's
// spill tier: the Codecs above round-trip them exactly.
template <>
inline constexpr bool kSpillable<ss::simdata::SnpRecord> = true;

template <>
inline constexpr bool kSpillable<ss::stats::PackedSnpRecord> = true;

}  // namespace ss::engine
