// Payload encodings for the genotype store's frames, plus the
// fingerprint that binds a store file to the generator parameters it was
// staged from.
//
// The store itself (dfs/genotype_store.hpp) is payload-agnostic: it
// frames, checksums and indexes opaque byte vectors. This header owns
// what goes INSIDE those frames:
//
//   * genotype frames — a binary partition of 2-bit packed SNP records
//     (count-prefixed, each record snp | size | payload byte count |
//     ceil(size/4) crumb bytes);
//   * aux frames — the exact text-file lines of simdata/text_format.hpp
//     joined with '\n' (phenotype / weights / SNP-sets), so a store
//     round-trips through the same battle-tested parsers as the DFS
//     text path and doubles as its own human-inspectable export.
//
// The fingerprint is FNV-1a over a canonical parameter string
// (StoreFingerprintText); any generator knob that changes the staged
// bytes participates, while layout-only knobs (partition count) do NOT —
// the same cohort staged at different partition counts is the same data.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simdata/generator.hpp"
#include "stats/kernels/packed_genotype.hpp"
#include "support/status.hpp"

namespace ss::simdata {

/// Serializes one partition of packed genotype records.
std::vector<std::uint8_t> EncodeGenotypePartition(
    const std::vector<stats::PackedSnpRecord>& records);

/// Inverse of EncodeGenotypePartition. The caller must have
/// checksum-verified the bytes (the store does); malformed input fails
/// closed with InvalidArgument rather than aborting.
Result<std::vector<stats::PackedSnpRecord>> DecodeGenotypePartition(
    const std::vector<std::uint8_t>& bytes);

/// Text lines <-> aux frame payload ('\n'-joined, no trailing newline).
std::vector<std::uint8_t> EncodeTextLines(
    const std::vector<std::string>& lines);
std::vector<std::string> DecodeTextLines(const std::vector<std::uint8_t>& bytes);

/// Canonical human-readable parameter string the fingerprint hashes —
/// also staged verbatim in the store's description frame so mismatch
/// diagnostics can say what the file actually contains.
std::string StoreFingerprintText(const GeneratorConfig& config);

/// FNV-1a of StoreFingerprintText(config).
std::uint64_t StoreFingerprint(const GeneratorConfig& config);

/// Rows per genotype partition for `num_snps` split `requested` ways —
/// the same truncating formula the benches use for MiniDfs block sizes,
/// so store-backed and text-backed runs see identical stage shapes.
std::uint32_t StorePartitionRows(std::uint64_t num_snps,
                                 std::uint32_t requested);

}  // namespace ss::simdata
