#include "simdata/store_codec.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "support/binary_io.hpp"

namespace ss::simdata {

std::vector<std::uint8_t> EncodeGenotypePartition(
    const std::vector<stats::PackedSnpRecord>& records) {
  BinaryWriter writer;
  writer.WriteU64(records.size());
  for (const auto& record : records) {
    writer.WriteU32(record.snp);
    writer.WriteU32(static_cast<std::uint32_t>(record.genotypes.size()));
    writer.WritePodVector(record.genotypes.payload());
  }
  return writer.TakeBytes();
}

Result<std::vector<stats::PackedSnpRecord>> DecodeGenotypePartition(
    const std::vector<std::uint8_t>& bytes) {
  const auto malformed = [] {
    return Status(StatusCode::kInvalidArgument,
                  "malformed genotype frame payload (store version skew?)");
  };
  BinaryReader reader(bytes);
  std::uint64_t count = 0;
  if (!reader.ReadU64(&count)) return malformed();
  std::vector<stats::PackedSnpRecord> records;
  // Cap the reserve at what the payload could plausibly hold (a record
  // is at least 16 bytes) so a corrupted count cannot trigger a huge
  // allocation.
  records.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, bytes.size() / 16 + 1)));
  for (std::uint64_t r = 0; r < count; ++r) {
    std::uint32_t snp = 0;
    std::uint32_t size = 0;
    std::uint64_t payload_size = 0;
    std::vector<std::uint8_t> payload;
    if (!reader.ReadU32(&snp) || !reader.ReadU32(&size) ||
        !reader.ReadU64(&payload_size) ||
        payload_size != (std::uint64_t{size} + 3) / 4 ||
        !reader.ReadBytes(payload_size, &payload)) {
      return malformed();
    }
    records.push_back(stats::PackedSnpRecord{
        snp, stats::PackedGenotypeBlock::FromPayload(size, std::move(payload))});
  }
  if (!reader.AtEnd()) return malformed();
  return records;
}

std::vector<std::uint8_t> EncodeTextLines(
    const std::vector<std::string>& lines) {
  std::vector<std::uint8_t> bytes;
  std::size_t total = 0;
  for (const auto& line : lines) total += line.size() + 1;
  bytes.reserve(total);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i != 0) bytes.push_back('\n');
    bytes.insert(bytes.end(), lines[i].begin(), lines[i].end());
  }
  return bytes;
}

std::vector<std::string> DecodeTextLines(
    const std::vector<std::uint8_t>& bytes) {
  std::vector<std::string> lines;
  if (bytes.empty()) return lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= bytes.size(); ++i) {
    if (i == bytes.size() || bytes[i] == '\n') {
      lines.emplace_back(reinterpret_cast<const char*>(bytes.data()) + start,
                         i - start);
      start = i + 1;
    }
  }
  return lines;
}

std::string StoreFingerprintText(const GeneratorConfig& config) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "sparkscore-store-v1|patients=%" PRIu32 "|snps=%" PRIu32
      "|sets=%" PRIu32 "|seed=%" PRIu64
      "|maf=%.17g,%.17g|weights=%d|ld=%" PRIu32
      ",%.17g|mean=%.17g|event=%.17g",
      config.num_patients, config.num_snps, config.num_sets, config.seed,
      config.maf_min, config.maf_max, static_cast<int>(config.weights),
      config.ld_block_size, config.ld_correlation,
      config.mean_survival_months, config.event_rate);
  return std::string(buf);
}

std::uint64_t StoreFingerprint(const GeneratorConfig& config) {
  const std::string text = StoreFingerprintText(config);
  std::vector<std::uint8_t> bytes(text.begin(), text.end());
  return Checksum(bytes);
}

std::uint32_t StorePartitionRows(std::uint64_t num_snps,
                                 std::uint32_t requested) {
  if (requested == 0) requested = 1;
  return static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, num_snps / requested));
}

}  // namespace ss::simdata
