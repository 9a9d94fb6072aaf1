// Streaming generation + store codec: the GenotypeStream must be bitwise
// identical to the dense Generate() path (the enabler for staging 1M-SNP
// cohorts without the full matrix), the frame payload codec must
// round-trip and fail closed, and GenerateToStore must stage a file whose
// decoded contents equal the dense path — at any partition count.
#include "simdata/store_codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "dfs/genotype_store.hpp"
#include "simdata/dfs_writer.hpp"
#include "simdata/generator.hpp"
#include "simdata/text_format.hpp"
#include "stats/kernels/packed_genotype.hpp"

namespace ss::simdata {
namespace {

GeneratorConfig SmallConfig() {
  GeneratorConfig config;
  config.num_patients = 23;
  config.num_snps = 57;
  config.num_sets = 4;
  config.seed = 77;
  return config;
}

TEST(GenotypeStreamTest, MatchesDenseGeneratorBitwise) {
  // The contract Next() row j must honor: exactly what Generate() put at
  // matrix row j — dosages, allele frequency, and weight, all bitwise.
  for (std::uint32_t ld_block : {1u, 4u}) {
    for (WeightScheme scheme :
         {WeightScheme::kUnit, WeightScheme::kMadsenBrowning,
          WeightScheme::kRandom}) {
      GeneratorConfig config = SmallConfig();
      config.ld_block_size = ld_block;
      config.weights = scheme;
      const SyntheticDataset dense = Generate(config);
      GenotypeStream stream(config);
      for (std::uint32_t j = 0; j < config.num_snps; ++j) {
        ASSERT_EQ(stream.remaining(), config.num_snps - j);
        const StreamedSnp row = stream.Next();
        ASSERT_EQ(row.snp, j);
        EXPECT_EQ(row.dosages, dense.genotypes.by_snp[j])
            << "ld=" << ld_block << " snp " << j;
        EXPECT_EQ(row.allele_freq, dense.genotypes.allele_freq[j]);
        EXPECT_EQ(row.weight, dense.weights[j]);
      }
      EXPECT_EQ(stream.remaining(), 0u);
    }
  }
}

TEST(StoreCodecTest, GenotypePartitionRoundTrips) {
  std::vector<stats::PackedSnpRecord> records;
  for (std::uint32_t j = 0; j < 9; ++j) {
    std::vector<std::uint8_t> dosages(17 + j);
    for (std::size_t i = 0; i < dosages.size(); ++i) {
      dosages[i] = static_cast<std::uint8_t>((i + j) % 3);
    }
    records.push_back({j * 5, stats::PackedGenotypeBlock::Pack(dosages)});
  }
  const std::vector<std::uint8_t> bytes = EncodeGenotypePartition(records);
  auto decoded = DecodeGenotypePartition(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded.value().size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(decoded.value()[i], records[i]) << "record " << i;
  }
  // Empty partitions are legal (a tail partition can be empty).
  auto empty = DecodeGenotypePartition(EncodeGenotypePartition({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(StoreCodecTest, MalformedPayloadFailsClosed) {
  std::vector<stats::PackedSnpRecord> records{
      {3, stats::PackedGenotypeBlock::Pack({0, 1, 2, 1, 0})}};
  const std::vector<std::uint8_t> bytes = EncodeGenotypePartition(records);
  // Truncations at every prefix must return InvalidArgument, not crash.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + cut);
    auto decoded = DecodeGenotypePartition(prefix);
    ASSERT_FALSE(decoded.ok()) << "cut " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  // Trailing garbage is also refused (a frame is exactly one partition).
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(DecodeGenotypePartition(padded).ok());
  // A count far beyond the byte budget must not trigger a giant reserve.
  std::vector<std::uint8_t> huge(8, 0xFF);
  EXPECT_FALSE(DecodeGenotypePartition(huge).ok());
}

TEST(StoreCodecTest, PayloadMustHoldOneCrumbPerDosage) {
  // A record's payload is exactly ceil(size/4) crumb bytes: the frame
  // has no other encoding, so any other length is refused.
  const std::vector<std::uint8_t> good = EncodeGenotypePartition(
      {{3, stats::PackedGenotypeBlock::Pack({0, 1, 2, 1, 0})}});
  ASSERT_TRUE(DecodeGenotypePartition(good).ok());
  // Record layout after the u64 count: snp u32 | size u32 | payload u64.
  std::vector<std::uint8_t> bytes = good;
  bytes[12] = 8;  // size 5 -> 8 dosages, still 2 payload bytes
  EXPECT_TRUE(DecodeGenotypePartition(bytes).ok());
  bytes[12] = 9;  // 9 dosages need 3 bytes, the payload holds 2
  auto decoded = DecodeGenotypePartition(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(StoreCodecTest, TextLinesRoundTrip) {
  const std::vector<std::string> lines{"#model cox", "12.5 1", "3.25 0"};
  EXPECT_EQ(DecodeTextLines(EncodeTextLines(lines)), lines);
  EXPECT_TRUE(DecodeTextLines(EncodeTextLines({})).empty());
  const std::vector<std::string> one{"solo"};
  EXPECT_EQ(DecodeTextLines(EncodeTextLines(one)), one);
}

TEST(StoreCodecTest, FingerprintTracksDataParametersOnly) {
  const GeneratorConfig base = SmallConfig();
  const std::uint64_t fingerprint = StoreFingerprint(base);
  EXPECT_EQ(StoreFingerprint(base), fingerprint);  // deterministic

  GeneratorConfig seed = base;
  seed.seed += 1;
  EXPECT_NE(StoreFingerprint(seed), fingerprint);
  GeneratorConfig snps = base;
  snps.num_snps += 1;
  EXPECT_NE(StoreFingerprint(snps), fingerprint);
  GeneratorConfig maf = base;
  maf.maf_min += 0.01;
  EXPECT_NE(StoreFingerprint(maf), fingerprint);
  GeneratorConfig weights = base;
  weights.weights = WeightScheme::kUnit;
  EXPECT_NE(StoreFingerprint(weights), fingerprint);

  // The text the hash covers is what the description frame stages.
  EXPECT_NE(StoreFingerprintText(base).find("snps=57"), std::string::npos);
}

TEST(StoreCodecTest, PartitionRowsMirrorsDfsBlockSizing) {
  EXPECT_EQ(StorePartitionRows(100, 8), 12u);  // truncating, like MiniDfs
  EXPECT_EQ(StorePartitionRows(100, 1), 100u);
  EXPECT_EQ(StorePartitionRows(5, 8), 1u);   // more partitions than rows
  EXPECT_EQ(StorePartitionRows(100, 0), 100u);  // 0 treated as 1
}

TEST(GenerateToStoreTest, StagedStoreMatchesDensePath) {
  const GeneratorConfig config = SmallConfig();
  const SyntheticDataset dense = Generate(config);
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "ss_stream_store.ssg")
          .string();

  auto staged = GenerateToStore(config, path, /*requested_partitions=*/4);
  ASSERT_TRUE(staged.ok()) << staged.status().ToString();
  auto store = dfs::GenotypeStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value()->num_partitions(), staged.value().num_partitions);
  EXPECT_EQ(store.value()->fingerprint(), StoreFingerprint(config));
  EXPECT_EQ(store.value()->description(), StoreFingerprintText(config));
  EXPECT_EQ(store.value()->meta().num_snps, config.num_snps);
  EXPECT_EQ(store.value()->meta().num_patients, config.num_patients);

  // Every genotype frame decodes to the dense matrix's rows, in order.
  std::uint32_t next_snp = 0;
  for (std::uint32_t p = 0; p < store.value()->num_partitions(); ++p) {
    auto frame = store.value()->ReadGenotypeFrame(p);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    auto records = DecodeGenotypePartition(frame.value());
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    for (const stats::PackedSnpRecord& record : records.value()) {
      ASSERT_EQ(record.snp, next_snp);
      EXPECT_EQ(record.genotypes.Unpack(), dense.genotypes.by_snp[next_snp])
          << "snp " << next_snp;
      ++next_snp;
    }
  }
  EXPECT_EQ(next_snp, config.num_snps);

  // Aux frames parse back to the dense study's driver-side tables.
  auto phenotype_frame = store.value()->ReadAuxFrame(dfs::StoreFrameKind::kPhenotype);
  ASSERT_TRUE(phenotype_frame.ok());
  auto phenotype = ParsePhenotypeFile(DecodeTextLines(phenotype_frame.value()));
  ASSERT_TRUE(phenotype.ok()) << phenotype.status().ToString();
  ASSERT_EQ(phenotype.value().n(), dense.survival.n());
  for (std::size_t i = 0; i < dense.survival.n(); ++i) {
    EXPECT_EQ(phenotype.value().survival.time[i], dense.survival.time[i]);
    EXPECT_EQ(phenotype.value().survival.event[i], dense.survival.event[i]);
  }

  auto weights_frame = store.value()->ReadAuxFrame(dfs::StoreFrameKind::kWeights);
  ASSERT_TRUE(weights_frame.ok());
  const std::vector<std::string> weight_lines =
      DecodeTextLines(weights_frame.value());
  ASSERT_EQ(weight_lines.size(), dense.weights.size());
  for (std::size_t j = 0; j < weight_lines.size(); ++j) {
    auto parsed = ParseWeight(weight_lines[j]);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().snp, j);
    EXPECT_EQ(parsed.value().weight, dense.weights[j]) << "weight " << j;
  }

  auto sets_frame = store.value()->ReadAuxFrame(dfs::StoreFrameKind::kSets);
  ASSERT_TRUE(sets_frame.ok());
  const std::vector<std::string> set_lines = DecodeTextLines(sets_frame.value());
  ASSERT_EQ(set_lines.size(), dense.sets.size());
  for (std::size_t k = 0; k < set_lines.size(); ++k) {
    auto parsed = ParseSnpSet(set_lines[k]);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().id, dense.sets[k].id);
    EXPECT_EQ(parsed.value().snps, dense.sets[k].snps);
  }
}

TEST(GenerateToStoreTest, PartitionCountChangesLayoutNotData) {
  // Staging the same cohort at different partition counts yields the
  // same fingerprint and the same concatenated SNP rows — partitioning
  // is layout, not identity.
  const GeneratorConfig config = SmallConfig();
  std::vector<std::vector<std::uint8_t>> previous;
  for (std::uint32_t partitions : {1u, 3u, 8u}) {
    const std::string path =
        (std::filesystem::path(::testing::TempDir()) /
         ("ss_stream_store_p" + std::to_string(partitions) + ".ssg"))
            .string();
    ASSERT_TRUE(GenerateToStore(config, path, partitions).ok());
    auto store = dfs::GenotypeStore::Open(path);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(store.value()->fingerprint(), StoreFingerprint(config));
    std::vector<std::vector<std::uint8_t>> rows;
    for (std::uint32_t p = 0; p < store.value()->num_partitions(); ++p) {
      auto frame = store.value()->ReadGenotypeFrame(p);
      ASSERT_TRUE(frame.ok());
      auto records = DecodeGenotypePartition(frame.value());
      ASSERT_TRUE(records.ok());
      for (const stats::PackedSnpRecord& record : records.value()) {
        rows.push_back(record.genotypes.Unpack());
      }
    }
    ASSERT_EQ(rows.size(), config.num_snps);
    if (!previous.empty()) {
      EXPECT_EQ(rows, previous);
    }
    previous = std::move(rows);
  }
}

}  // namespace
}  // namespace ss::simdata
