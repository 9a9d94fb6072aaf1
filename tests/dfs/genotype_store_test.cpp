// Format battery for the persistent genotype store: round-trip, reopen,
// and the fail-closed corruption matrix the ISSUE pins — corrupt header,
// truncated frame index, torn final frame, wrong-endianness magic — each
// refusing with DataLoss and a counted `store.corrupt`.
#include "dfs/genotype_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/trace.hpp"
#include "support/binary_io.hpp"

namespace ss::dfs {
namespace {

std::uint64_t CorruptCount() {
  return engine::CounterRegistry::Global().Get("store.corrupt").load();
}

std::string TempStorePath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::vector<std::uint8_t> Payload(std::uint8_t tag, std::size_t size) {
  std::vector<std::uint8_t> bytes(size);
  for (std::size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<std::uint8_t>(tag + i * 7);
  }
  return bytes;
}

/// Stages a 3-partition store with distinguishable payloads per frame.
std::string WriteSampleStore(const std::string& name) {
  const std::string path = TempStorePath(name);
  GenotypeStoreMeta meta;
  meta.num_partitions = 3;
  meta.num_snps = 30;
  meta.num_patients = 7;
  meta.fingerprint = 0xFEEDBEEF;
  auto writer = GenotypeStoreWriter::Create(path, meta);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  for (std::uint32_t p = 0; p < meta.num_partitions; ++p) {
    EXPECT_TRUE(writer.value()
                    ->Append(StoreFrameKind::kGenotypes, p, Payload(p, 100))
                    .ok());
  }
  EXPECT_TRUE(
      writer.value()->Append(StoreFrameKind::kPhenotype, 0, Payload(10, 40)).ok());
  EXPECT_TRUE(
      writer.value()->Append(StoreFrameKind::kWeights, 0, Payload(11, 40)).ok());
  EXPECT_TRUE(
      writer.value()->Append(StoreFrameKind::kSets, 0, Payload(12, 40)).ok());
  const std::string description = "sample store provenance";
  EXPECT_TRUE(writer.value()
                  ->Append(StoreFrameKind::kDescription, 0,
                           std::vector<std::uint8_t>(description.begin(),
                                                     description.end()))
                  .ok());
  EXPECT_TRUE(writer.value()->Finish().ok());
  return path;
}

/// Overwrites `count` bytes at `offset` with their bitwise complement.
void FlipBytes(const std::string& path, std::uint64_t offset,
               std::uint64_t count) {
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good()) << path;
  for (std::uint64_t i = 0; i < count; ++i) {
    char byte = 0;
    file.seekg(static_cast<std::streamoff>(offset + i));
    file.read(&byte, 1);
    ASSERT_TRUE(file.good());
    byte = static_cast<char>(~byte);
    file.seekp(static_cast<std::streamoff>(offset + i));
    file.write(&byte, 1);
    ASSERT_TRUE(file.good());
  }
}

void Truncate(const std::string& path, std::uint64_t new_size) {
  std::filesystem::resize_file(path, new_size);
}

TEST(GenotypeStoreTest, RoundTripReadsEveryFrame) {
  const std::string path = WriteSampleStore("ss_store_roundtrip.ssg");
  auto store = GenotypeStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store.value()->num_partitions(), 3u);
  EXPECT_EQ(store.value()->meta().num_snps, 30u);
  EXPECT_EQ(store.value()->meta().num_patients, 7u);
  EXPECT_EQ(store.value()->fingerprint(), 0xFEEDBEEFu);
  EXPECT_EQ(store.value()->description(), "sample store provenance");
  for (std::uint32_t p = 0; p < 3; ++p) {
    auto frame = store.value()->ReadGenotypeFrame(p);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame.value(), Payload(p, 100)) << "partition " << p;
  }
  auto weights = store.value()->ReadAuxFrame(StoreFrameKind::kWeights);
  ASSERT_TRUE(weights.ok());
  EXPECT_EQ(weights.value(), Payload(11, 40));
}

TEST(GenotypeStoreTest, ReopenServesSameBytes) {
  // Two independent Opens of one staged file (the reopen contract: a
  // later process maps the same file; no writer involved).
  const std::string path = WriteSampleStore("ss_store_reopen.ssg");
  auto first = GenotypeStore::Open(path);
  ASSERT_TRUE(first.ok());
  auto again = GenotypeStore::Open(path);
  ASSERT_TRUE(again.ok());
  for (std::uint32_t p = 0; p < 3; ++p) {
    auto a = first.value()->ReadGenotypeFrame(p);
    auto b = again.value()->ReadGenotypeFrame(p);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value(), b.value());
  }
  EXPECT_EQ(first.value()->fingerprint(), again.value()->fingerprint());
}

TEST(GenotypeStoreTest, MissingFileIsNotFoundAndNotCorrupt) {
  const std::uint64_t before = CorruptCount();
  auto store = GenotypeStore::Open(TempStorePath("ss_store_missing.ssg"));
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(CorruptCount(), before);  // absent != corrupt
}

TEST(GenotypeStoreTest, WriterRejectsBadAppends) {
  const std::string path = TempStorePath("ss_store_badappend.ssg");
  GenotypeStoreMeta meta;
  meta.num_partitions = 2;
  auto writer = GenotypeStoreWriter::Create(path, meta);
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE(
      writer.value()->Append(StoreFrameKind::kGenotypes, 0, Payload(1, 8)).ok());
  EXPECT_EQ(writer.value()
                ->Append(StoreFrameKind::kGenotypes, 0, Payload(1, 8))
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(writer.value()
                ->Append(StoreFrameKind::kGenotypes, 2, Payload(1, 8))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(writer.value()
                ->Append(StoreFrameKind::kWeights, 1, Payload(1, 8))
                .code(),
            StatusCode::kInvalidArgument);
  // Finish with missing frames refuses (no partial store published).
  EXPECT_EQ(writer.value()->Finish().code(), StatusCode::kFailedPrecondition);
}

TEST(GenotypeStoreTest, ZeroPartitionsRefused) {
  EXPECT_EQ(GenotypeStoreWriter::Create(TempStorePath("ss_store_zero.ssg"), {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(GenotypeStoreTest, CorruptHeaderFailsClosed) {
  const std::string path = WriteSampleStore("ss_store_badheader.ssg");
  FlipBytes(path, 16, 4);  // inside num_snps: checksum no longer matches
  const std::uint64_t before = CorruptCount();
  auto store = GenotypeStore::Open(path);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(store.status().ToString().find("header checksum"),
            std::string::npos)
      << store.status().ToString();
  EXPECT_EQ(CorruptCount(), before + 1);
}

TEST(GenotypeStoreTest, OlderVersionIsRefusedAsSkew) {
  // A version-1 store (its genotype records carried a packed flag) with a
  // valid header checksum: Open must refuse it as version skew rather
  // than misread its frames.
  const std::string path = WriteSampleStore("ss_store_v1.ssg");
  std::vector<std::uint8_t> header(64);
  {
    std::ifstream in(path, std::ios::binary);
    in.read(reinterpret_cast<char*>(header.data()), 64);
    ASSERT_TRUE(in.good());
  }
  ASSERT_EQ(header[8], 2);  // the version field, little-endian u32
  header[8] = 1;
  const std::uint64_t checksum = Checksum(header);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.write(reinterpret_cast<const char*>(header.data()), 64);
    file.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
    ASSERT_TRUE(file.good());
  }
  const std::uint64_t before = CorruptCount();
  auto store = GenotypeStore::Open(path);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(store.status().ToString().find(
                "unsupported store version 1 (expected 2)"),
            std::string::npos)
      << store.status().ToString();
  EXPECT_EQ(CorruptCount(), before + 1);
}

TEST(GenotypeStoreTest, WrongEndiannessMagicIsDiagnosed) {
  const std::string path = WriteSampleStore("ss_store_endian.ssg");
  // Byte-swap the magic in place: "SSGSTOR1" -> "1ROTSGSS", exactly what
  // a big-endian writer would have produced.
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  char magic[8];
  file.read(magic, 8);
  std::swap(magic[0], magic[7]);
  std::swap(magic[1], magic[6]);
  std::swap(magic[2], magic[5]);
  std::swap(magic[3], magic[4]);
  file.seekp(0);
  file.write(magic, 8);
  file.close();
  const std::uint64_t before = CorruptCount();
  auto store = GenotypeStore::Open(path);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(store.status().ToString().find("opposite-endianness"),
            std::string::npos)
      << store.status().ToString();
  EXPECT_EQ(CorruptCount(), before + 1);
}

TEST(GenotypeStoreTest, NotAStoreAtAllIsBadMagic) {
  const std::string path = TempStorePath("ss_store_textfile.ssg");
  std::ofstream(path) << "this is not a genotype store but is long enough "
                         "to clear the minimum header size check easily";
  const std::uint64_t before = CorruptCount();
  auto store = GenotypeStore::Open(path);
  ASSERT_FALSE(store.ok());
  EXPECT_NE(store.status().ToString().find("bad magic"), std::string::npos);
  EXPECT_EQ(CorruptCount(), before + 1);
}

TEST(GenotypeStoreTest, TruncatedIndexFailsClosed) {
  const std::string path = WriteSampleStore("ss_store_shortindex.ssg");
  // Cut inside the pre-allocated index region: header survives, index
  // cannot — the distinguishable "truncated index" failure mode.
  Truncate(path, 72 + 24);  // header + one index entry of seven
  const std::uint64_t before = CorruptCount();
  auto store = GenotypeStore::Open(path);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(store.status().ToString().find("frame index truncated"),
            std::string::npos)
      << store.status().ToString();
  EXPECT_EQ(CorruptCount(), before + 1);
}

TEST(GenotypeStoreTest, TornFinalFrameFailsClosed) {
  const std::string path = WriteSampleStore("ss_store_torn.ssg");
  // Cut 10 bytes off the end: the index (near the front) is intact, so
  // the diagnostic names a torn frame, not a truncated index.
  Truncate(path, std::filesystem::file_size(path) - 10);
  const std::uint64_t before = CorruptCount();
  auto store = GenotypeStore::Open(path);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(store.status().ToString().find("torn frame"), std::string::npos)
      << store.status().ToString();
  EXPECT_EQ(CorruptCount(), before + 1);
}

TEST(GenotypeStoreTest, FlippedPayloadByteFailsTheRead) {
  const std::string path = WriteSampleStore("ss_store_bitrot.ssg");
  auto store = GenotypeStore::Open(path);
  ASSERT_TRUE(store.ok());
  // Open succeeds (index + header fine); the damaged frame fails its
  // checksum only when read, and other frames stay readable. The flipped
  // byte sits 20 bytes from EOF — inside the last appended frame's
  // payload (the 23-byte description) — and the MAP_SHARED mapping sees
  // the file write immediately.
  FlipBytes(path, std::filesystem::file_size(path) - 20, 1);
  const std::uint64_t before = CorruptCount();
  auto intact = store.value()->ReadGenotypeFrame(0);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  auto damaged = store.value()->ReadAuxFrame(StoreFrameKind::kDescription);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(damaged.status().ToString().find("payload checksum"),
            std::string::npos)
      << damaged.status().ToString();
  EXPECT_EQ(CorruptCount(), before + 1);
}

TEST(GenotypeStoreTest, UnfinishedStoreFailsClosed) {
  // A crash mid-stage leaves the zero-filled header placeholder; Open
  // must refuse it (zeros are not the magic).
  const std::string path = TempStorePath("ss_store_crashed.ssg");
  GenotypeStoreMeta meta;
  meta.num_partitions = 2;
  auto writer = GenotypeStoreWriter::Create(path, meta);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(
      writer.value()->Append(StoreFrameKind::kGenotypes, 0, Payload(3, 32)).ok());
  writer.value().reset();  // close without Finish
  const std::uint64_t before = CorruptCount();
  auto store = GenotypeStore::Open(path);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(CorruptCount(), before + 1);
}

}  // namespace
}  // namespace ss::dfs
