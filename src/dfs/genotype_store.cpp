#include "dfs/genotype_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "engine/trace.hpp"
#include "support/binary_io.hpp"
#include "support/log.hpp"

namespace ss::dfs {

namespace {

// "SSGSTOR1" / "SSGFRM01" read as little-endian u64s.
constexpr std::uint64_t kStoreMagic = 0x3152'4F54'5347'5353ULL;
constexpr std::uint64_t kFrameMagic = 0x3130'4D52'4647'5353ULL;
// Bumped on every header, index or frame payload layout change: a store
// staged at any other version is refused as skew and must be restaged.
constexpr std::uint32_t kStoreVersion = 2;

// magic + (version|partitions) + num_snps + num_patients + fingerprint +
// index_offset + index_entries + data_end, then the FNV-1a over them.
constexpr std::uint64_t kHeaderChecksummedBytes = 8 * 8;
constexpr std::uint64_t kHeaderBytes = kHeaderChecksummedBytes + 8;
constexpr std::uint64_t kIndexEntryBytes = 24;  // offset + length + kind|ordinal
constexpr std::uint64_t kFrameHeaderBytes = 24;  // magic + checksum + size

std::atomic<std::uint64_t>& StoreCounter(const char* name) {
  return engine::CounterRegistry::Global().Get(name);
}

/// Counts `store.corrupt`, emits the trace instant, and wraps the
/// diagnostic in a DataLoss status. Every fail-closed path funnels here.
Status Corrupt(const std::string& path, const std::string& what) {
  static std::atomic<std::uint64_t>& corrupt = StoreCounter("store.corrupt");
  corrupt.fetch_add(1, std::memory_order_relaxed);
  engine::Tracer::Global().Instant(
      "store", "corrupt",
      {engine::Arg("path", path), engine::Arg("error", what)});
  SS_LOG(kWarn, "store") << path << ": " << what;
  return Status::DataLoss("genotype store " + path + ": " + what);
}

std::uint64_t ReadU64At(const std::uint8_t* base, std::uint64_t offset) {
  std::uint64_t v = 0;
  std::memcpy(&v, base + offset, sizeof(v));
  return v;
}

std::uint32_t ReadU32At(const std::uint8_t* base, std::uint64_t offset) {
  std::uint32_t v = 0;
  std::memcpy(&v, base + offset, sizeof(v));
  return v;
}

std::uint64_t ByteSwap64(std::uint64_t v) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_bswap64(v);
#else
  std::uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out = (out << 8) | ((v >> (i * 8)) & 0xFF);
  return out;
#endif
}

/// Serialized header with the given index/data facts (checksum included).
std::vector<std::uint8_t> BuildHeader(const GenotypeStoreMeta& meta,
                                      std::uint64_t index_entries,
                                      std::uint64_t data_end) {
  BinaryWriter writer;
  writer.WriteU64(kStoreMagic);
  writer.WriteU32(kStoreVersion);
  writer.WriteU32(meta.num_partitions);
  writer.WriteU64(meta.num_snps);
  writer.WriteU64(meta.num_patients);
  writer.WriteU64(meta.fingerprint);
  writer.WriteU64(kHeaderBytes);  // index_offset: right after the header
  writer.WriteU64(index_entries);
  writer.WriteU64(data_end);
  writer.WriteU64(Checksum(writer.bytes()));
  return writer.TakeBytes();
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

GenotypeStoreWriter::GenotypeStoreWriter(std::string path,
                                         GenotypeStoreMeta meta, void* file)
    : path_(std::move(path)), meta_(meta), file_(file) {}

Result<std::unique_ptr<GenotypeStoreWriter>> GenotypeStoreWriter::Create(
    const std::string& path, const GenotypeStoreMeta& meta) {
  if (meta.num_partitions == 0) {
    return Status::InvalidArgument("genotype store needs >= 1 partition");
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Unavailable("cannot create genotype store " + path + ": " +
                               std::strerror(errno));
  }
  // Reserve header + index now; Finish seeks back and fills them in. The
  // placeholder bytes are zero, so a crash mid-stage leaves a file whose
  // magic check fails closed instead of one with a plausible header.
  const std::uint64_t index_entries = meta.num_partitions + kStoreAuxFrames;
  const std::uint64_t reserved =
      kHeaderBytes + index_entries * kIndexEntryBytes + 8;
  const std::vector<std::uint8_t> zeros(reserved, 0);
  if (std::fwrite(zeros.data(), 1, zeros.size(), file) != zeros.size()) {
    std::fclose(file);
    return Status::Unavailable("cannot reserve genotype store header in " +
                               path);
  }
  auto writer = std::unique_ptr<GenotypeStoreWriter>(
      // ss-lint: allow(naked-new) private ctor; make_unique cannot reach it
      new GenotypeStoreWriter(path, meta, file));
  writer->write_offset_ = reserved;
  return writer;
}

GenotypeStoreWriter::~GenotypeStoreWriter() {
  if (file_ != nullptr) std::fclose(static_cast<std::FILE*>(file_));
}

Status GenotypeStoreWriter::Append(StoreFrameKind kind, std::uint32_t ordinal,
                                   const std::vector<std::uint8_t>& payload) {
  static std::atomic<std::uint64_t>& frame_writes =
      StoreCounter("store.frame_writes");
  static std::atomic<std::uint64_t>& write_bytes =
      StoreCounter("store.write_bytes");
  SS_CHECK(file_ != nullptr && !finished_);
  if (kind == StoreFrameKind::kGenotypes) {
    if (ordinal >= meta_.num_partitions) {
      return Status::InvalidArgument("genotype frame ordinal out of range");
    }
  } else if (ordinal != 0) {
    return Status::InvalidArgument("aux frames use ordinal 0");
  }
  for (const IndexEntry& entry : entries_) {
    if (entry.kind == static_cast<std::uint32_t>(kind) &&
        entry.ordinal == ordinal) {
      return Status::AlreadyExists("duplicate store frame");
    }
  }

  BinaryWriter frame;
  frame.WriteU64(kFrameMagic);
  frame.WriteU64(Checksum(payload));
  frame.WriteU64(payload.size());
  auto* file = static_cast<std::FILE*>(file_);
  if (std::fwrite(frame.bytes().data(), 1, frame.bytes().size(), file) !=
          frame.bytes().size() ||
      (!payload.empty() &&
       std::fwrite(payload.data(), 1, payload.size(), file) !=
           payload.size())) {
    return Status::Unavailable("genotype store write failed: " + path_);
  }
  const std::uint64_t length = kFrameHeaderBytes + payload.size();
  entries_.push_back(IndexEntry{write_offset_, length,
                                static_cast<std::uint32_t>(kind), ordinal});
  write_offset_ += length;
  payload_bytes_ += payload.size();
  frame_writes.fetch_add(1, std::memory_order_relaxed);
  write_bytes.fetch_add(payload.size(), std::memory_order_relaxed);
  return Status::Ok();
}

Status GenotypeStoreWriter::Finish() {
  SS_CHECK(file_ != nullptr && !finished_);
  const std::uint64_t expected = meta_.num_partitions + kStoreAuxFrames;
  if (entries_.size() != expected) {
    return Status::FailedPrecondition(
        "genotype store incomplete: " + std::to_string(entries_.size()) +
        " of " + std::to_string(expected) + " frames appended");
  }

  BinaryWriter index;
  for (const IndexEntry& entry : entries_) {
    index.WriteU64(entry.offset);
    index.WriteU64(entry.length);
    index.WriteU32(entry.kind);
    index.WriteU32(entry.ordinal);
  }
  index.WriteU64(Checksum(index.bytes()));
  const std::vector<std::uint8_t> header =
      BuildHeader(meta_, entries_.size(), write_offset_);

  auto* file = static_cast<std::FILE*>(file_);
  bool ok = std::fseek(file, 0, SEEK_SET) == 0 &&
            std::fwrite(header.data(), 1, header.size(), file) ==
                header.size() &&
            std::fwrite(index.bytes().data(), 1, index.bytes().size(), file) ==
                index.bytes().size() &&
            std::fflush(file) == 0;
  ok = std::fclose(file) == 0 && ok;
  file_ = nullptr;
  finished_ = true;
  if (!ok) {
    return Status::Unavailable("genotype store finalize failed: " + path_);
  }
  engine::Tracer::Global().Instant(
      "store", "staged",
      {engine::Arg("path", path_),
       engine::Arg("partitions", meta_.num_partitions),
       engine::Arg("payload_bytes", payload_bytes_)});
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

Result<std::shared_ptr<GenotypeStore>> GenotypeStore::Open(
    const std::string& path) {
  static std::atomic<std::uint64_t>& opens = StoreCounter("store.opens");

  const int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT(hicpp-vararg)
  if (fd < 0) {
    return Status::NotFound("genotype store " + path + ": " +
                            std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::Unavailable("cannot stat genotype store " + path);
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);
    return Corrupt(path, "truncated header (" + std::to_string(size) +
                             " bytes, need " + std::to_string(kHeaderBytes) +
                             ")");
  }
  void* mapped = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  if (mapped == MAP_FAILED) {
    ::close(fd);
    return Status::Unavailable("mmap failed for genotype store " + path +
                               ": " + std::strerror(errno));
  }
  // The dominant access pattern is one forward pass per budget-bounded
  // run; sequential readahead keeps the frame reads fed from disk.
  (void)::madvise(mapped, size, MADV_SEQUENTIAL);

  auto store = std::shared_ptr<GenotypeStore>(
      // ss-lint: allow(naked-new) private ctor; make_shared cannot reach it
      new GenotypeStore());
  store->path_ = path;
  store->fd_ = fd;
  store->map_ = static_cast<const std::uint8_t*>(mapped);
  store->map_bytes_ = size;
  const std::uint8_t* base = store->map_;

  // Header. Magic first, with an explicit wrong-endianness diagnostic: a
  // store written on a big-endian host has the byte-swapped magic, which
  // is worth naming precisely instead of "bad magic".
  const std::uint64_t magic = ReadU64At(base, 0);
  if (magic != kStoreMagic) {
    if (ByteSwap64(magic) == kStoreMagic) {
      return Corrupt(path,
                     "byte-swapped magic: store was written on an "
                     "opposite-endianness host and cannot be mapped here");
    }
    return Corrupt(path, "bad magic (not a genotype store)");
  }
  if (ReadU64At(base, kHeaderChecksummedBytes) !=
      Checksum({base, kHeaderChecksummedBytes})) {
    return Corrupt(path, "header checksum mismatch");
  }
  const std::uint32_t version = ReadU32At(base, 8);
  if (version != kStoreVersion) {
    return Corrupt(path, "unsupported store version " +
                             std::to_string(version) + " (expected " +
                             std::to_string(kStoreVersion) + ")");
  }
  store->meta_.num_partitions = ReadU32At(base, 12);
  store->meta_.num_snps = ReadU64At(base, 16);
  store->meta_.num_patients = ReadU64At(base, 24);
  store->meta_.fingerprint = ReadU64At(base, 32);
  const std::uint64_t index_offset = ReadU64At(base, 40);
  const std::uint64_t index_entries = ReadU64At(base, 48);
  const std::uint64_t data_end = ReadU64At(base, 56);
  if (store->meta_.num_partitions == 0 ||
      index_entries != store->meta_.num_partitions + kStoreAuxFrames) {
    return Corrupt(path, "implausible frame count in header");
  }

  // Index: bounds, then content checksum. A file cut inside the index
  // region fails here ("truncated"), BEFORE any frame bounds check.
  const std::uint64_t index_bytes = index_entries * kIndexEntryBytes;
  if (index_offset != kHeaderBytes ||
      index_offset + index_bytes + 8 > size) {
    return Corrupt(path, "frame index truncated");
  }
  if (ReadU64At(base, index_offset + index_bytes) !=
      Checksum({base + index_offset, index_bytes})) {
    return Corrupt(path, "frame index checksum mismatch");
  }
  if (data_end > size) {
    return Corrupt(path, "file shorter than header's data_end (torn frame)");
  }

  store->genotype_frames_.assign(store->meta_.num_partitions, FrameRef{});
  std::vector<bool> seen(store->meta_.num_partitions, false);
  for (std::uint64_t i = 0; i < index_entries; ++i) {
    const std::uint64_t at = index_offset + i * kIndexEntryBytes;
    const FrameRef ref{ReadU64At(base, at), ReadU64At(base, at + 8)};
    const std::uint32_t kind = ReadU32At(base, at + 16);
    const std::uint32_t ordinal = ReadU32At(base, at + 20);
    if (ref.length < kFrameHeaderBytes || ref.offset < kHeaderBytes ||
        ref.offset + ref.length > size) {
      return Corrupt(path, "frame " + std::to_string(i) +
                               " out of bounds (torn frame)");
    }
    if (kind == static_cast<std::uint32_t>(StoreFrameKind::kGenotypes)) {
      if (ordinal >= store->meta_.num_partitions || seen[ordinal]) {
        return Corrupt(path, "bad genotype frame ordinal in index");
      }
      seen[ordinal] = true;
      store->genotype_frames_[ordinal] = ref;
    } else {
      store->aux_frames_.push_back({kind, ref});
    }
  }
  for (std::uint32_t p = 0; p < store->meta_.num_partitions; ++p) {
    if (!seen[p]) {
      return Corrupt(path, "missing genotype frame for partition " +
                               std::to_string(p));
    }
  }

  // Decode the provenance string eagerly — it is the one frame every
  // mismatch diagnostic needs.
  Result<std::vector<std::uint8_t>> description =
      store->ReadAuxFrame(StoreFrameKind::kDescription);
  if (!description.ok()) return description.status();
  store->description_.assign(description.value().begin(),
                             description.value().end());

  opens.fetch_add(1, std::memory_order_relaxed);
  engine::Tracer::Global().Instant(
      "store", "open",
      {engine::Arg("path", path), engine::Arg("bytes", size),
       engine::Arg("partitions", store->meta_.num_partitions)});
  return store;
}

GenotypeStore::~GenotypeStore() {
  if (map_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(map_), map_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
}

Result<std::vector<std::uint8_t>> GenotypeStore::ReadFrame(
    const FrameRef& ref, bool retire) const {
  static std::atomic<std::uint64_t>& frame_reads =
      StoreCounter("store.frame_reads");
  static std::atomic<std::uint64_t>& read_bytes =
      StoreCounter("store.read_bytes");

  const std::uint8_t* frame = map_ + ref.offset;
  if (ReadU64At(frame, 0) != kFrameMagic) {
    return Corrupt(path_, "frame magic mismatch at offset " +
                              std::to_string(ref.offset));
  }
  const std::uint64_t checksum = ReadU64At(frame, 8);
  const std::uint64_t payload_size = ReadU64At(frame, 16);
  if (payload_size != ref.length - kFrameHeaderBytes) {
    return Corrupt(path_, "frame length mismatch at offset " +
                              std::to_string(ref.offset));
  }
  const std::uint8_t* payload = frame + kFrameHeaderBytes;
  if (Checksum({payload, payload_size}) != checksum) {
    return Corrupt(path_, "frame payload checksum mismatch at offset " +
                              std::to_string(ref.offset));
  }
  std::vector<std::uint8_t> out(payload, payload + payload_size);

  if (retire) {
    // The caller owns a decoded copy now (charged to the cache budget);
    // the mapped pages are dead weight. Page-align the range — DONTNEED
    // on a file-backed read-only map just drops clean pages, and a
    // concurrent reader of the same frame simply refaults them.
    const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    const std::uint64_t begin = (ref.offset / page) * page;
    const std::uint64_t end = ref.offset + ref.length;
    (void)::madvise(const_cast<std::uint8_t*>(map_) + begin, end - begin,
                    MADV_DONTNEED);
  }

  frame_reads.fetch_add(1, std::memory_order_relaxed);
  read_bytes.fetch_add(payload_size, std::memory_order_relaxed);
  return out;
}

Result<std::vector<std::uint8_t>> GenotypeStore::ReadGenotypeFrame(
    std::uint32_t partition) const {
  if (partition >= genotype_frames_.size()) {
    return Status::InvalidArgument("store partition out of range");
  }
  return ReadFrame(genotype_frames_[partition], /*retire=*/true);
}

Result<std::vector<std::uint8_t>> GenotypeStore::ReadAuxFrame(
    StoreFrameKind kind) const {
  for (const auto& [frame_kind, ref] : aux_frames_) {
    if (frame_kind == static_cast<std::uint32_t>(kind)) {
      return ReadFrame(ref, /*retire=*/false);
    }
  }
  return Corrupt(path_, "missing aux frame kind " +
                            std::to_string(static_cast<std::uint32_t>(kind)));
}

}  // namespace ss::dfs
