#include "dfs/dfs.hpp"

#include <algorithm>

#include "engine/trace.hpp"
#include "support/binary_io.hpp"
#include "support/log.hpp"

namespace ss::dfs {
namespace {
constexpr std::uint32_t kBlockMagic = 0x53424c4bU;  // "SBLK"

/// Counts one committed block (payload bytes x replicas) and emits an
/// instant event tagged with the placement.
void RecordBlockWrite(const BlockMeta& meta) {
  static std::atomic<std::uint64_t>& writes =
      engine::CounterRegistry::Global().Get("dfs.block_writes");
  static std::atomic<std::uint64_t>& write_bytes =
      engine::CounterRegistry::Global().Get("dfs.write_bytes");
  writes.fetch_add(1, std::memory_order_relaxed);
  write_bytes.fetch_add(
      meta.size_bytes * static_cast<std::uint64_t>(meta.replica_nodes.size()),
      std::memory_order_relaxed);
  engine::Tracer::Global().Instant(
      "dfs", "block write",
      {engine::Arg("file", meta.id.file_id), engine::Arg("block", meta.id.index),
       engine::Arg("bytes", meta.size_bytes),
       engine::Arg("replicas", meta.replica_nodes.size())});
}

}  // namespace

MiniDfs::MiniDfs(DfsOptions options)
    : options_(options),
      name_node_(std::make_unique<NameNode>(options.num_nodes,
                                            options.replication)) {
  SS_CHECK(options_.block_lines >= 1);
  stores_.reserve(static_cast<std::size_t>(options_.num_nodes));
  for (int i = 0; i < options_.num_nodes; ++i) {
    stores_.push_back(std::make_unique<BlockStore>());
  }
}

std::vector<std::uint8_t> MiniDfs::EncodeBlock(
    const std::vector<std::string>& lines) {
  BinaryWriter writer;
  writer.WriteU32(kBlockMagic);
  writer.WriteU64(lines.size());
  for (const auto& line : lines) writer.WriteString(line);
  return writer.TakeBytes();
}

Result<std::vector<std::string>> MiniDfs::DecodeBlock(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < sizeof(std::uint32_t)) {
    return Status::DataLoss("block truncated");
  }
  BinaryReader reader(bytes);
  if (reader.ReadU32() != kBlockMagic) {
    return Status::DataLoss("bad block magic");
  }
  const std::uint64_t count = reader.ReadU64();
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) lines.push_back(reader.ReadString());
  return lines;
}

Status MiniDfs::WriteTextFile(const std::string& path,
                              const std::vector<std::string>& lines) {
  Result<std::uint64_t> file_id = name_node_->CreateFile(path);
  if (!file_id.ok()) return file_id.status();

  std::uint32_t block_index = 0;
  // Always write at least one (possibly empty) block so empty files are
  // representable and produce one empty input partition.
  std::size_t offset = 0;
  do {
    const std::size_t end =
        std::min(lines.size(), offset + options_.block_lines);
    std::vector<std::string> block_lines(lines.begin() + static_cast<std::ptrdiff_t>(offset),
                                         lines.begin() + static_cast<std::ptrdiff_t>(end));
    std::vector<std::uint8_t> payload = EncodeBlock(block_lines);

    BlockMeta meta;
    meta.id = BlockId{file_id.value(), block_index};
    meta.checksum = Checksum(payload);
    meta.size_bytes = payload.size();
    meta.replica_nodes = name_node_->PlaceBlock();
    if (meta.replica_nodes.empty()) {
      return Status::ResourceExhausted("no live DataNodes for placement");
    }
    for (int node : meta.replica_nodes) {
      stores_[static_cast<std::size_t>(node)]->Put(meta.id, payload);
    }
    RecordBlockWrite(meta);
    SS_RETURN_IF_ERROR(name_node_->CommitBlock(file_id.value(), meta));
    ++block_index;
    offset = end;
  } while (offset < lines.size());

  return name_node_->SealFile(file_id.value(), lines.size());
}

Result<std::vector<std::uint8_t>> MiniDfs::FetchBlockBytes(
    const BlockMeta& meta) const {
  static std::atomic<std::uint64_t>& reads =
      engine::CounterRegistry::Global().Get("dfs.block_reads");
  static std::atomic<std::uint64_t>& read_bytes =
      engine::CounterRegistry::Global().Get("dfs.read_bytes");
  static std::atomic<std::uint64_t>& failovers =
      engine::CounterRegistry::Global().Get("dfs.read_failovers");
  engine::TraceSpan span(
      engine::Tracer::Global(), "dfs",
      "block read f" + std::to_string(meta.id.file_id) + " b" +
          std::to_string(meta.id.index),
      {engine::Arg("file", meta.id.file_id),
       engine::Arg("block", meta.id.index)});
  reads.fetch_add(1, std::memory_order_relaxed);
  int attempts = 0;
  for (int node : meta.replica_nodes) {
    if (!name_node_->IsNodeAlive(node)) continue;
    ++attempts;
    Result<std::vector<std::uint8_t>> bytes =
        stores_[static_cast<std::size_t>(node)]->Get(meta.id);
    if (!bytes.ok()) continue;  // replica dropped (e.g. node was recycled)
    if (Checksum(bytes.value()) != meta.checksum) {
      SS_LOG(kWarn, "dfs") << "checksum mismatch for block " << meta.id.index
                           << " on node " << node << "; trying next replica";
      continue;
    }
    if (attempts > 1) {
      failovers.fetch_add(static_cast<std::uint64_t>(attempts - 1),
                          std::memory_order_relaxed);
    }
    read_bytes.fetch_add(bytes.value().size(), std::memory_order_relaxed);
    span.AddEndArg(engine::Arg("bytes", bytes.value().size()));
    span.AddEndArg(engine::Arg("node", node));
    return bytes;
  }
  span.AddEndArg(engine::Arg("outcome", "data_loss"));
  return Status::DataLoss("no intact live replica for block");
}

Result<std::vector<std::string>> MiniDfs::FetchBlock(
    const BlockMeta& meta) const {
  Result<std::vector<std::uint8_t>> bytes = FetchBlockBytes(meta);
  if (!bytes.ok()) return bytes.status();
  return DecodeBlock(bytes.value());
}

Result<std::vector<std::string>> MiniDfs::ReadTextFile(
    const std::string& path) const {
  Result<FileMeta> meta = name_node_->Lookup(path);
  if (!meta.ok()) return meta.status();
  std::vector<std::string> lines;
  lines.reserve(meta.value().total_lines);
  for (const BlockMeta& block : meta.value().blocks) {
    Result<std::vector<std::string>> block_lines = FetchBlock(block);
    if (!block_lines.ok()) return block_lines.status();
    for (auto& line : block_lines.value()) lines.push_back(std::move(line));
  }
  return lines;
}

Result<std::vector<std::string>> MiniDfs::ReadBlockLines(
    const std::string& path, std::uint32_t block_index) const {
  Result<FileMeta> meta = name_node_->Lookup(path);
  if (!meta.ok()) return meta.status();
  if (block_index >= meta.value().blocks.size()) {
    return Status::InvalidArgument("block index out of range");
  }
  return FetchBlock(meta.value().blocks[block_index]);
}

Result<std::uint32_t> MiniDfs::BlockCount(const std::string& path) const {
  Result<FileMeta> meta = name_node_->Lookup(path);
  if (!meta.ok()) return meta.status();
  return static_cast<std::uint32_t>(meta.value().blocks.size());
}

void MiniDfs::KillNode(int node) {
  name_node_->SetNodeAlive(node, false);
  stores_[static_cast<std::size_t>(node)]->Clear();
}

void MiniDfs::ReviveNode(int node) { name_node_->SetNodeAlive(node, true); }

int MiniDfs::RepairReplication() {
  int repaired = 0;
  for (const std::string& path : name_node_->ListFiles()) {
    Result<FileMeta> meta = name_node_->Lookup(path);
    if (!meta.ok()) continue;
    for (const BlockMeta& block : meta.value().blocks) {
      // Count intact live replicas; re-fetch & copy if below target.
      std::vector<int> live;
      for (int node : block.replica_nodes) {
        if (name_node_->IsNodeAlive(node) &&
            stores_[static_cast<std::size_t>(node)]->Get(block.id).ok()) {
          live.push_back(node);
        }
      }
      if (static_cast<int>(live.size()) >= name_node_->replication() ||
          live.empty()) {
        continue;
      }
      Result<std::vector<std::uint8_t>> bytes =
          stores_[static_cast<std::size_t>(live.front())]->Get(block.id);
      if (!bytes.ok()) continue;
      bool changed = false;
      for (int node = 0; node < name_node_->num_nodes() &&
                         static_cast<int>(live.size()) < name_node_->replication();
           ++node) {
        if (!name_node_->IsNodeAlive(node)) continue;
        if (std::find(live.begin(), live.end(), node) != live.end()) continue;
        stores_[static_cast<std::size_t>(node)]->Put(block.id, bytes.value());
        live.push_back(node);
        changed = true;
        ++repaired;
      }
      if (changed) {
        SS_CHECK(name_node_->UpdateReplicas(block.id.file_id, block.id.index,
                                            live)
                     .ok());
      }
    }
  }
  return repaired;
}

Status MiniDfs::CorruptReplica(const std::string& path,
                               std::uint32_t block_index, int node) {
  Result<FileMeta> meta = name_node_->Lookup(path);
  if (!meta.ok()) return meta.status();
  if (block_index >= meta.value().blocks.size()) {
    return Status::InvalidArgument("block index out of range");
  }
  return stores_[static_cast<std::size_t>(node)]->Corrupt(
      meta.value().blocks[block_index].id);
}

std::uint64_t MiniDfs::TotalBytesStored() const {
  std::uint64_t total = 0;
  for (const auto& store : stores_) total += store->bytes_stored();
  return total;
}

}  // namespace ss::dfs
