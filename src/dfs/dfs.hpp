// MiniDfs: the facade combining a NameNode with per-node BlockStores.
//
// Files are line-oriented text (matching the paper's "Genotype Matrix Text
// File" etc.). A write splits lines into blocks of `block_lines` lines,
// serializes each block with a checksum, and stores replicas on
// `replication` distinct nodes. A read fetches block replicas in placement
// order, skipping dead nodes and checksum mismatches — the HDFS failover
// behaviour that Spark input stages rely on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dfs/block.hpp"
#include "dfs/block_store.hpp"
#include "dfs/namenode.hpp"
#include "support/status.hpp"

namespace ss::dfs {

struct DfsOptions {
  int num_nodes = 4;
  int replication = 2;
  std::uint32_t block_lines = 1024;  ///< Lines per block.
};

class MiniDfs {
 public:
  explicit MiniDfs(DfsOptions options);

  /// Writes `lines` as a new text file. AlreadyExists on duplicate path;
  /// ResourceExhausted if fewer live nodes than one replica target.
  Status WriteTextFile(const std::string& path,
                       const std::vector<std::string>& lines);

  /// Reads the whole file back, failing over across replicas per block.
  /// DataLoss if any block has no intact live replica.
  Result<std::vector<std::string>> ReadTextFile(const std::string& path) const;

  /// Reads one block's lines (the engine maps one input partition to one
  /// block). DataLoss if no intact live replica exists.
  Result<std::vector<std::string>> ReadBlockLines(const std::string& path,
                                                  std::uint32_t block_index) const;

  /// Number of blocks in `path` (NotFound if absent).
  Result<std::uint32_t> BlockCount(const std::string& path) const;

  /// Kills a node: marked dead and its replicas dropped. Reads fail over.
  void KillNode(int node);

  /// Revives a node (its old replicas are gone; new writes may target it).
  void ReviveNode(int node);

  /// Re-replicates blocks that lost replicas so each again has
  /// `replication` live copies where possible. Returns blocks repaired.
  /// This is the HDFS background re-replication pipeline, run on demand.
  int RepairReplication();

  /// Test hook: corrupts one replica of a block on a specific node.
  Status CorruptReplica(const std::string& path, std::uint32_t block_index,
                        int node);

  const NameNode& name_node() const { return *name_node_; }
  NameNode& name_node() { return *name_node_; }

  bool Exists(const std::string& path) const { return name_node_->Exists(path); }

  /// Total bytes stored across all live nodes (for reporting).
  std::uint64_t TotalBytesStored() const;

  /// Serializes block lines with a magic header; returns payload bytes.
  static std::vector<std::uint8_t> EncodeBlock(
      const std::vector<std::string>& lines);
  /// Inverse of EncodeBlock. A short block, a bad magic or trailing
  /// bytes are DataLoss, never an abort.
  static Result<std::vector<std::string>> DecodeBlock(
      const std::vector<std::uint8_t>& bytes);

 private:
  /// Fetches one block's validated raw bytes given its metadata.
  Result<std::vector<std::uint8_t>> FetchBlockBytes(const BlockMeta& meta) const;

  /// Fetches and decodes one text block given its metadata.
  Result<std::vector<std::string>> FetchBlock(const BlockMeta& meta) const;

  DfsOptions options_;
  std::unique_ptr<NameNode> name_node_;
  std::vector<std::unique_ptr<BlockStore>> stores_;
};

}  // namespace ss::dfs
