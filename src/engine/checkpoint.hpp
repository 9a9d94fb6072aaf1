// DFS checkpointing with lineage truncation (Spark's checkpoint()): the
// pipeline persists its U RDD here when `checkpoint_contributions_path`
// is set, so recovery re-reads replicated blocks instead of recomputing
// from the original inputs.
#pragma once

#include "engine/codec.hpp"
#include "engine/dataset.hpp"

namespace ss::engine {

namespace nodes {

/// Reads a checkpoint written by Checkpoint(): a source node with no
/// parents (lineage truncated), one partition per DFS block.
template <typename T>
class CheckpointNode final : public Node<T> {
 public:
  CheckpointNode(EngineContext* ctx, std::string path,
                 std::uint32_t num_partitions)
      : Node<T>(ctx, "checkpoint(" + path + ")", num_partitions, {}),
        path_(std::move(path)) {}

  std::vector<T> ComputePartition(std::uint32_t index,
                                  TaskContext&) override {
    SS_CHECK(this->ctx_->dfs() != nullptr);
    Result<std::vector<std::uint8_t>> bytes =
        this->ctx_->dfs()->ReadBinaryBlock(path_, index);
    if (!bytes.ok()) {
      throw TaskFailure("checkpoint read failed: " + bytes.status().ToString());
    }
    return DecodePartition<T>(bytes.value());
  }

 private:
  std::string path_;
};

}  // namespace nodes

/// Persists the dataset's partitions to the DFS and returns a new dataset
/// reading from them with TRUNCATED lineage (no parents). Long resampling
/// chains checkpoint their expensive intermediates so recovery does not
/// recompute from the original inputs. Requires Codec<T>.
template <typename T>
Result<Dataset<T>> Checkpoint(const Dataset<T>& ds, const std::string& path) {
  if (ds.context()->dfs() == nullptr) {
    return Status::FailedPrecondition("no DFS attached to the context");
  }
  std::vector<std::vector<T>> partitions = RunStage(*ds.node(), "checkpoint");
  std::vector<std::vector<std::uint8_t>> blocks;
  blocks.reserve(partitions.size());
  for (const auto& partition : partitions) {
    blocks.push_back(EncodePartition(partition));
  }
  SS_RETURN_IF_ERROR(ds.context()->dfs()->WriteBinaryFile(path, blocks));
  return Dataset<T>(ds.context(),
                    std::make_shared<nodes::CheckpointNode<T>>(
                        ds.context(), path,
                        static_cast<std::uint32_t>(blocks.size())));
}

}  // namespace ss::engine
