// Fault-tolerance walkthrough — the Spark property the paper leans on
// ("harnesses the fault-tolerant features of Spark").
//
// The example runs a Monte Carlo analysis while killing a node mid-job:
//   1. a DFS data node dies -> block reads fail over to replicas;
//   2. an executor node dies -> its cached genotype partitions vanish and
//      are rebuilt through lineage;
//   3. re-replication repairs DFS redundancy afterwards.
// The analysis results must be identical to an undisturbed run.
//
//   ./cluster_failover
#include <cstdio>

#include "core/record_traits.hpp"
#include "core/sparkscore.hpp"

int main() {
  using namespace ss;

  simdata::GeneratorConfig generator;
  generator.num_patients = 300;
  generator.num_snps = 1000;
  generator.num_sets = 50;
  generator.seed = 1234;

  core::PipelineConfig config;
  config.seed = 1234;
  const std::uint64_t replicates = 200;

  // ---- Reference run: no failures. ----------------------------------------
  core::ResamplingResult reference;
  {
    dfs::MiniDfs dfs({.num_nodes = 4, .replication = 2, .block_lines = 32});
    const auto paths = simdata::GenerateToDfs(dfs, "/study", generator);
    engine::EngineContext::Options options;
    options.topology = cluster::EmrCluster(4);
    engine::EngineContext ctx(options, &dfs);
    auto pipeline = core::SkatPipeline::Open(ctx, paths.value(), config);
    reference = core::RunResampling(pipeline.value(), {core::ResamplingMethod::kMonteCarlo, replicates}).scores;
  }
  std::printf("Reference run complete: %s\n",
              core::SummarizeResult(reference).c_str());

  // ---- Chaos run: node 2 dies mid-analysis. --------------------------------
  dfs::MiniDfs dfs({.num_nodes = 4, .replication = 2, .block_lines = 32});
  const auto paths = simdata::GenerateToDfs(dfs, "/study", generator);

  cluster::FaultInjector faults;
  engine::EngineContext::Options options;
  options.topology = cluster::EmrCluster(4);
  engine::EngineContext ctx(options, &dfs, &faults);

  // The injector's node-failure callback already drops node 2's cached
  // partitions (wired by the context); additionally kill its DFS role so
  // block reads must fail over too.
  faults.SetOnNodeFailure([&ctx, &dfs](int node) {
    ctx.FailNode(node);
    dfs.KillNode(node);
    std::printf(">>> node %d failed (cache dropped + DFS replicas lost)\n",
                node);
  });
  faults.FailNodeAfterTasks(2, 40);  // mid-observed-computation

  auto pipeline = core::SkatPipeline::Open(ctx, paths.value(), config);
  const core::ResamplingResult chaotic =
      core::RunResampling(pipeline.value(), {core::ResamplingMethod::kMonteCarlo, replicates}).scores;
  std::printf("Chaos run complete:     %s\n",
              core::SummarizeResult(chaotic).c_str());
  std::printf("Node 2 failure fired: %s; cached partitions dropped by "
              "failure: %llu\n",
              faults.HasFired(2) ? "yes" : "no",
              static_cast<unsigned long long>(
                  ctx.cache().stats().dropped_by_failure));

  // ---- Verify equality. ------------------------------------------------------
  bool identical = reference.observed.size() == chaotic.observed.size();
  for (const auto& [set_id, score] : reference.observed) {
    if (!chaotic.observed.contains(set_id) ||
        std::abs(chaotic.observed.at(set_id) - score) > 1e-9 ||
        chaotic.exceed.at(set_id) != reference.exceed.at(set_id)) {
      identical = false;
      std::printf("MISMATCH at set %u\n", set_id);
    }
  }
  std::printf("\nResults identical to the undisturbed run: %s\n",
              identical ? "YES — lineage + replication recovered everything"
                        : "NO — fault recovery failed");

  // ---- Repair and report. -----------------------------------------------------
  dfs.ReviveNode(2);
  const int repaired = dfs.RepairReplication();
  std::printf("DFS re-replication after node revival repaired %d block "
              "replicas\n", repaired);
  return identical ? 0 : 1;
}
