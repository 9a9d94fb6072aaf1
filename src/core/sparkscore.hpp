// Umbrella header: everything a SparkScore user needs.
//
//   #include "core/sparkscore.hpp"
//
//   ss::dfs::MiniDfs dfs({.num_nodes = 4, .replication = 2});
//   ss::engine::EngineContext ctx({.topology = ss::cluster::EmrCluster(6)},
//                                 &dfs);
//   auto paths = ss::simdata::GenerateToDfs(dfs, "/study", {...}).value();
//   auto pipeline = ss::core::SkatPipeline::Open(ctx, paths, {}).value();
//   auto run = ss::core::RunResampling(
//       pipeline, {ss::core::ResamplingMethod::kMonteCarlo, /*B=*/1000});
//   std::cout << ss::core::FormatTopHits(run.scores, 10);
#pragma once

#include "core/autotune.hpp"      // IWYU pragma: export
#include "core/pipeline.hpp"      // IWYU pragma: export
#include "core/report.hpp"        // IWYU pragma: export
#include "core/resampling_methods.hpp"  // IWYU pragma: export
