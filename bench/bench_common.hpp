// Shared scaffolding for the reproduction benches.
//
// Each bench binary regenerates one table/figure of the paper. Problem
// sizes default to scaled-down values that finish in seconds on a laptop;
// pass key=value arguments (e.g. `bench_caching snps_large=100000 reps=5`)
// to approach the paper's sizes. Every bench prints the scale it ran at so
// EXPERIMENTS.md comparisons stay honest. The study front end — key
// checks, observability, staging, artifacts — is core/study.hpp, shared
// with the CLI.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "baseline/serial_skat.hpp"
#include "core/record_traits.hpp"
#include "core/sparkscore.hpp"
#include "core/study.hpp"
#include "support/option_map.hpp"
#include "support/stopwatch.hpp"
#include "support/summary.hpp"
#include "support/table.hpp"

namespace ss::bench {

using Args = support::OptionMap;

/// main() of a bench that builds studies: accepts the workload, engine and
/// observability keys, faithful=, and the bench's own `keys` except the
/// `fixed` ones it sets itself; refuses anything else with exit 2 before
/// any work (core::RunStudyTool), then runs `body`.
int RunBench(int argc, char** argv, std::vector<std::string> keys,
             const std::function<int(const Args&)>& body,
             std::vector<std::string> fixed = {});

/// The benches' default study, ~50x below the paper's Table II shape per
/// dimension: 200 patients, 8 partitions on 6 nodes, 4 worker threads and
/// the paper's cost regime (faithful=1: per-patient O(n²) Cox scores, a
/// rebuild per permutation replicate, Monte Carlo over the cached U).
/// Each bench sets its own defaults on top, then core::ApplyStudyKeys.
core::StudySpec BenchSpec(std::uint32_t snps, std::uint32_t sets);

/// Prints the bench banner: paper reference, simulated hardware (Table I),
/// and the scale the bench runs at.
void PrintBanner(const std::string& bench_name, const std::string& reproduces,
                 const std::string& scale_note);

/// Times `fn` once, returning seconds.
double TimeOnce(const std::function<void()>& fn);

/// Opens a fresh study per repetition (outside the timer — generation and
/// staging are not part of the measured analysis, matching the paper's
/// timing of the Spark job only) and times `fn` over it. When `args` is
/// given, the last repetition's run artifacts are written
/// (core::WriteRunArtifacts) before its study is torn down.
std::vector<double> TimeAnalysisRuns(
    const core::StudySpec& spec, int reps,
    const std::function<void(core::SkatPipeline&)>& fn,
    const Args* args = nullptr);

/// "123.4 ± 5.6" formatting for Table III/V style cells.
std::string MeanStdevCell(const std::vector<double>& seconds);

}  // namespace ss::bench
