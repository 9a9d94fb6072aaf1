// The study front end shared by the `sparkscore` CLI and every bench: how
// a `key=value` command line becomes a running, instrumented study.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "dfs/dfs.hpp"
#include "engine/context.hpp"
#include "simdata/dfs_writer.hpp"
#include "simdata/generator.hpp"
#include "support/log.hpp"
#include "support/option_map.hpp"
#include "support/status.hpp"

namespace ss::core {

/// What a tool analyzes: the simulated cohort, the engine it runs on and
/// the pipeline over it, plus where the pipeline reads the cohort from.
/// Each tool fills in its own defaults; ApplyStudyKeys lays the command
/// line over them.
struct StudySpec {
  simdata::GeneratorConfig generator;
  PipelineConfig pipeline;
  /// The cache budget lives here only (cache_capacity_bytes);
  /// pipeline.cache_budget_bytes stays 0 and keeps the context's setting.
  engine::EngineContext::Options engine;

  /// Give the run a MiniDfs and, without `store`, read the cohort through
  /// Algorithm 1's text files in it (else hold it in memory): uncached,
  /// every replicate then re-reads its input, as Spark re-scans HDFS.
  bool use_dfs = true;

  /// Phenotype staged with the DFS text: `cox`, `gaussian` (log survival
  /// time) or `binomial` (the event indicator); other sources hold Cox.
  std::string model = "cox";

  /// Genotype store to open instead (OpenStudy's stage-once policy).
  std::string store;
};

/// Lays the workload keys (patients snps sets seed ld_block), the engine
/// keys (nodes partitions reducers threads batch cache_budget store) and
/// model= / faithful= over `defaults`; a key not on the command line keeps
/// the tool's default. seed= seeds the generator, the pipeline and the
/// engine alike. Fails with InvalidArgument when the generator or the
/// partitioner cannot serve the resulting shape.
Result<StudySpec> ApplyStudyKeys(const support::OptionMap& args,
                                 StudySpec defaults);

/// An opened study; members are declared in dependency order, so they are
/// destroyed together, pipeline first.
struct Study {
  std::unique_ptr<dfs::MiniDfs> dfs;  ///< Null without StudySpec::use_dfs.
  std::unique_ptr<engine::EngineContext> ctx;
  std::unique_ptr<SkatPipeline> pipeline;
  /// Set when this open staged the genotype store.
  std::optional<simdata::StoreStageResult> staged;
};

/// Zeroes the process-global counters (each study's metrics describe its
/// own run only), then stages the cohort and opens the pipeline over it.
/// With `store`, the one stage-once policy every tool shares: the file is
/// opened against the cohort's fingerprint; only a missing file is staged
/// (written to `<store>.partial`, then renamed into place); a file holding
/// another cohort (InvalidArgument) or a corrupt one (DataLoss) is refused
/// and left as it is. Fails with InvalidArgument on a shape the generator
/// or the partitioner cannot serve.
Result<Study> OpenStudy(const StudySpec& spec);

/// Prints stages=1's run report and profile_report=1's critical-path
/// report, and writes trace=<file> (the process-global tracer: every
/// study so far) and metrics=<file> from `ctx`. A path of "-" streams:
/// metrics to stdout, trace to stderr. A file that cannot be written is
/// reported on stderr and does not fail the run.
void WriteRunArtifacts(const support::OptionMap& args,
                       engine::EngineContext& ctx);

/// The keys a tool accepts: every registry key in `groups`, plus `keys`,
/// minus `fixed` (keys of those groups the tool sets itself, such as a
/// swept node count; passing one is an error).
struct ToolKeys {
  std::vector<std::string> groups = {};
  std::vector<std::string> keys = {};
  std::vector<std::string> fixed = {};
};

/// The main() of every study tool. Parses argv[begin..argc) and refuses,
/// before any work, a positional token, a key the tool does not accept
/// and a value that does not fit its key: one `error:` line each on
/// stderr, exit 2. Then applies the observability keys — loglevel= (else
/// `default_level`, unless SS_LOG_LEVEL is set), trace= (enables the
/// tracer), profile= and kernel= — and returns `body`'s exit code. A
/// StatusError escaping `body` prints an `error:` line and exits 2 for
/// InvalidArgument (bad input), 1 otherwise.
int RunStudyTool(int argc, char** argv, int begin, const ToolKeys& keys,
                 LogLevel default_level,
                 const std::function<int(const support::OptionMap&)>& body);

}  // namespace ss::core
