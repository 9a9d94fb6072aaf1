#include "core/study.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <system_error>

#include "engine/profile.hpp"
#include "engine/trace.hpp"
#include "simdata/store_codec.hpp"
#include "stats/kernels/kernels.hpp"

namespace ss::core {
namespace {

/// Why the generator or the partitioner cannot serve this shape, or
/// nullptr when they can.
const char* BadShape(std::uint64_t patients, std::uint64_t snps,
                     std::uint64_t sets, std::uint64_t partitions) {
  if (std::max({patients, snps, sets, partitions}) >
      std::numeric_limits<std::uint32_t>::max()) {
    return "patients, snps, sets and partitions must each be below 2^32";
  }
  if (patients < 2) return "patients must be >= 2";
  if (sets < 1) return "sets must be >= 1";
  if (snps < sets) return "snps must be >= sets";
  if (partitions < 1) return "partitions must be >= 1";
  return nullptr;
}

/// The non-Cox phenotype `model` stages for the DFS text path: log
/// survival time as a quantitative trait, the event indicator as a binary
/// one, so every score model runs end to end on the same cohort.
Result<stats::Phenotype> StudyPhenotype(
    const std::string& model, const simdata::SyntheticDataset& dataset) {
  const stats::SurvivalData& survival = dataset.survival;
  if (model == "gaussian") {
    stats::QuantitativeData trait;
    for (double time : survival.time) trait.value.push_back(std::log(time));
    return stats::Phenotype::Gaussian(std::move(trait));
  }
  if (model == "binomial") {
    stats::BinaryData trait;
    trait.value = survival.event;
    return stats::Phenotype::Binomial(std::move(trait));
  }
  return Status::InvalidArgument(
      "model must be cox|gaussian|binomial, got '" + model + "'");
}

Result<SkatPipeline> OpenFromText(const StudySpec& spec, Study* study) {
  const simdata::SyntheticDataset dataset =
      simdata::Generate(spec.generator);
  const auto paths = simdata::StudyPaths::Under("/study");
  if (spec.model == "cox") {
    SS_RETURN_IF_ERROR(simdata::WriteStudy(*study->dfs, paths, dataset));
  } else {
    Result<stats::Phenotype> phenotype = StudyPhenotype(spec.model, dataset);
    if (!phenotype.ok()) return phenotype.status();
    SS_RETURN_IF_ERROR(simdata::WriteStudyWithPhenotype(
        *study->dfs, paths, dataset, phenotype.value()));
  }
  return SkatPipeline::Open(*study->ctx, paths, spec.pipeline);
}

Result<SkatPipeline> OpenFromStore(const StudySpec& spec, Study* study) {
  const std::uint64_t fingerprint = simdata::StoreFingerprint(spec.generator);
  Result<SkatPipeline> pipeline = SkatPipeline::OpenFromStore(
      *study->ctx, spec.store, spec.pipeline, fingerprint);
  if (pipeline.ok() || pipeline.status().code() != StatusCode::kNotFound) {
    return pipeline;
  }
  // Staged under a temporary name, so an interrupted run never leaves a
  // file at the store path.
  const std::string partial = spec.store + ".partial";
  Result<simdata::StoreStageResult> staged = simdata::GenerateToStore(
      spec.generator, partial, spec.pipeline.num_partitions);
  if (!staged.ok()) return staged.status();
  std::error_code error;
  std::filesystem::rename(partial, spec.store, error);
  if (error) {
    return Status::Internal("could not rename " + partial + " to " +
                            spec.store + ": " + error.message());
  }
  study->staged = staged.value();
  return SkatPipeline::OpenFromStore(*study->ctx, spec.store, spec.pipeline,
                                     fingerprint);
}

/// Streams `text()` to `stream` for a path of "-", writes it to any other
/// non-empty path.
void WriteArtifact(const char* what, const std::string& path,
                   std::FILE* stream, const std::function<std::string()>& text) {
  if (path == "-") {
    std::fputs(text().c_str(), stream);
  } else if (!path.empty()) {
    std::ofstream out(path);
    out << text();
    if (out.good()) {
      std::printf("%s written to %s\n", what, path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write %s to %s\n", what,
                   path.c_str());
    }
  }
}

}  // namespace

Result<StudySpec> ApplyStudyKeys(const support::OptionMap& args,
                                 StudySpec defaults) {
  StudySpec spec = std::move(defaults);
  simdata::GeneratorConfig& generator = spec.generator;
  const std::uint64_t patients =
      args.GetU64("patients", generator.num_patients);
  const std::uint64_t snps = args.GetU64("snps", generator.num_snps);
  const std::uint64_t sets = args.GetU64("sets", generator.num_sets);
  const std::uint64_t partitions =
      args.GetU64("partitions", spec.pipeline.num_partitions);
  if (const char* problem = BadShape(patients, snps, sets, partitions)) {
    return Status::InvalidArgument(problem);
  }
  generator.num_patients = static_cast<std::uint32_t>(patients);
  generator.num_snps = static_cast<std::uint32_t>(snps);
  generator.num_sets = static_cast<std::uint32_t>(sets);
  generator.ld_block_size = static_cast<std::uint32_t>(
      args.GetU64("ld_block", generator.ld_block_size));
  generator.seed = args.GetU64("seed", generator.seed);
  spec.pipeline.seed = generator.seed;
  spec.engine.seed = generator.seed;

  spec.pipeline.num_partitions = static_cast<std::uint32_t>(partitions);
  spec.pipeline.num_reducers = static_cast<std::uint32_t>(
      args.GetU64("reducers", spec.pipeline.num_reducers));
  // Resampling replicates per engine pass; results are bitwise invariant
  // to it (batch=1 recovers per-replicate scheduling).
  spec.pipeline.resampling_batch_size = std::max<std::uint64_t>(
      1, args.GetU64("batch", spec.pipeline.resampling_batch_size));
  spec.pipeline.paper_faithful_scores =
      args.GetBool("faithful", spec.pipeline.paper_faithful_scores);

  if (args.Has("nodes")) {
    spec.engine.topology =
        cluster::EmrCluster(static_cast<int>(args.GetU64("nodes", 0)));
  }
  spec.engine.physical_threads =
      args.GetU64("threads", spec.engine.physical_threads);
  // Constrained-memory runs: the partition cache's budget in bytes (0 =
  // unlimited); an evicted partition is dropped and its next use
  // recomputes it, or re-reads its frame from a store.
  spec.engine.cache_capacity_bytes =
      args.GetU64("cache_budget", spec.engine.cache_capacity_bytes);
  spec.store = args.GetStr("store", spec.store);
  spec.model = args.GetStr("model", spec.model);
  return spec;
}

Result<Study> OpenStudy(const StudySpec& spec) {
  if (const char* problem =
          BadShape(spec.generator.num_patients, spec.generator.num_snps,
                   spec.generator.num_sets, spec.pipeline.num_partitions)) {
    return Status::InvalidArgument(problem);
  }
  if (spec.model != "cox" && (!spec.store.empty() || !spec.use_dfs)) {
    return Status::InvalidArgument(
        "model=" + spec.model +
        " needs the DFS text path: store= and in-memory studies hold the "
        "Cox phenotype only");
  }
  // Zeroed before the context is built: its constructor re-stamps level
  // gauges (kernel.dispatch) that a later reset would wipe.
  engine::CounterRegistry::Global().ResetAll();
  Study study;
  if (spec.use_dfs) {
    // Blocks sized so the genotype file splits into about num_partitions
    // input partitions, as in the in-memory configuration.
    study.dfs = std::make_unique<dfs::MiniDfs>(dfs::DfsOptions{
        .num_nodes = std::max(2, spec.engine.topology.num_nodes),
        .replication = 2,
        .block_lines = std::max<std::uint32_t>(
            1, spec.generator.num_snps / spec.pipeline.num_partitions)});
  }
  study.ctx =
      std::make_unique<engine::EngineContext>(spec.engine, study.dfs.get());
  Result<SkatPipeline> pipeline = [&]() -> Result<SkatPipeline> {
    if (!spec.store.empty()) return OpenFromStore(spec, &study);
    if (spec.use_dfs) return OpenFromText(spec, &study);
    return SkatPipeline::FromMemory(
        *study.ctx, simdata::Generate(spec.generator), spec.pipeline);
  }();
  if (!pipeline.ok()) return pipeline.status();
  study.pipeline =
      std::make_unique<SkatPipeline>(std::move(pipeline).value());
  return study;
}

void WriteRunArtifacts(const support::OptionMap& args,
                       engine::EngineContext& ctx) {
  if (args.GetBool("stages", false)) {
    std::fputs(engine::FormatRunReport(ctx.metrics().stages(),
                                       ctx.cache().stats(),
                                       ctx.metrics().broadcast_bytes())
                   .c_str(),
               stdout);
  }
  if (args.GetBool("profile_report", false)) {
    std::fputs(engine::FormatProfileReport(
                   engine::BuildRunProfile(ctx.metrics().stages()))
                   .c_str(),
               stdout);
  }
  WriteArtifact("trace", args.GetStr("trace", ""), stderr,
                [] { return engine::Tracer::Global().ChromeTraceJson(); });
  WriteArtifact("metrics", args.GetStr("metrics", ""), stdout,
                [&ctx] { return ctx.RunMetricsJson(); });
}

int RunStudyTool(int argc, char** argv, int begin, const ToolKeys& keys,
                 LogLevel default_level,
                 const std::function<int(const support::OptionMap&)>& body) {
  const support::OptionMap args(argc, argv, begin);
  if (!keys.groups.empty()) args.DeclareKeys(keys.groups);  // {} is all
  for (const std::string& key : keys.keys) {
    SS_CHECK(support::FindOptionKey(key) != nullptr);
    (void)args.Has(key);
  }
  std::vector<std::string> problems;
  for (const std::string& token : args.positional()) {
    problems.push_back("unexpected argument '" + token +
                       "' (arguments are key=value)");
  }
  for (const std::string& key : keys.fixed) {
    if (args.Has(key)) {
      problems.push_back("key '" + key +
                         "' is set by this tool, not on the command line");
    }
  }
  for (std::string& problem : args.Problems()) {
    problems.push_back(std::move(problem));
  }
  if (!problems.empty()) {
    for (const std::string& problem : problems) {
      std::fprintf(stderr, "error: %s\n", problem.c_str());
    }
    return 2;
  }

  // Every value below was checked against its key's choices above.
  const std::string loglevel = args.GetStr("loglevel", "");
  if (!loglevel.empty()) {
    SetLogLevel(ParseLogLevel(loglevel).value());
  } else if (std::getenv("SS_LOG_LEVEL") == nullptr) {
    SetLogLevel(default_level);
  }
  if (!args.GetStr("trace", "").empty()) engine::Tracer::Global().Enable();
  // profile=0 ablates task-timeline collection; results are bitwise
  // identical and the metrics timeline section reports collected:false.
  engine::SetProfilingEnabled(args.GetBool("profile", true));
  // kernel= forces the SIMD dispatch level for the whole process, like
  // SS_KERNEL; a level above what the CPU supports clamps down with a
  // warning.
  const std::string kernel = args.GetStr("kernel", "");
  if (!kernel.empty()) {
    stats::kernels::SetDispatchLevel(
        stats::kernels::ParseDispatchLevel(kernel).value());
  }

  try {
    return body(args);
  } catch (const StatusError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return error.status().code() == StatusCode::kInvalidArgument ? 2 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

}  // namespace ss::core
