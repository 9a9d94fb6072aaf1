// sparkscore — command-line driver for the whole system.
//
// Runs a complete study (generate -> stage in the mini-DFS -> distributed
// analysis -> report) in one process, since the simulated cluster and DFS
// are in-memory. Subcommands:
//
//   sparkscore skat     [key=value...]   SNP-set analysis (Algorithms 1+3/2)
//   sparkscore skato    [key=value...]   SKAT-O combination
//   sparkscore scan     [key=value...]   variant-by-variant scan
//   sparkscore selftest                  tiny end-to-end sanity run
//
// Common keys: patients, snps, sets, reps (B), seed, nodes, partitions,
// method=mc|perm, model=cox|gaussian|binomial (gaussian: log survival
// time, binomial: the event indicator; not with store=),
// top (rows to print), stages=1 (print the per-stage run report),
// export=<dfs path> (persist the result inside the run's DFS and echo it).
//
// Observability keys (see docs/OBSERVABILITY.md):
//   trace=<file>     enable the engine tracer and write a Chrome
//                    trace_event JSON (load in chrome://tracing or
//                    https://ui.perfetto.dev); trace=- streams the
//                    JSON to stderr for piping
//   metrics=<file>   write the machine-readable run summary
//                    (schema "sparkscore-run-metrics-v3"); metrics=-
//                    streams it to stdout for piping into
//                    tools/ss_prof.py or tools/check_trace.py
//   profile=0|1      task-timeline collection (default 1; profile=0
//                    ablates it — results are bitwise identical)
//   profile_report=1 print the critical-path/straggler/utilization
//                    report (FormatProfileReport) after the run
//   straggler_mad_k=<k>
//                    straggler threshold: flag tasks slower than
//                    median + k*MAD of their stage (default 3)
//   loglevel=debug|info|warn|error
//                    stderr log verbosity (default error; the
//                    SS_LOG_LEVEL environment variable also works)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/record_traits.hpp"
#include "core/sparkscore.hpp"
#include "simdata/store_codec.hpp"
#include "engine/profile.hpp"
#include "engine/trace.hpp"
#include "stats/kernels/kernels.hpp"
#include "support/log.hpp"
#include "support/option_map.hpp"
#include "support/stopwatch.hpp"

namespace {

using ss::Result;
using ss::Status;

/// Shared key=value option parsing (same class the benches use), with
/// typed getters; main refuses unknown keys and malformed values first.
using CliArgs = ss::support::OptionMap;

struct Study {
  std::unique_ptr<ss::dfs::MiniDfs> dfs;
  std::unique_ptr<ss::engine::EngineContext> ctx;
  std::unique_ptr<ss::core::SkatPipeline> pipeline;
  ss::simdata::SyntheticDataset dataset;
};

/// The phenotype model= stages: `cox` (the default) is the cohort's
/// survival table; `gaussian` and `binomial` derive a trait from it — log
/// survival time as a quantitative trait, the event indicator as a binary
/// one — so every score model runs end to end on the same cohort.
ss::stats::Phenotype StudyPhenotype(
    const std::string& model, const ss::simdata::SyntheticDataset& dataset) {
  const ss::stats::SurvivalData& survival = dataset.survival;
  if (model == "cox") return ss::stats::Phenotype::Cox(survival);
  if (model == "gaussian") {
    ss::stats::QuantitativeData trait;
    for (double time : survival.time) trait.value.push_back(std::log(time));
    return ss::stats::Phenotype::Gaussian(std::move(trait));
  }
  if (model == "binomial") {
    ss::stats::BinaryData trait;
    trait.value = survival.event;
    return ss::stats::Phenotype::Binomial(std::move(trait));
  }
  throw ss::StatusError(ss::Status(
      ss::StatusCode::kInvalidArgument,
      "model must be cox|gaussian|binomial, got '" + model + "'"));
}

Study OpenStudy(const CliArgs& args, bool allow_store = true) {
  Study study;
  ss::simdata::GeneratorConfig generator;
  generator.num_patients =
      static_cast<std::uint32_t>(args.GetU64("patients", 300));
  generator.num_snps = static_cast<std::uint32_t>(args.GetU64("snps", 2000));
  generator.num_sets = static_cast<std::uint32_t>(args.GetU64("sets", 100));
  generator.seed = args.GetU64("seed", 2016);
  generator.ld_block_size =
      static_cast<std::uint32_t>(args.GetU64("ld_block", 1));

  const int nodes = static_cast<int>(args.GetU64("nodes", 6));
  study.dfs = std::make_unique<ss::dfs::MiniDfs>(ss::dfs::DfsOptions{
      .num_nodes = std::max(2, nodes),
      .replication = 2,
      .block_lines = std::max<std::uint32_t>(
          1, generator.num_snps /
                 static_cast<std::uint32_t>(args.GetU64("partitions", 8)))});

  ss::engine::EngineContext::Options options;
  options.topology = ss::cluster::EmrCluster(nodes);
  options.seed = generator.seed;
  // Constrained-memory runs: cache_budget= caps the partition cache
  // (bytes, 0 = unlimited); an evicted partition is dropped and its next
  // use recomputes it, or re-reads its frame under store=.
  options.cache_capacity_bytes = args.GetU64("cache_budget", 0);
  options.straggler_mad_k = args.GetDouble("straggler_mad_k", 3.0);
  study.ctx = std::make_unique<ss::engine::EngineContext>(options,
                                                          study.dfs.get());

  ss::core::PipelineConfig config;
  config.seed = generator.seed;
  config.num_partitions =
      static_cast<std::uint32_t>(args.GetU64("partitions", 8));
  config.num_reducers = static_cast<std::uint32_t>(args.GetU64("reducers", 8));
  // Resampling replicates per engine pass; results are bitwise invariant
  // to this knob (batch=1 recovers per-replicate scheduling).
  config.resampling_batch_size = std::max<std::uint64_t>(
      1, args.GetU64("batch", config.resampling_batch_size));
  config.cache_budget_bytes = args.GetU64("cache_budget", 0);

  const std::string model = args.GetStr("model", "cox");
  const std::string store_path = args.GetStr("store", "");
  if (!store_path.empty()) {
    // Out-of-core path: open (or stage once, then open) the mmap'd
    // genotype store instead of generating the dense matrix + text files.
    // The generator keys pin the expected fingerprint, so a store file
    // holding a DIFFERENT cohort is refused rather than silently reused;
    // corruption likewise refuses instead of re-ingesting.
    if (!allow_store) {
      throw ss::StatusError(
          ss::Status(ss::StatusCode::kInvalidArgument,
                     "store= is supported by skat/skato only"));
    }
    if (model != "cox") {
      throw ss::StatusError(
          ss::Status(ss::StatusCode::kInvalidArgument,
                     "store= stages the Cox phenotype only; drop model="));
    }
    const std::uint64_t fingerprint = ss::simdata::StoreFingerprint(generator);
    auto pipeline = ss::core::SkatPipeline::OpenFromStore(
        *study.ctx, store_path, config, fingerprint);
    if (!pipeline.ok() &&
        pipeline.status().code() == ss::StatusCode::kNotFound) {
      auto staged = ss::simdata::GenerateToStore(generator, store_path,
                                                 config.num_partitions);
      if (!staged.ok()) throw ss::StatusError(staged.status());
      std::printf("store: staged %u partitions (%llu payload bytes) at %s\n",
                  staged.value().num_partitions,
                  static_cast<unsigned long long>(staged.value().payload_bytes),
                  store_path.c_str());
      pipeline = ss::core::SkatPipeline::OpenFromStore(*study.ctx, store_path,
                                                       config, fingerprint);
    }
    if (!pipeline.ok()) throw ss::StatusError(pipeline.status());
    study.pipeline =
        std::make_unique<ss::core::SkatPipeline>(std::move(pipeline).value());
    std::printf("study: %u patients x %u SNPs x %u sets on %s (store %s)\n",
                generator.num_patients, generator.num_snps, generator.num_sets,
                options.topology.ToString().c_str(), store_path.c_str());
    return study;
  }

  study.dataset = ss::simdata::Generate(generator);
  const auto paths = ss::simdata::StudyPaths::Under("/study");
  ss::Status staged =
      model == "cox"
          ? ss::simdata::WriteStudy(*study.dfs, paths, study.dataset)
          : ss::simdata::WriteStudyWithPhenotype(
                *study.dfs, paths, study.dataset,
                StudyPhenotype(model, study.dataset));
  if (!staged.ok()) throw ss::StatusError(staged);

  auto pipeline = ss::core::SkatPipeline::Open(*study.ctx, paths, config);
  if (!pipeline.ok()) throw ss::StatusError(pipeline.status());
  study.pipeline =
      std::make_unique<ss::core::SkatPipeline>(std::move(pipeline).value());

  std::printf("study: %u patients x %u SNPs x %u sets on %s\n",
              generator.num_patients, generator.num_snps, generator.num_sets,
              options.topology.ToString().c_str());
  return study;
}

void MaybePrintStages(const CliArgs& args, ss::engine::EngineContext& ctx) {
  if (args.GetU64("stages", 0) != 0) {
    std::fputs(ss::engine::FormatRunReport(ctx.metrics().stages(),
                                           ctx.cache().stats(),
                                           ctx.metrics().broadcast_bytes())
                   .c_str(),
               stdout);
  }
  if (args.GetU64("profile_report", 0) != 0) {
    std::fputs(
        ss::engine::FormatProfileReport(ss::engine::BuildRunProfile(
                                            ctx.metrics().stages(),
                                            ctx.options().straggler_mad_k))
            .c_str(),
        stdout);
  }
}

/// Writes the trace= and metrics= artifacts, if requested. A path of "-"
/// streams instead of writing a file: metrics to stdout, trace to stderr
/// (so both can be piped from one run without interleaving). The tracer
/// is process-global and accumulates across sub-runs (selftest), so each
/// call rewrites the file with the cumulative trace.
void WriteRunArtifacts(const CliArgs& args, ss::engine::EngineContext& ctx) {
  const std::string trace_path = args.GetStr("trace", "");
  if (trace_path == "-") {
    std::fputs(ss::engine::Tracer::Global().ChromeTraceJson().c_str(), stderr);
  } else if (!trace_path.empty()) {
    if (ss::engine::Tracer::Global().WriteChromeTraceJson(trace_path)) {
      std::printf("trace written to %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write trace to %s\n",
                   trace_path.c_str());
    }
  }
  const std::string metrics_path = args.GetStr("metrics", "");
  if (metrics_path == "-") {
    std::fputs(ctx.RunMetricsJson().c_str(), stdout);
  } else if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    out << ctx.RunMetricsJson();
    if (out.good()) {
      std::printf("metrics written to %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "error: could not write metrics to %s\n",
                   metrics_path.c_str());
    }
  }
}

int RunSkat(const CliArgs& args, bool skato) {
  Study study = OpenStudy(args);
  ss::core::ResamplingRequest request;
  request.replicates = args.GetU64("reps", skato ? 99 : 499);
  const std::uint64_t reps = request.replicates;
  ss::Stopwatch stopwatch;
  if (skato) {
    request.method = ss::core::ResamplingMethod::kSkatO;
    const ss::core::SkatOResult result =
        ss::core::RunResampling(*study.pipeline, request).skato;
    std::printf("SKAT-O with B=%llu finished in %.2fs\n",
                static_cast<unsigned long long>(reps),
                stopwatch.ElapsedSeconds());
    const auto ranked = result.RankedPValues();
    const std::size_t top = std::min<std::size_t>(args.GetU64("top", 10),
                                                  ranked.size());
    for (std::size_t r = 0; r < top; ++r) {
      const auto& per_set = result.by_set.at(ranked[r].first);
      std::printf("  #%zu set %u: SKAT=%.2f burden=%.2f p=%.4f\n", r + 1,
                  ranked[r].first, per_set.skat, per_set.burden,
                  ranked[r].second);
    }
  } else {
    const std::string method = args.GetStr("method", "mc");
    request.method = method == "perm" ? ss::core::ResamplingMethod::kPermutation
                                      : ss::core::ResamplingMethod::kMonteCarlo;
    const std::string pmethod = args.GetStr("pmethod", "resampling");
    const ss::Result<ss::core::PValueMethod> parsed =
        ss::core::ParsePValueMethod(pmethod);
    if (!parsed.ok()) {
      std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
      return 1;
    }
    request.pvalue_method = parsed.value();
    request.refine_threshold = args.GetDouble("refine_threshold", 0.01);
    request.early_stop = args.GetU64("early_stop", 0);
    const ss::core::ResamplingResult result =
        ss::core::RunResampling(*study.pipeline, request).scores;
    std::printf("%s with B=%llu finished in %.2fs\n",
                method == "perm" ? "Permutation" : "Monte Carlo",
                static_cast<unsigned long long>(reps),
                stopwatch.ElapsedSeconds());
    if (!result.inference.empty()) {
      std::uint64_t refined = 0;
      std::uint64_t stopped = 0;
      std::uint64_t used = 0;
      for (const auto& [set_id, info] : result.inference) {
        refined += info.refined ? 1 : 0;
        stopped += info.early_stopped ? 1 : 0;
        used += info.replicates_used;
      }
      std::printf(
          "  pvalue engine: %s, %llu/%zu sets refined, %llu early-stopped, "
          "%llu replicates consumed (of %llu scheduled ceiling)\n",
          pmethod.c_str(), static_cast<unsigned long long>(refined),
          result.inference.size(), static_cast<unsigned long long>(stopped),
          static_cast<unsigned long long>(used),
          static_cast<unsigned long long>(reps * result.inference.size()));
    }
    std::fputs(ss::core::FormatTopHits(
                   result, static_cast<std::size_t>(args.GetU64("top", 10)))
                   .c_str(),
               stdout);
    const std::string export_path = args.GetStr("export", "");
    if (!export_path.empty()) {
      const Status written =
          ss::core::WriteResultToDfs(result, *study.dfs, export_path);
      std::printf("result %s to DFS path %s\n",
                  written.ok() ? "exported" : "EXPORT FAILED",
                  export_path.c_str());
      if (written.ok()) {
        const std::vector<std::string> lines =
            study.dfs->ReadTextFile(export_path).value();
        for (std::size_t i = 0; i < lines.size() && i < 5; ++i) {
          std::printf("    %s\n", lines[i].c_str());
        }
      }
    }
  }
  MaybePrintStages(args, *study.ctx);
  WriteRunArtifacts(args, *study.ctx);
  return 0;
}

int RunScan(const CliArgs& args) {
  Study study = OpenStudy(args, /*allow_store=*/false);
  ss::core::VariantScanConfig config;
  config.replicates = args.GetU64("reps", 199);
  config.seed = args.GetU64("seed", 2016);
  std::vector<ss::simdata::SnpRecord> records;
  for (std::uint32_t j = 0; j < study.dataset.genotypes.num_snps(); ++j) {
    records.push_back({j, study.dataset.genotypes.by_snp[j]});
  }
  ss::Stopwatch stopwatch;
  const ss::core::VariantScanResult result = ss::core::RunVariantScan(
      *study.ctx,
      ss::engine::Parallelize(
          *study.ctx, records,
          static_cast<std::uint32_t>(args.GetU64("partitions", 8))),
      study.pipeline->phenotype(), config);
  std::printf("variant scan with B=%llu finished in %.2fs\n",
              static_cast<unsigned long long>(config.replicates),
              stopwatch.ElapsedSeconds());
  const auto ranked = result.RankedByAsymptoticP();
  const std::size_t top =
      std::min<std::size_t>(args.GetU64("top", 10), ranked.size());
  std::printf("  %-8s %-12s %-12s %-12s %-12s\n", "snp", "score",
              "asym p", "emp p", "maxT p");
  for (std::size_t r = 0; r < top; ++r) {
    const auto& s = result.by_snp.at(ranked[r]);
    std::printf("  %-8u %-12.3f %-12.3g %-12.4f %-12.4f\n", ranked[r],
                s.score, s.asymptotic_p, result.EmpiricalP(ranked[r]),
                result.MaxTAdjustedP(ranked[r]));
  }
  MaybePrintStages(args, *study.ctx);
  WriteRunArtifacts(args, *study.ctx);
  return 0;
}

int RunSelfTest(const CliArgs& outer) {
  CliArgs args;
  // Observability keys pass through so `selftest trace=...` exercises the
  // full artifact path (used by the trace_smoke ctest).
  for (const char* key :
       {"trace", "metrics", "stages", "profile", "profile_report",
        "straggler_mad_k"}) {
    const std::string value = outer.GetStr(key, "");
    if (!value.empty()) args.Set(key, value);
  }
  args.Set("patients", "60");
  args.Set("snps", "80");
  args.Set("sets", "8");
  args.Set("reps", "19");
  args.Set("top", "3");
  std::printf("== selftest: skat ==\n");
  if (RunSkat(args, false) != 0) return 1;
  std::printf("== selftest: skato ==\n");
  if (RunSkat(args, true) != 0) return 1;
  std::printf("== selftest: scan ==\n");
  if (RunScan(args) != 0) return 1;
  std::printf("selftest OK\n");
  return 0;
}

void PrintUsage() {
  // The key list is GENERATED from the shared registry (the same source
  // the benches and unknown-key suggestions use), so a key added there
  // appears here without touching this file.
  std::fputs("usage: sparkscore <skat|skato|scan|selftest> [key=value ...]\n",
             stderr);
  std::fputs(ss::support::FormatKeyHelp({"workload", "engine", "analysis",
                                         "observability"})
                 .c_str(),
             stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  CliArgs args(argc, argv, /*begin=*/2);
  // The CLI accepts every registry key in these groups; unknown-key
  // suggestions draw from the same vocabulary PrintUsage prints. A key
  // outside them, or a value that does not fit its key's type or choices,
  // fails closed here, before any work: a typo must not silently run the
  // analysis with a default.
  args.DeclareKeys({"workload", "engine", "analysis", "observability"});
  const std::vector<std::string> problems = args.Problems();
  if (!problems.empty()) {
    for (const std::string& problem : problems) {
      std::fprintf(stderr, "error: %s\n", problem.c_str());
    }
    return 2;
  }
  const std::string loglevel = args.GetStr("loglevel", "");
  if (!loglevel.empty()) {
    if (std::optional<ss::LogLevel> level = ss::ParseLogLevel(loglevel)) {
      ss::SetLogLevel(*level);
    } else {
      std::fprintf(stderr, "error: unrecognized loglevel '%s'\n",
                   loglevel.c_str());
      return 2;
    }
  } else if (std::getenv("SS_LOG_LEVEL") == nullptr) {
    // Keep CLI output clean by default, but let SS_LOG_LEVEL override.
    ss::SetLogLevel(ss::LogLevel::kError);
  }
  if (!args.GetStr("trace", "").empty()) {
    ss::engine::Tracer::Global().Enable();
  }
  ss::engine::SetProfilingEnabled(args.GetBool("profile", true));
  // kernel=scalar|avx2 forces the SIMD dispatch level for the whole
  // process (same as the SS_KERNEL environment variable; requests above
  // what the CPU supports clamp down with a warning).
  const std::string kernel = args.GetStr("kernel", "");
  if (!kernel.empty()) {
    Result<ss::stats::kernels::DispatchLevel> level =
        ss::stats::kernels::ParseDispatchLevel(kernel);
    if (!level.ok()) {
      std::fprintf(stderr, "error: %s\n", level.status().ToString().c_str());
      return 2;
    }
    ss::stats::kernels::SetDispatchLevel(level.value());
  }
  try {
    const std::string command = argv[1];
    int code = -1;
    if (command == "skat") {
      code = RunSkat(args, false);
    } else if (command == "skato") {
      code = RunSkat(args, true);
    } else if (command == "scan") {
      code = RunScan(args);
    } else if (command == "selftest") {
      code = RunSelfTest(args);
    }
    if (code >= 0) return code;
  } catch (const ss::StatusError& error) {
    // Bad input (keys, model, SNP-sets) exits 2 like a usage error.
    std::fprintf(stderr, "error: %s\n", error.what());
    return error.status().code() == ss::StatusCode::kInvalidArgument ? 2 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  PrintUsage();
  return 2;
}
