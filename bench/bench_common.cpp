#include "bench_common.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "engine/profile.hpp"
#include "engine/trace.hpp"
#include "stats/kernels/kernels.hpp"
#include "support/log.hpp"

namespace ss::bench {

void ConfigureObservability(const Args& args) {
  const std::string loglevel = args.GetStr("loglevel", "");
  if (!loglevel.empty()) {
    if (std::optional<LogLevel> level = ParseLogLevel(loglevel)) {
      SetLogLevel(*level);
    } else {
      std::fprintf(stderr, "unrecognized loglevel '%s' ignored\n",
                   loglevel.c_str());
    }
  }
  if (!args.GetStr("trace", "").empty()) {
    engine::Tracer::Global().Enable();
  }
  // profile=0 ablates task-timeline collection (results are bitwise
  // identical; the metrics JSON's timeline section reports collected:false).
  engine::SetProfilingEnabled(args.GetBool("profile", true));
  // kernel=scalar|avx2 forces the SIMD dispatch level process-wide (same
  // as SS_KERNEL; unsupported requests clamp down with a warning). An
  // unknown level name exits 2, as in the CLI.
  const std::string kernel = args.GetStr("kernel", "");
  if (!kernel.empty()) {
    Result<stats::kernels::DispatchLevel> level =
        stats::kernels::ParseDispatchLevel(kernel);
    if (!level.ok()) {
      std::fprintf(stderr, "error: %s\n", level.status().ToString().c_str());
      std::exit(2);
    }
    stats::kernels::SetDispatchLevel(level.value());
  }
  // Registers the key for unknown-key diagnostics even in benches that
  // only write artifacts conditionally.
  args.GetStr("metrics", "");
  // Seed the unknown-key suggestion vocabulary with every registry key a
  // bench can honor, whether or not this bench's code paths read them.
  args.DeclareKeys({"workload", "engine", "exec", "observability", "bench"});
}

void WriteRunArtifacts(const Args& args, engine::EngineContext& ctx) {
  // An advisory prefetch job may outlive the stage that issued it; let it
  // finish so the trace holds no unclosed span.
  if (ctx.io() != nullptr) ctx.io()->Drain();
  const std::string trace_path = args.GetStr("trace", "");
  if (trace_path == "-") {
    // Stream to stderr so the metrics stream (stdout) stays parseable.
    std::fputs(engine::Tracer::Global().ChromeTraceJson().c_str(), stderr);
  } else if (!trace_path.empty()) {
    if (engine::Tracer::Global().WriteChromeTraceJson(trace_path)) {
      std::printf("trace written to %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "could not write trace to %s\n", trace_path.c_str());
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
      std::fprintf(stderr, "could not write metrics to %s\n",
                   metrics_path.c_str());
    }
  }
}

void PrintBanner(const std::string& bench_name, const std::string& reproduces,
                 const std::string& scale_note) {
  const cluster::InstanceType m3 = cluster::M3_2xlarge();
  std::printf("==============================================================\n");
  std::printf("%s\n", bench_name.c_str());
  std::printf("Reproduces: %s\n", reproduces.c_str());
  std::printf("Paper: SparkScore (Bahmani et al., IPDPSW 2016)\n");
  std::printf("Simulated node (Table I): %s — %d vCPU, %.0f GiB, %.0f GB\n",
              m3.name.c_str(), m3.vcpus, m3.memory_gib, m3.storage_gb);
  std::printf("Scale: %s\n", scale_note.c_str());
  std::printf("==============================================================\n");
}

double TimeOnce(const std::function<void()>& fn) {
  Stopwatch stopwatch;
  fn();
  return stopwatch.ElapsedSeconds();
}

std::vector<double> TimeRepeated(int reps, const std::function<void()>& fn) {
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) seconds.push_back(TimeOnce(fn));
  return seconds;
}

std::vector<double> TimeAnalysisRuns(
    const Workload& workload, int reps,
    const std::function<void(core::SkatPipeline&)>& fn, const Args* args) {
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Workload::Instance instance = workload.Build();
    seconds.push_back(TimeOnce([&]() { fn(*instance.pipeline); }));
    if (args != nullptr && r + 1 == reps) {
      WriteRunArtifacts(*args, *instance.ctx);
    }
  }
  return seconds;
}

std::string MeanStdevCell(const std::vector<double>& seconds) {
  const Summary s = Summarize(seconds);
  return Table::Num(s.mean, 3) + " ± " + Table::Num(s.stdev, 3);
}

Workload::Instance Workload::Build() const {
  // Each configuration starts from zeroed process-global counters so its
  // metrics JSON reflects only its own run, not the accumulated totals of
  // earlier configurations in the same bench binary. Reset happens BEFORE
  // the context/pipeline are built: constructors re-stamp level gauges
  // (e.g. kernel.dispatch) that a later reset would wipe.
  engine::CounterRegistry::Global().ResetAll();
  Instance instance;
  if (use_dfs) {
    // Block size chosen so the genotype file splits into ~num_partitions
    // input partitions, matching the in-memory configuration.
    dfs::DfsOptions dfs_options;
    dfs_options.num_nodes = std::max(2, engine.topology.num_nodes);
    dfs_options.replication = 2;
    dfs_options.block_lines = std::max<std::uint32_t>(
        1, generator.num_snps / std::max(1u, pipeline.num_partitions));
    instance.dfs = std::make_unique<dfs::MiniDfs>(dfs_options);
    instance.ctx =
        std::make_unique<engine::EngineContext>(engine, instance.dfs.get());
    Result<simdata::StudyPaths> paths =
        simdata::GenerateToDfs(*instance.dfs, "/bench", generator);
    instance.pipeline = std::make_unique<core::SkatPipeline>(
        core::SkatPipeline::Open(*instance.ctx, paths.value(), pipeline)
            .value());
    return instance;
  }
  instance.ctx = std::make_unique<engine::EngineContext>(engine);
  const simdata::SyntheticDataset dataset = simdata::Generate(generator);
  instance.pipeline = std::make_unique<core::SkatPipeline>(
      core::SkatPipeline::FromMemory(*instance.ctx, dataset, pipeline));
  return instance;
}

Workload DefaultWorkload(const Args& args, std::uint64_t snps_default,
                         std::uint64_t sets_default) {
  Workload workload;
  workload.generator.num_patients =
      static_cast<std::uint32_t>(args.GetU64("patients", 200));
  workload.generator.num_snps =
      static_cast<std::uint32_t>(args.GetU64("snps", snps_default));
  workload.generator.num_sets =
      static_cast<std::uint32_t>(args.GetU64("sets", sets_default));
  workload.generator.seed = args.GetU64("seed", 2016);

  workload.pipeline.seed = workload.generator.seed;
  // Timing benches reproduce the paper's cost regime: per-patient (O(n²)
  // per SNP) Cox evaluation, re-executed per permutation replicate, and
  // Monte Carlo over the cached U. Pass faithful=0 to time this library's
  // O(n) risk-set path and batched resampling (genotypes against permuted
  // or multiplier coefficient blocks) instead.
  workload.pipeline.paper_faithful_scores = args.GetU64("faithful", 1) != 0;
  workload.pipeline.num_partitions =
      static_cast<std::uint32_t>(args.GetU64("partitions", 8));
  workload.pipeline.num_reducers =
      static_cast<std::uint32_t>(args.GetU64("reducers", 8));
  // Resampling replicates per engine pass; results are bitwise invariant
  // to this knob (batch=1 recovers per-replicate scheduling).
  workload.pipeline.resampling_batch_size = std::max<std::uint64_t>(
      1, args.GetU64("batch", workload.pipeline.resampling_batch_size));

  workload.engine.topology =
      cluster::EmrCluster(static_cast<int>(args.GetU64("nodes", 6)));
  workload.engine.physical_threads = args.GetU64("threads", 4);
  workload.engine.seed = workload.generator.seed;
  // Constrained-memory runs: cache_budget= caps the partition cache (bytes,
  // 0 = unlimited); evicted partitions are recomputed on their next use.
  workload.engine.cache_capacity_bytes = args.GetU64("cache_budget", 0);
  workload.pipeline.cache_budget_bytes = workload.engine.cache_capacity_bytes;
  // Async executor (registry group "exec"): prefetch=0 ablates the whole
  // I/O lane; results are bitwise invariant to both knobs.
  workload.engine.exec.prefetch_depth =
      static_cast<int>(args.GetU64("prefetch", 1));
  workload.engine.exec.io_threads = static_cast<int>(
      std::max<std::uint64_t>(1, args.GetU64("io_threads", 1)));
  return workload;
}

}  // namespace ss::bench
