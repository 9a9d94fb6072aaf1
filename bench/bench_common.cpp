#include "bench_common.hpp"

#include <cstdio>
#include <utility>

namespace ss::bench {

int RunBench(int argc, char** argv, std::vector<std::string> keys,
             const std::function<int(const Args&)>& body,
             std::vector<std::string> fixed) {
  keys.push_back("faithful");
  return core::RunStudyTool(
      argc, argv, /*begin=*/1,
      {.groups = {"workload", "engine", "observability"},
       .keys = std::move(keys),
       .fixed = std::move(fixed)},
      LogLevel::kWarn, body);
}

core::StudySpec BenchSpec(std::uint32_t snps, std::uint32_t sets) {
  core::StudySpec spec;
  spec.generator.num_patients = 200;
  spec.generator.num_snps = snps;
  spec.generator.num_sets = sets;
  spec.pipeline.paper_faithful_scores = true;
  spec.engine.topology = cluster::EmrCluster(6);
  spec.engine.physical_threads = 4;
  return spec;
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

std::vector<double> TimeAnalysisRuns(
    const core::StudySpec& spec, int reps,
    const std::function<void(core::SkatPipeline&)>& fn, const Args* args) {
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    core::Study study = core::OpenStudy(spec).value();
    seconds.push_back(TimeOnce([&]() { fn(*study.pipeline); }));
    if (args != nullptr && r + 1 == reps) {
      core::WriteRunArtifacts(*args, *study.ctx);
    }
  }
  return seconds;
}

std::string MeanStdevCell(const std::vector<double>& seconds) {
  const Summary s = Summarize(seconds);
  return Table::Num(s.mean, 3) + " ± " + Table::Num(s.stdev, 3);
}

}  // namespace ss::bench
