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
// Keys (`sparkscore` alone lists them all, from the shared registry):
// the workload (patients snps sets seed ld_block), the engine (nodes
// partitions reducers threads batch cache_budget kernel store=<file>),
// the analysis (reps method model top stages export pmethod early_stop
// refine_threshold) and observability (trace metrics profile
// profile_report loglevel; see docs/OBSERVABILITY.md).
//
// The study front end (key checks, observability, staging, artifacts) is
// core/study.hpp, shared with every bench.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/sparkscore.hpp"
#include "core/study.hpp"
#include "support/stopwatch.hpp"

namespace {

using CliArgs = ss::support::OptionMap;

/// The CLI's own defaults, under the keys ApplyStudyKeys lays over them:
/// 300 patients x 2000 SNPs x 100 sets in 8 partitions on a 6-node
/// cluster, every hardware thread, the O(n) score path.
ss::core::StudySpec CliStudySpec() {
  ss::core::StudySpec spec;
  spec.generator.num_patients = 300;
  spec.generator.num_snps = 2000;
  spec.generator.num_sets = 100;
  spec.engine.topology = ss::cluster::EmrCluster(6);
  return spec;
}

/// Opens the study the command line names and prints what it opened.
ss::core::Study OpenReportedStudy(const CliArgs& args) {
  const ss::core::StudySpec spec =
      ss::core::ApplyStudyKeys(args, CliStudySpec()).value();
  ss::core::Study study = ss::core::OpenStudy(spec).value();
  if (study.staged) {
    std::printf("store: staged %u partitions (%llu payload bytes) at %s\n",
                study.staged->num_partitions,
                static_cast<unsigned long long>(study.staged->payload_bytes),
                spec.store.c_str());
  }
  const std::string source =
      spec.store.empty() ? "" : " (store " + spec.store + ")";
  std::printf("study: %u patients x %u SNPs x %u sets on %s%s\n",
              spec.generator.num_patients, spec.generator.num_snps,
              spec.generator.num_sets,
              spec.engine.topology.ToString().c_str(), source.c_str());
  return study;
}

/// The request every subcommand runs: `method` with B from reps=
/// (default `default_reps`) and the adaptive p-value keys pmethod=,
/// early_stop= and refine_threshold=. SKAT-O and the scan get them too, so
/// RunResampling warns that it ignores them rather than the CLI dropping
/// them silently.
ss::core::ResamplingRequest MakeRequest(const CliArgs& args,
                                        ss::core::ResamplingMethod method,
                                        std::uint64_t default_reps) {
  ss::core::ResamplingRequest request(method,
                                      args.GetU64("reps", default_reps));
  request.pvalue_method =
      ss::core::ParsePValueMethod(args.GetStr("pmethod", "resampling"))
          .value();
  request.refine_threshold = args.GetDouble("refine_threshold", 0.01);
  request.early_stop = args.GetU64("early_stop", 0);
  return request;
}

int RunSkat(const CliArgs& args, bool skato) {
  ss::core::Study study = OpenReportedStudy(args);
  ss::Stopwatch stopwatch;
  if (skato) {
    const ss::core::ResamplingRequest request =
        MakeRequest(args, ss::core::ResamplingMethod::kSkatO, 99);
    const ss::core::SkatOResult result =
        ss::core::RunResampling(*study.pipeline, request).skato;
    std::printf("SKAT-O with B=%llu finished in %.2fs\n",
                static_cast<unsigned long long>(request.replicates),
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
    const ss::core::ResamplingRequest request = MakeRequest(
        args,
        method == "perm" ? ss::core::ResamplingMethod::kPermutation
                         : ss::core::ResamplingMethod::kMonteCarlo,
        499);
    const ss::core::ResamplingResult result =
        ss::core::RunResampling(*study.pipeline, request).scores;
    std::printf("%s with B=%llu finished in %.2fs\n",
                method == "perm" ? "Permutation" : "Monte Carlo",
                static_cast<unsigned long long>(request.replicates),
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
          args.GetStr("pmethod", "resampling").c_str(),
          static_cast<unsigned long long>(refined),
          result.inference.size(), static_cast<unsigned long long>(stopped),
          static_cast<unsigned long long>(used),
          static_cast<unsigned long long>(request.replicates *
                                          result.inference.size()));
    }
    std::fputs(ss::core::FormatTopHits(
                   result, static_cast<std::size_t>(args.GetU64("top", 10)))
                   .c_str(),
               stdout);
    const std::string export_path = args.GetStr("export", "");
    if (!export_path.empty()) {
      const ss::Status written =
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
  ss::core::WriteRunArtifacts(args, *study.ctx);
  return 0;
}

int RunScan(const CliArgs& args) {
  ss::core::Study study = OpenReportedStudy(args);
  const ss::core::ResamplingRequest request =
      MakeRequest(args, ss::core::ResamplingMethod::kVariantScan, 199);
  ss::Stopwatch stopwatch;
  const ss::core::VariantScanResult result =
      ss::core::RunResampling(*study.pipeline, request).scan;
  std::printf("variant scan with B=%llu finished in %.2fs\n",
              static_cast<unsigned long long>(request.replicates),
              stopwatch.ElapsedSeconds());
  const auto ranked = result.RankedByAsymptoticP();
  const std::size_t top =
      std::min<std::size_t>(args.GetU64("top", 10), ranked.size());
  std::printf("  %-8s %-12s %-12s %-12s %-12s\n", "snp", "score",
              "asym p", "emp p", "maxT p");
  for (std::size_t r = 0; r < top; ++r) {
    const std::size_t i = ranked[r];
    const ss::core::VariantStats& s = result.stats[i];
    std::printf("  %-8u %-12.3f %-12.3g %-12.4f %-12.4f\n", result.snps[i],
                s.score, s.asymptotic_p, result.EmpiricalP(i),
                result.MaxTAdjustedP(i));
  }
  ss::core::WriteRunArtifacts(args, *study.ctx);
  return 0;
}

/// A tiny skat, skato and scan; every key but the shape and B passes
/// through, so `selftest trace=...` exercises the full artifact path
/// (the trace_smoke ctest).
int RunSelfTest(const CliArgs& outer) {
  CliArgs args = outer;
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
  const std::string command = argc < 2 ? "" : argv[1];
  int (*run)(const CliArgs&) = nullptr;
  if (command == "skat") {
    run = [](const CliArgs& args) { return RunSkat(args, false); };
  } else if (command == "skato") {
    run = [](const CliArgs& args) { return RunSkat(args, true); };
  } else if (command == "scan") {
    run = RunScan;
  } else if (command == "selftest") {
    run = RunSelfTest;
  } else {
    PrintUsage();
    return 2;
  }
  // The CLI accepts every registry key in these groups, the vocabulary
  // PrintUsage prints; anything else, or a value that does not fit its
  // key, fails closed before any work.
  return ss::core::RunStudyTool(
      argc, argv, /*begin=*/2,
      {.groups = {"workload", "engine", "analysis", "observability"}},
      ss::LogLevel::kError, run);
}
