// The benchmark's workloads: one SparkScore analysis shape each, with the
// engine and pipeline settings it runs under.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/resampling_methods.hpp"
#include "engine/context.hpp"
#include "simdata/generator.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  ss::core::ResamplingMethod method = ss::core::ResamplingMethod::kMonteCarlo;
  ss::core::PValueMethod pvalue = ss::core::PValueMethod::kResampling;
  double refine_threshold = 0.01;

  std::uint32_t patients = 0;
  std::uint32_t snps = 0;
  std::uint32_t sets = 0;
  std::uint64_t replicates = 0;  ///< Nominal B.
  std::uint64_t batch = 64;
  std::uint32_t partitions = 0;  ///< Store genotype frames.

  /// Generator seed of the cohort when it is fixed; unset, the cohort
  /// comes from the run's --seed. The run's seed always drives the
  /// resampling (Monte Carlo multipliers, permutations).
  std::optional<std::uint64_t> cohort_seed;

  std::uint64_t cache_budget = 0;  ///< Bytes; 0 = unlimited.
  bool file_spill = false;         ///< Spill frames to files, not memory.

  /// Expected analysis wall time on the reference host (4 vCPU AVX2);
  /// fixes how many analyses a run of --seconds makes.
  double nominal_s = 1.0;

  /// Setups timed per run, back to back (each stages a fresh store and
  /// opens it); the analyses run on the last one's store.
  int setup_reps = 3;

  /// Sets whose exceedance counts the serial oracle recomputes (0 = all).
  std::uint32_t oracle_sets = 0;
};

/// "full" is the measured shape; "toy" shrinks every dimension so the
/// self-check runs all workloads in seconds.
std::optional<Workload> FindWorkload(const std::string& name,
                                     const std::string& scale);

/// Engine threads: workers plus I/O-lane threads never exceed the host's
/// processor count.
struct Threads {
  std::size_t workers = 1;
  int io = 0;  ///< 0 = no I/O lane (single-processor hosts).
};
Threads ThreadsForHost();

ss::simdata::GeneratorConfig GeneratorFor(const Workload& workload,
                                          std::uint64_t seed);
ss::core::PipelineConfig PipelineFor(const Workload& workload,
                                     std::uint64_t seed);
ss::engine::EngineContext::Options EngineFor(const Workload& workload,
                                             std::uint64_t seed,
                                             const std::string& spill_dir);
ss::core::ResamplingRequest RequestFor(const Workload& workload,
                                       std::uint64_t seed,
                                       ss::core::ProgressSink* sink);

}  // namespace perfbench
