#include "core/resampling_methods.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>

#include "engine/trace.hpp"
#include "stats/adaptive_pvalue.hpp"
#include "stats/burden.hpp"
#include "stats/kernels/kernels.hpp"
#include "stats/pvalue.hpp"
#include "stats/resampling.hpp"
#include "support/log.hpp"

namespace ss::core {
namespace {

/// counter_k update shared by both algorithms: compare a replicate's
/// scores against the observed ones.
void CountExceedances(const SetScores& observed, const SetScores& replicate,
                      std::unordered_map<std::uint32_t, std::uint64_t>* exceed) {
  for (const auto& [set_id, observed_score] : observed) {
    auto it = replicate.find(set_id);
    const double replicate_score = it == replicate.end() ? 0.0 : it->second;
    if (replicate_score >= observed_score) ++(*exceed)[set_id];
  }
}

void InitCounters(const SetScores& observed,
                  std::unordered_map<std::uint32_t, std::uint64_t>* exceed) {
  for (const auto& [set_id, score] : observed) (*exceed)[set_id] = 0;
}

std::uint64_t EffectiveBatchSize(const SkatPipeline& pipeline,
                                 const ResamplingRequest& request) {
  const std::uint64_t batch = request.batch_size != 0
                                  ? request.batch_size
                                  : pipeline.config().resampling_batch_size;
  return std::max<std::uint64_t>(1, batch);
}

/// Generates the patient-major replicate block for replicates
/// [begin, begin+count): a coefficient block, or a Z block for cached-U
/// Monte Carlo. A pure function of its arguments — per-replicate
/// splittable RNG streams — so the block is bitwise invariant to batching.
using MakeBlock =
    std::function<std::vector<double>(std::uint64_t begin, std::size_t count)>;

/// The shared driver loop: splits 0..B into [begin, end) ranges of at
/// most `batch_size` replicates and hands each to `body`, wrapped in the
/// batch-level telemetry (trace span, counters, accumulated wall time)
/// and the sink's batch boundaries. `body` returns whether scheduling
/// should continue: false stops the loop at the batch boundary (the
/// early-stopping drivers use this once every set's stopper has fired —
/// per-set counters stay replicate-exact, only the SCHEDULED replicate
/// count is batch-granular).
template <typename Body>
void RunBatches(const char* algorithm, std::uint64_t replicates,
                std::uint64_t batch_size, ProgressSink* sink,
                const Body& body) {
  static std::atomic<std::uint64_t>& batches =
      engine::CounterRegistry::Global().Get("resampling.batches");
  static std::atomic<std::uint64_t>& replicate_count =
      engine::CounterRegistry::Global().Get("resampling.replicates");
  static std::atomic<std::uint64_t>& batch_nanos =
      engine::CounterRegistry::Global().Get("resampling.batch_nanos");
  std::uint64_t batch_index = 0;
  for (std::uint64_t begin = 0; begin < replicates;
       begin += batch_size, ++batch_index) {
    const std::uint64_t end = std::min(replicates, begin + batch_size);
    if (sink != nullptr) sink->OnBatchBegin(batch_index, begin, end);
    bool keep_going = true;
    {
      engine::TraceSpan span(
          engine::Tracer::Global(), "batch",
          std::string(algorithm) + " batch " + std::to_string(batch_index),
          {engine::Arg("algorithm", algorithm), engine::Arg("b_begin", begin),
           engine::Arg("b_end", end)});
      engine::ScopedCounterTimer timer(batch_nanos);
      keep_going = body(begin, end);
    }
    batches.fetch_add(1, std::memory_order_relaxed);
    replicate_count.fetch_add(end - begin, std::memory_order_relaxed);
    if (sink != nullptr) sink->OnBatchEnd(batch_index, begin, end);
    if (!keep_going) break;
  }
}

/// Steps 9-12's per-set plan, built once per run: each set's members in
/// declaration order with ω and ω² (ω = 1 for a SNP without a weight).
/// Folds address sets by their position in the pipeline's set list, which
/// relies on set ids being distinct (stats::CheckDistinctSetIds).
class FoldPlan {
 public:
  struct Member {
    std::uint32_t snp;
    double weight;
    double weight_sq;
  };

  FoldPlan(const std::vector<stats::SnpSet>& sets,
           const std::unordered_map<std::uint32_t, double>& weights) {
    offsets_.reserve(sets.size() + 1);
    offsets_.push_back(0);
    for (const stats::SnpSet& set : sets) {
      for (std::uint32_t snp : set.snps) {
        auto it = weights.find(snp);
        const double w = it == weights.end() ? 1.0 : it->second;
        members_.push_back({snp, w, w * w});
      }
      offsets_.push_back(members_.size());
    }
  }

  std::size_t num_sets() const { return offsets_.size() - 1; }

  std::span<const Member> members(std::size_t position) const {
    return {members_.data() + offsets_[position],
            offsets_[position + 1] - offsets_[position]};
  }

 private:
  std::vector<Member> members_;
  std::vector<std::size_t> offsets_;
};

/// Steps 9-12 on the driver: the SKAT statistic of every column of a
/// score block for each set at `positions`, set-major — out[i*count + r]
/// is set positions[i]'s statistic in column r. Each accumulator starts
/// at +0 and adds ω_j²·(s·s) over the set's scored members in declaration
/// order, stats::SkatStatistic's order, so every value is independent of
/// partitioning, thread count and batch size; a set with no scored
/// member stays +0. The observed pass is the same fold of a count-1
/// block.
std::vector<double> FoldSetStatistics(const FoldPlan& plan,
                                      const std::vector<std::size_t>& positions,
                                      const ScoreBlock& block) {
  const std::size_t count = block.count();
  const auto fold = stats::kernels::ActiveKernels().skat_fold;
  std::vector<double> out(positions.size() * count, 0.0);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    double* acc = out.data() + i * count;
    for (const FoldPlan::Member& member : plan.members(positions[i])) {
      const double* row = block.row(member.snp);
      if (row == nullptr) continue;  // SNP filtered out
      fold(row, count, member.weight_sq, acc);
    }
  }
  return out;
}

/// Per-set SKAT and burden = (Σ_j ω_j Ũ_j)² statistics of every column of
/// a score block, set-major over all sets, in FoldSetStatistics' order.
struct SkatBurdenScores {
  std::vector<double> skat;
  std::vector<double> burden;
};

SkatBurdenScores FoldSkatBurdenScores(const FoldPlan& plan,
                                      const ScoreBlock& block) {
  const std::size_t count = block.count();
  const auto fold = stats::kernels::ActiveKernels().skat_burden_fold;
  SkatBurdenScores out;
  out.skat.assign(plan.num_sets() * count, 0.0);
  out.burden.assign(plan.num_sets() * count, 0.0);
  for (std::size_t k = 0; k < plan.num_sets(); ++k) {
    for (const FoldPlan::Member& member : plan.members(k)) {
      const double* row = block.row(member.snp);
      if (row == nullptr) continue;  // SNP filtered out
      fold(row, count, member.weight, member.weight_sq,
           out.skat.data() + k * count, out.burden.data() + k * count);
    }
  }
  for (double& sum : out.burden) sum *= sum;
  return out;
}

/// FNV-1a over (B, sorted set ids, observed bit patterns, counters).
/// Folded into the order-independent `resampling.result_hash` counter so
/// two processes can assert bitwise-identical results by comparing their
/// run-metrics JSON (the bench_smoke batch-invariance gate).
std::uint64_t HashResamplingResult(const ResamplingResult& result) {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 1099511628211ULL;
    }
  };
  mix(result.replicates);
  std::vector<std::uint32_t> ids;
  ids.reserve(result.observed.size());
  for (const auto& [set_id, score] : result.observed) ids.push_back(set_id);
  std::sort(ids.begin(), ids.end());
  for (std::uint32_t set_id : ids) {
    const double observed = result.observed.at(set_id);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &observed, sizeof(bits));
    mix(set_id);
    mix(bits);
    auto it = result.exceed.find(set_id);
    mix(it == result.exceed.end() ? 0 : it->second);
  }
  // Adaptive fields are mixed ONLY when present, so the hash of a legacy
  // pure-resampling run is byte-identical to the pre-adaptive engine (the
  // bench_smoke / kernel-matrix cross-process gates compare it).
  if (!result.inference.empty()) {
    mix(result.early_stop_h);
    for (std::uint32_t set_id : ids) {
      auto it = result.inference.find(set_id);
      if (it == result.inference.end()) continue;
      const SetInference& info = it->second;
      std::uint64_t pbits = 0;
      std::memcpy(&pbits, &info.analytic_p, sizeof(pbits));
      mix(set_id);
      mix(pbits);
      mix(info.replicates_used);
      mix(static_cast<std::uint64_t>(info.early_stopped ? 1 : 0) |
          static_cast<std::uint64_t>(info.refined ? 2 : 0));
    }
  }
  return hash;
}

void RecordResultHash(const ResamplingResult& result) {
  engine::CounterRegistry::Global().Add("resampling.result_hash",
                                        HashResamplingResult(result));
}

/// An adaptive run takes the screen/stopper path; anything else keeps the
/// legacy body bit-for-bit (including its result hash).
bool IsAdaptive(const ResamplingRequest& request) {
  return request.pvalue_method != PValueMethod::kResampling ||
         request.early_stop != 0;
}

/// Analytic screen: per-set null spectrum from the weighted Gram, then
/// the Liu (kAnalytic) or saddlepoint (kSaddlepoint/kHybrid — tail
/// accuracy is what the hybrid screen is for) tail at the observed
/// statistic. Runs as one `analytic-screen` engine stage with one task per
/// set, largest Gram first so the cubic eigensolves are spread evenly
/// over the workers; each task writes only its own p slot. Populates
/// result->inference with refined=false entries.
void AnalyticScreen(SkatPipeline& pipeline, PValueMethod method,
                    ResamplingResult* result) {
  static std::atomic<std::uint64_t>& screens =
      engine::CounterRegistry::Global().Get("pvalue.analytic_screens");
  engine::TraceSpan span(engine::Tracer::Global(), "algo", "analytic screen");
  const auto grams = pipeline.CollectSetGramMatrices();
  struct ScreenTask {
    std::uint32_t set_id;
    double observed;
    const stats::Matrix* gram;  // null: the set has no Gram
    std::size_t dim;
    double p = 1.0;
  };
  std::vector<ScreenTask> tasks;
  tasks.reserve(result->observed.size());
  for (const auto& [set_id, observed] : result->observed) {
    auto it = grams.find(set_id);
    const stats::Matrix* gram = it == grams.end() ? nullptr : &it->second;
    tasks.push_back({set_id, observed, gram, gram ? gram->rows() : 0});
  }
  std::sort(tasks.begin(), tasks.end(),
            [](const ScreenTask& a, const ScreenTask& b) {
              return a.dim > b.dim || (a.dim == b.dim && a.set_id < b.set_id);
            });
  if (!tasks.empty()) {
    pipeline.context().RunTasks(
        "analytic-screen", static_cast<std::uint32_t>(tasks.size()),
        [&tasks, method](engine::TaskContext& context) {
          ScreenTask& task = tasks[context.partition()];
          std::vector<double> lambda;
          if (task.gram != nullptr) {
            lambda = stats::NullSpectrumFromGram(*task.gram);
          }
          task.p = method == PValueMethod::kAnalytic
                       ? stats::LiuPValue(lambda, task.observed)
                       : stats::SaddlepointPValue(lambda, task.observed);
        });
  }
  for (const ScreenTask& task : tasks) {
    SetInference info;
    info.analytic_p = task.p;
    result->inference[task.set_id] = info;
  }
  screens.fetch_add(tasks.size(), std::memory_order_relaxed);
}

/// A set that consumes replicates: its position in the pipeline's sets
/// and its Besag–Clifford stopper (h = 0, which never stops, in
/// exhaustive runs).
struct CountedSet {
  std::size_t position;
  stats::SequentialStopper stopper;
};

/// One stopper per set that will consume replicates, in declaration
/// order: every set for pure resampling with early stopping, none for the
/// pure analytic methods, and the screened-in (p < refine_threshold) sets
/// for hybrid. Marks those sets refined in result->inference.
std::vector<CountedSet> MakeStoppers(const ResamplingRequest& request,
                                     const std::vector<stats::SnpSet>& sets,
                                     ResamplingResult* result) {
  static std::atomic<std::uint64_t>& refined_sets =
      engine::CounterRegistry::Global().Get("pvalue.refined_sets");
  std::vector<CountedSet> refined;
  for (std::size_t k = 0; k < sets.size(); ++k) {
    const std::uint32_t set_id = sets[k].id;
    bool refine = false;
    switch (request.pvalue_method) {
      case PValueMethod::kResampling:
        refine = true;
        break;
      case PValueMethod::kAnalytic:
      case PValueMethod::kSaddlepoint:
        refine = false;
        break;
      case PValueMethod::kHybrid:
        refine = result->inference.at(set_id).analytic_p <
                 request.refine_threshold;
        break;
    }
    if (!refine) continue;
    refined.push_back({k, stats::SequentialStopper(request.early_stop)});
    result->inference[set_id].refined = true;  // creates the entry for
                                               // kResampling + early stop
  }
  refined_sets.fetch_add(refined.size(), std::memory_order_relaxed);
  return refined;
}

/// The SNPs covered by the sets at `positions` (an adaptive batch's live
/// sets); screened-out and stopped sets cost nothing further.
std::shared_ptr<const std::unordered_set<std::uint32_t>> LiveSnps(
    const std::vector<stats::SnpSet>& sets,
    const std::vector<std::size_t>& positions) {
  auto snps = std::make_shared<std::unordered_set<std::uint32_t>>();
  for (std::size_t position : positions) {
    snps->insert(sets[position].snps.begin(), sets[position].snps.end());
  }
  return snps;
}

/// Moves the stopper tallies into the result and accounts the savings.
/// pvalue.replicates_saved = Σ_sets (B − replicates_used) — a pure
/// function of the per-set replicate-exact counts, so it is invariant to
/// batch size and threads even though the SCHEDULED replicate
/// count is batch-granular. A screened-out set's analytic tail stands in
/// for all B replicates.
void FinalizeAdaptive(const ResamplingRequest& request,
                      const std::vector<stats::SnpSet>& sets,
                      const std::vector<CountedSet>& refined,
                      ResamplingResult* result) {
  static std::atomic<std::uint64_t>& early_stops =
      engine::CounterRegistry::Global().Get("pvalue.early_stops");
  static std::atomic<std::uint64_t>& replicates_saved =
      engine::CounterRegistry::Global().Get("pvalue.replicates_saved");
  replicates_saved.fetch_add(
      request.replicates * (result->inference.size() - refined.size()),
      std::memory_order_relaxed);
  for (const CountedSet& set : refined) {
    const std::uint32_t set_id = sets[set.position].id;
    const stats::SequentialStopper& stopper = set.stopper;
    SetInference& info = result->inference.at(set_id);
    result->exceed[set_id] = stopper.exceed();
    info.replicates_used = stopper.used();
    info.early_stopped = stopper.stopped();
    if (stopper.stopped()) {
      early_stops.fetch_add(1, std::memory_order_relaxed);
    }
    replicates_saved.fetch_add(request.replicates - stopper.used(),
                               std::memory_order_relaxed);
  }
}

/// Where a score-block run's replicates come from. Every source scores
/// per-SNP rows against patient-major replicate blocks: permutation and
/// Monte Carlo score the genotype partitions against permuted coefficient
/// blocks (Algorithm 2, U_j^π = g_jᵀ(v∘π)) or V(z) blocks (Algorithm 3,
/// Ũ_j = g_jᵀV(z)); paper-faithful Monte Carlo scores the cached U
/// partitions against N(0,1) multiplier blocks.
struct ScoreBlockSource {
  const char* algorithm;
  /// Observed per-SNP marginal scores U_j, as a count-1 block.
  std::function<ScoreBlock()> observed;
  /// The block for replicates [begin, begin+count).
  MakeBlock make_block;
  /// One engine pass over a block: `count` replicate scores per SNP,
  /// restricted to `live_snps` when non-null.
  std::function<ScoreBlock(
      const std::vector<double>& block, std::size_t count,
      std::shared_ptr<const std::unordered_set<std::uint32_t>> live_snps)>
      score;
};

/// A source that never builds U: observed scores U_j = g_jᵀv from a
/// count-1 block of the coefficients v, replicates from `make_block`'s
/// coefficient blocks. `zero_sum_columns` must hold for every generated
/// block; v is scored under the same rule, so a constant column's
/// observed score is exactly 0 where its replicate scores are, and is the
/// U path's value where they are.
ScoreBlockSource GenotypeSource(const char* algorithm, SkatPipeline& pipeline,
                                const std::vector<double>& v,
                                bool zero_sum_columns,
                                MakeBlock make_block) {
  return {algorithm,
          [&pipeline, v, zero_sum_columns] {
            return pipeline.ComputeGenotypeScoreBlock(v, 1, zero_sum_columns);
          },
          std::move(make_block),
          [&pipeline, zero_sum_columns](
              const std::vector<double>& block, std::size_t count,
              std::shared_ptr<const std::unordered_set<std::uint32_t>>
                  live_snps) {
            return pipeline.ComputeGenotypeScoreBlock(
                block, count, zero_sum_columns, std::move(live_snps));
          }};
}

/// Replicate b's block column is v∘π_b with π_b from the same streams as
/// stats::PermutationPlan (Algorithm 2 step 2), so replicate b is
/// reproducible in isolation. Permuted columns sum to Σv = 0.
ScoreBlockSource PermutationSource(SkatPipeline& pipeline, std::uint64_t seed) {
  auto v = std::make_shared<const std::vector<double>>(
      stats::ScoreEngine(pipeline.phenotype()).Coefficients());
  return GenotypeSource(
      "permutation", pipeline, *v, /*zero_sum_columns=*/true,
      [seed, v](std::uint64_t begin, std::size_t count) {
        return stats::PermutedCoefficientBlock(seed, *v, begin, count);
      });
}

/// Replicate b's block column is V(z_b) with z_b from the same streams as
/// stats::MonteCarloWeights (Algorithm 3 step 3), so replicate b is
/// reproducible in isolation. The observed v is V(1).
ScoreBlockSource MonteCarloSource(SkatPipeline& pipeline, std::uint64_t seed) {
  auto score_engine =
      std::make_shared<const stats::ScoreEngine>(pipeline.phenotype());
  return GenotypeSource(
      "monte-carlo", pipeline, score_engine->Coefficients(),
      score_engine->MultiplierColumnsSumToZero(),
      [seed, score_engine](std::uint64_t begin, std::size_t count) {
        return stats::MonteCarloCoefficientBlock(seed, *score_engine, begin,
                                                 count);
      });
}

/// Algorithm 3 as the paper runs it, for `paper_faithful_scores`: the
/// observed U RDD is built and cached once, and every batch scores its
/// partitions against a Z block.
ScoreBlockSource CachedUSource(SkatPipeline& pipeline, std::uint64_t seed) {
  return {"monte-carlo",
          [&pipeline] { return pipeline.CollectObservedScores(); },
          [seed, n = pipeline.n()](std::uint64_t begin, std::size_t count) {
            return stats::MonteCarloZBlock(seed, n, begin, count);
          },
          [&pipeline](const std::vector<double>& block, std::size_t count,
                      std::shared_ptr<const std::unordered_set<std::uint32_t>>
                          live_snps) {
            return pipeline.ComputeMonteCarloScoreBlock(block, count,
                                                        std::move(live_snps));
          }};
}

/// The batched resampling driver: one engine pass per batch, canonical
/// driver-side folds. The observed statistics are folded in the same
/// canonical order, so for Monte Carlo the whole ResamplingResult — not
/// only the counters — is bitwise equal to the serial oracle's analysis
/// from the same seed (baseline::SerialMonteCarloFactored; for the cached
/// U source, baseline::SerialMonteCarlo); every method's result is bitwise
/// invariant to batch size and thread count. Exhaustive
/// and adaptive runs share one counting path: every set that consumes
/// replicates has a stopper (one that never stops when exhaustive), and
/// each batch folds the sets still live into a flat set-major array that
/// the stoppers read by position.
ResamplingResult RunScoreBlocks(SkatPipeline& pipeline,
                                const ResamplingRequest& request,
                                const ScoreBlockSource& source) {
  const std::vector<stats::SnpSet>& sets = pipeline.sets();
  const FoldPlan plan(sets, pipeline.DriverWeights());
  std::vector<std::size_t> all_sets(sets.size());
  for (std::size_t k = 0; k < sets.size(); ++k) all_sets[k] = k;

  ResamplingResult result;
  result.replicates = request.replicates;
  const std::vector<double> observed = [&] {
    engine::TraceSpan span(engine::Tracer::Global(), "algo", "observed skat");
    return FoldSetStatistics(plan, all_sets, source.observed());
  }();
  for (std::size_t k = 0; k < sets.size(); ++k) {
    result.observed[sets[k].id] = observed[k];
  }
  InitCounters(result.observed, &result.exceed);

  const bool adaptive = IsAdaptive(request);
  std::vector<CountedSet> counted;
  if (adaptive) {
    result.early_stop_h = request.early_stop;
    if (request.pvalue_method != PValueMethod::kResampling) {
      // For permutation the Σ λ χ²₁ tail is the standard asymptotic
      // approximation, not exact as under the Monte Carlo null.
      AnalyticScreen(pipeline, request.pvalue_method, &result);
    }
    counted = MakeStoppers(request, sets, &result);
  } else {
    counted.reserve(sets.size());
    for (std::size_t k = 0; k < sets.size(); ++k) {
      counted.push_back({k, stats::SequentialStopper(0)});
    }
  }

  if (!counted.empty()) {
    const std::uint64_t batch_size = EffectiveBatchSize(pipeline, request);
    RunBatches(
        source.algorithm, request.replicates, batch_size, request.sink,
        [&](std::uint64_t begin, std::uint64_t end) {
          const std::size_t count = end - begin;
          // Per batch: `count` × n block entries from the per-replicate
          // streams (bitwise invariant to batching).
          const std::vector<double> block = source.make_block(begin, count);
          // Only the sets whose stopper has not stopped are folded, and
          // adaptive runs score only their SNPs; a set that stops
          // mid-batch stays live until the next batch.
          std::vector<CountedSet*> live;
          std::vector<std::size_t> positions;
          for (CountedSet& set : counted) {
            if (set.stopper.stopped()) continue;
            live.push_back(&set);
            positions.push_back(set.position);
          }
          const std::vector<double> scores = FoldSetStatistics(
              plan, positions,
              source.score(block, count,
                           adaptive ? LiveSnps(sets, positions) : nullptr));
          SetScores replicate;  // filled only for the sink
          bool any_active = false;
          for (std::size_t r = 0; r < count; ++r) {
            any_active = false;
            for (std::size_t i = 0; i < live.size(); ++i) {
              CountedSet& set = *live[i];
              const double score = scores[i * count + r];
              set.stopper.Offer(score >= observed[set.position]);
              any_active = any_active || !set.stopper.stopped();
              if (request.sink != nullptr) {
                replicate[sets[set.position].id] = score;
              }
            }
            if (request.sink != nullptr) {
              request.sink->OnReplicateScores(begin + r, replicate);
              request.sink->OnReplicate(begin + r);
            }
          }
          return any_active;
        });
  }
  if (adaptive) {
    FinalizeAdaptive(request, sets, counted, &result);
  } else {
    for (const CountedSet& set : counted) {
      result.exceed[sets[set.position].id] = set.stopper.exceed();
    }
  }
  RecordResultHash(result);
  return result;
}

/// Algorithm 2 as the paper runs it, for plain `paper_faithful_scores`
/// runs: every replicate re-executes the full pipeline (steps 6-12) under
/// a permuted phenotype, so a batch is a scheduling/telemetry unit rather
/// than a fused engine pass. The observed statistics keep the engine's
/// fold (replicates flow through the same path, keeping the exceedance
/// comparisons aligned). Adaptive permutation always takes RunScoreBlocks.
ResamplingResult RunFaithfulPermutation(SkatPipeline& pipeline,
                                        const ResamplingRequest& request) {
  ResamplingResult result;
  result.observed = pipeline.ComputeObserved();
  result.replicates = request.replicates;
  InitCounters(result.observed, &result.exceed);

  const std::uint64_t seed = request.seed.value_or(pipeline.config().seed);
  // Algorithm 2 step 2: all B shufflings are derived from the seed up
  // front, so replicate b is reproducible in isolation.
  const stats::PermutationPlan plan(seed, pipeline.n(), request.replicates);
  RunBatches(
      "permutation", request.replicates, EffectiveBatchSize(pipeline, request),
      request.sink, [&](std::uint64_t begin, std::uint64_t end) {
        for (std::uint64_t b = begin; b < end; ++b) {
          engine::TraceSpan span(engine::Tracer::Global(), "replicate",
                                 "permutation b=" + std::to_string(b),
                                 {engine::Arg("algorithm", "permutation"),
                                  engine::Arg("b", b)});
          const SetScores replicate =
              pipeline.ComputePermutationReplicate(plan.Get(b));
          CountExceedances(result.observed, replicate, &result.exceed);
          if (request.sink != nullptr) {
            request.sink->OnReplicateScores(b, replicate);
            request.sink->OnReplicate(b);
          }
        }
        return true;
      });
  RecordResultHash(result);
  return result;
}

/// SKAT-O over the batched Monte Carlo replicate pool: each batch scores
/// the same V(z) genotype blocks as plain Monte Carlo, so U is never
/// built, and folds per-set (SKAT, burden) pairs canonically on the
/// driver. The observed pair folds a count-1 block of v the same way.
SkatOResult RunBatchedSkatO(SkatPipeline& pipeline,
                            const ResamplingRequest& request) {
  const std::vector<double> rho_grid = stats::SkatORhoGrid();
  const std::vector<stats::SnpSet>& sets = pipeline.sets();
  const FoldPlan plan(sets, pipeline.DriverWeights());
  const stats::ScoreEngine score_engine(pipeline.phenotype());
  const bool zero_sum_columns = score_engine.MultiplierColumnsSumToZero();

  // Observed (SKAT, burden) pair and grid per set.
  const SkatBurdenScores observed = [&] {
    engine::TraceSpan span(engine::Tracer::Global(), "algo",
                           "observed skat+burden");
    return FoldSkatBurdenScores(
        plan, pipeline.ComputeGenotypeScoreBlock(score_engine.Coefficients(),
                                                 1, zero_sum_columns));
  }();
  std::vector<std::vector<double>> observed_grids(sets.size());
  SkatOResult result;
  result.replicates = request.replicates;
  for (std::size_t k = 0; k < sets.size(); ++k) {
    SkatOResult::PerSet per_set;
    per_set.skat = observed.skat[k];
    per_set.burden = observed.burden[k];
    result.by_set[sets[k].id] = per_set;
    observed_grids[k] =
        stats::SkatOGridStatistics(per_set.burden, per_set.skat, rho_grid);
  }

  const std::uint64_t seed = request.seed.value_or(pipeline.config().seed);
  std::vector<std::vector<std::vector<double>>> replicate_grids(sets.size());
  const std::uint64_t batch_size = EffectiveBatchSize(pipeline, request);
  RunBatches(
      "skat-o", request.replicates, batch_size,
      request.sink, [&](std::uint64_t begin, std::uint64_t end) {
        const std::size_t count = end - begin;
        const std::vector<double> vblock = stats::MonteCarloCoefficientBlock(
            seed, score_engine, begin, count);
        const SkatBurdenScores pairs = FoldSkatBurdenScores(
            plan,
            pipeline.ComputeGenotypeScoreBlock(vblock, count, zero_sum_columns));
        for (std::size_t r = 0; r < count; ++r) {
          for (std::size_t k = 0; k < sets.size(); ++k) {
            replicate_grids[k].push_back(stats::SkatOGridStatistics(
                pairs.burden[k * count + r], pairs.skat[k * count + r],
                rho_grid));
          }
          if (request.sink != nullptr) request.sink->OnReplicate(begin + r);
        }
        return true;
      });

  // Min-p combination per set.
  for (std::size_t k = 0; k < sets.size(); ++k) {
    if (replicate_grids[k].empty()) continue;
    result.by_set.at(sets[k].id).pvalue =
        stats::SkatOPValue(observed_grids[k], replicate_grids[k]);
  }
  return result;
}

}  // namespace

Result<PValueMethod> ParsePValueMethod(const std::string& token) {
  if (token == "resampling") return PValueMethod::kResampling;
  if (token == "analytic") return PValueMethod::kAnalytic;
  if (token == "saddlepoint") return PValueMethod::kSaddlepoint;
  if (token == "hybrid") return PValueMethod::kHybrid;
  return Status::InvalidArgument(
      "pmethod must be resampling|analytic|saddlepoint|hybrid, got '" + token +
      "'");
}

double ResamplingResult::PValue(std::uint32_t set_id) const {
  auto info_it = inference.find(set_id);
  if (info_it != inference.end()) {
    const SetInference& info = info_it->second;
    if (!info.refined) return info.analytic_p;
    auto it = exceed.find(set_id);
    const std::uint64_t count =
        it == exceed.end() ? info.replicates_used : it->second;
    return stats::PValueFromCounts(count, info.replicates_used,
                                   info.early_stopped);
  }
  auto it = exceed.find(set_id);
  const std::uint64_t count = it == exceed.end() ? replicates : it->second;
  return stats::EmpiricalPValue(count, replicates);
}

std::vector<std::pair<std::uint32_t, double>> ResamplingResult::RankedPValues()
    const {
  std::vector<std::pair<std::uint32_t, double>> ranked;
  ranked.reserve(observed.size());
  for (const auto& [set_id, score] : observed) {
    ranked.push_back({set_id, PValue(set_id)});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              return a.second < b.second ||
                     (a.second == b.second && a.first < b.first);
            });
  return ranked;
}

std::vector<std::pair<std::uint32_t, double>> SkatOResult::RankedPValues()
    const {
  std::vector<std::pair<std::uint32_t, double>> ranked;
  ranked.reserve(by_set.size());
  for (const auto& [set_id, per_set] : by_set) {
    ranked.push_back({set_id, per_set.pvalue});
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second < b.second || (a.second == b.second && a.first < b.first);
  });
  return ranked;
}

ResamplingRun RunResampling(SkatPipeline& pipeline,
                            const ResamplingRequest& request) {
  ResamplingRun run;
  run.method = request.method;
  const std::uint64_t seed = request.seed.value_or(pipeline.config().seed);
  switch (request.method) {
    case ResamplingMethod::kPermutation:
      run.scores = pipeline.config().paper_faithful_scores &&
                           !IsAdaptive(request)
                       ? RunFaithfulPermutation(pipeline, request)
                       : RunScoreBlocks(pipeline, request,
                                        PermutationSource(pipeline, seed));
      break;
    case ResamplingMethod::kMonteCarlo:
      run.scores = RunScoreBlocks(
          pipeline, request,
          pipeline.config().paper_faithful_scores
              ? CachedUSource(pipeline, seed)
              : MonteCarloSource(pipeline, seed));
      break;
    case ResamplingMethod::kSkatO:
      if (IsAdaptive(request)) {
        SS_LOG(kWarn, "sparkscore")
            << "adaptive p-value options (pmethod/early_stop) are ignored "
               "for SKAT-O: its min-p combination needs the full replicate "
               "pool";
      }
      run.skato = RunBatchedSkatO(pipeline, request);
      break;
  }
  return run;
}

}  // namespace ss::core
