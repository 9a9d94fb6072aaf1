#include "support/option_map.hpp"

#include <algorithm>
#include <cstdio>

#include "support/string_util.hpp"

namespace ss::support {
namespace {

/// Levenshtein distance, small-string use only (key suggestion).
std::size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

/// What a value of this type looks like, for the generated help.
const char* TypeShape(const OptionKeyDef& def) {
  switch (def.type) {
    case OptionType::kU64:
      return "<n>";
    case OptionType::kDouble:
      return "<x>";
    case OptionType::kBool:
      return "0|1";
    case OptionType::kString:
      return "<str>";
    case OptionType::kChoice:
      return "";  // the choices themselves are printed
  }
  return "";
}

}  // namespace

const std::vector<OptionKeyDef>& OptionKeyRegistry() {
  // THE single source of truth for every key=value knob. A key added here
  // is accepted, suggested, help-documented, and (for kChoice) validated
  // by the CLI and every bench at once.
  static const std::vector<OptionKeyDef> kRegistry = {
      // -- workload: what study is simulated --------------------------------
      {"patients", OptionType::kU64, "", "cohort size n (tool default varies)",
       "workload", {}},
      {"snps", OptionType::kU64, "", "number of SNPs (tool default varies)",
       "workload", {}},
      {"sets", OptionType::kU64, "", "number of SNP sets (tool default varies)",
       "workload", {}},
      {"seed", OptionType::kU64, "2016", "master RNG seed", "workload", {}},
      {"ld_block", OptionType::kU64, "1", "LD block size for the generator",
       "workload", {}},
      {"faithful", OptionType::kBool, "1",
       "paper-faithful cost mode: per-patient Cox scores, a full "
       "pipeline rebuild per permutation replicate and Monte Carlo over "
       "the cached U (0 = O(n) risk-set path; both resampling methods "
       "score genotype x coefficient blocks)",
       "workload", {}},
      // -- engine: cluster topology + storage -------------------------------
      {"nodes", OptionType::kU64, "6", "simulated EMR cluster size", "engine",
       {}},
      {"partitions", OptionType::kU64, "8", "input partitions", "engine", {}},
      {"reducers", OptionType::kU64, "8", "shuffle reducers", "engine", {}},
      {"threads", OptionType::kU64, "4", "physical worker threads", "engine",
       {}},
      {"batch", OptionType::kU64, "64",
       "resampling replicates per engine pass (bitwise-invariant)", "engine",
       {}},
      {"cache_budget", OptionType::kU64, "0",
       "partition-cache budget in bytes (0 = unlimited)", "engine", {}},
      {"spill_dir", OptionType::kString, "",
       "directory for spill frames (empty = in-memory block store)", "engine",
       {}},
      {"kernel", OptionType::kChoice, "",
       "force SIMD dispatch level (also SS_KERNEL)", "engine",
       {"scalar", "avx2"}},
      {"store", OptionType::kString, "",
       "memory-mapped genotype store file: open it (staging the cohort "
       "there first if missing) instead of re-ingesting text",
       "engine", {}},
      // -- exec: the async executor / I/O lane ------------------------------
      {"prefetch", OptionType::kU64, "1",
       "partitions prefetched ahead of compute (0 ablates the async "
       "executor; also SS_PREFETCH)",
       "exec", {}},
      {"io_threads", OptionType::kU64, "1", "threads on the I/O lane", "exec",
       {}},
      {"spill_async", OptionType::kBool, "0",
       "move spill writes off the critical path onto the I/O lane (also "
       "SS_SPILL_ASYNC)",
       "exec", {}},
      // -- analysis: what is computed and reported --------------------------
      {"reps", OptionType::kU64, "", "resampling replicates B", "analysis",
       {}},
      {"method", OptionType::kChoice, "mc", "resampling method", "analysis",
       {"mc", "perm"}},
      {"model", OptionType::kChoice, "cox",
       "score model: Cox on the cohort's survival table, or a trait derived "
       "from it (gaussian: log survival time, binomial: event indicator); "
       "not with store=",
       "analysis", {"cox", "gaussian", "binomial"}},
      {"top", OptionType::kU64, "10", "result rows to print", "analysis", {}},
      {"stages", OptionType::kBool, "0", "print the per-stage run report",
       "analysis", {}},
      {"export", OptionType::kString, "",
       "persist the result at this DFS path and echo it", "analysis", {}},
      {"pmethod", OptionType::kChoice, "resampling",
       "p-value engine: pure resampling counts, analytic tail (Liu "
       "moment-match), saddlepoint tail, or hybrid screen+refine",
       "analysis",
       {"resampling", "analytic", "saddlepoint", "hybrid"}},
      {"refine_threshold", OptionType::kDouble, "0.01",
       "hybrid only: refine sets whose analytic screen p is below this",
       "analysis", {}},
      {"early_stop", OptionType::kU64, "0",
       "Besag-Clifford sequential stop after this many exceedances "
       "(0 = exhaustive)",
       "analysis", {}},
      // -- observability: see docs/OBSERVABILITY.md -------------------------
      {"trace", OptionType::kString, "",
       "write Chrome trace_event JSON here ('-' streams to stderr)",
       "observability", {}},
      {"metrics", OptionType::kString, "",
       "write run-metrics JSON here ('-' streams to stdout)", "observability",
       {}},
      {"profile", OptionType::kBool, "1",
       "task-timeline collection (0 ablates; results identical)",
       "observability", {}},
      {"profile_report", OptionType::kBool, "0",
       "print the critical-path/straggler/utilization report",
       "observability", {}},
      {"straggler_mad_k", OptionType::kDouble, "3",
       "straggler threshold: median + k*MAD of the stage", "observability",
       {}},
      {"loglevel", OptionType::kChoice, "error", "stderr log verbosity",
       "observability", {"debug", "info", "warn", "error"}},
      // -- bench: knobs specific to individual benchmarks -------------------
      {"iters", OptionType::kU64, "", "replicates per timed configuration",
       "bench", {}},
      {"mode", OptionType::kString, "",
       "bench-specific mode selector (e.g. bench_caching mode=budget)",
       "bench", {}},
      {"budget", OptionType::kU64, "",
       "constrained cache budget in bytes for budget-mode benches", "bench",
       {}},
      {"budget_iters", OptionType::kU64, "",
       "replicates for the budget-mode comparison", "bench", {}},
      {"datapoint", OptionType::kString, "",
       "append a JSON datapoint for this run to the given file", "bench", {}},
      {"out", OptionType::kString, "", "bench output artifact path", "bench",
       {}},
      {"work", OptionType::kU64, "", "per-task synthetic work units", "bench",
       {}},
      {"count", OptionType::kU64, "", "bench-specific element count", "bench",
       {}},
      {"snps_small", OptionType::kU64, "", "small-config SNP count", "bench",
       {}},
      {"snps_large", OptionType::kU64, "", "large-config SNP count", "bench",
       {}},
      {"mc_max_iters", OptionType::kU64, "",
       "cap on Monte Carlo iterations in sweep benches", "bench", {}},
      {"per_node_cache_bytes", OptionType::kU64, "",
       "per-node cache bytes in container sweeps", "bench", {}},
      {"budgets", OptionType::kString, "",
       "comma-separated cache budgets in bytes for bench_scale "
       "(0 = unlimited; empty picks fractions of the packed size)",
       "bench", {}},
      {"rss_slack_mb", OptionType::kU64, "",
       "bench_scale: fixed RSS slack (MiB) allowed above cache_budget "
       "for driver-side state", "bench", {}},
      {"cache_u", OptionType::kBool, "1",
       "bench_scale: cache the observed U RDD and the decoded store "
       "partitions; U exists only with faithful=1 (paper-faithful Monte "
       "Carlo), so without it this affects only the genotype partitions",
       "bench", {}},
  };
  return kRegistry;
}

const OptionKeyDef* FindOptionKey(const std::string& name) {
  for (const OptionKeyDef& def : OptionKeyRegistry()) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

std::string FormatKeyHelp(const std::vector<std::string>& groups) {
  const auto wanted = [&groups](const char* group) {
    if (groups.empty()) return true;
    return std::find(groups.begin(), groups.end(), group) != groups.end();
  };
  // key=<shape> column width for alignment.
  std::size_t width = 0;
  std::vector<const OptionKeyDef*> selected;
  std::vector<std::string> heads;
  for (const OptionKeyDef& def : OptionKeyRegistry()) {
    if (!wanted(def.group)) continue;
    std::string head = std::string(def.name) + "=";
    if (def.type == OptionType::kChoice) {
      for (std::size_t i = 0; i < def.choices.size(); ++i) {
        if (i != 0) head += "|";
        head += def.choices[i];
      }
    } else {
      head += TypeShape(def);
    }
    width = std::max(width, head.size());
    selected.push_back(&def);
    heads.push_back(std::move(head));
  }
  std::string out;
  std::string last_group;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const OptionKeyDef& def = *selected[i];
    if (def.group != last_group) {
      out += std::string(last_group.empty() ? "" : "\n") + def.group +
             " keys:\n";
      last_group = def.group;
    }
    out += "  " + heads[i] + std::string(width - heads[i].size() + 2, ' ') +
           def.help;
    if (def.default_value[0] != '\0') {
      out += std::string(" (default: ") + def.default_value + ")";
    }
    out += "\n";
  }
  return out;
}

OptionMap::OptionMap(int argc, char** argv, int begin) {
  for (int i = begin; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      positional_.push_back(arg);
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

bool OptionMap::Has(const std::string& key) const {
  known_.insert(key);
  return values_.count(key) != 0;
}

std::uint64_t OptionMap::GetU64(const std::string& key,
                                std::uint64_t fallback) const {
  known_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::int64_t parsed = 0;
  if (!ParseI64(it->second, &parsed) || parsed < 0) {
    malformed_[key] = "'" + it->second + "' is not a non-negative integer";
    return fallback;
  }
  return static_cast<std::uint64_t>(parsed);
}

double OptionMap::GetDouble(const std::string& key, double fallback) const {
  known_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  double parsed = 0;
  if (!ParseDouble(it->second, &parsed)) {
    malformed_[key] = "'" + it->second + "' is not a number";
    return fallback;
  }
  return parsed;
}

std::string OptionMap::GetStr(const std::string& key,
                              const std::string& fallback) const {
  known_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

bool OptionMap::GetBool(const std::string& key, bool fallback) const {
  return GetU64(key, fallback ? 1 : 0) != 0;
}

void OptionMap::Set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

void OptionMap::DeclareKeys(const std::vector<std::string>& groups) const {
  for (const OptionKeyDef& def : OptionKeyRegistry()) {
    if (groups.empty() ||
        std::find(groups.begin(), groups.end(), def.group) != groups.end()) {
      known_.insert(def.name);
    }
  }
}

std::vector<std::string> OptionMap::UnknownKeys() const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : values_) {
    if (known_.count(key) == 0) unknown.push_back(key);
  }
  return unknown;
}

std::vector<std::string> OptionMap::Problems() const {
  std::vector<std::string> problems;
  for (const std::string& key : UnknownKeys()) {
    std::string suggestion;
    std::size_t best = key.size();  // only suggest meaningfully close keys
    for (const std::string& candidate : known_) {
      const std::size_t distance = EditDistance(key, candidate);
      if (distance < best && distance <= 2) {
        best = distance;
        suggestion = candidate;
      }
    }
    std::string problem = "unknown key '" + key + "'";
    if (!suggestion.empty()) problem += " (did you mean '" + suggestion + "'?)";
    problems.push_back(std::move(problem));
  }
  // Values a getter failed to parse, and present values of registered
  // keys that do not fit the key's type or choices (found without any
  // getter having run, so a tool can check before it starts work).
  std::map<std::string, std::string> malformed = malformed_;
  for (const auto& [key, value] : values_) {
    const OptionKeyDef* def = FindOptionKey(key);
    if (def == nullptr || malformed.count(key) != 0) continue;
    std::int64_t integer = 0;
    double real = 0.0;
    switch (def->type) {
      case OptionType::kU64:
        if (!ParseI64(value, &integer) || integer < 0) {
          malformed[key] = "'" + value + "' is not a non-negative integer";
        }
        break;
      case OptionType::kDouble:
        if (!ParseDouble(value, &real)) {
          malformed[key] = "'" + value + "' is not a number";
        }
        break;
      case OptionType::kBool:
        if (value != "0" && value != "1") {
          malformed[key] = "'" + value + "' is not 0 or 1";
        }
        break;
      case OptionType::kString:
        break;
      case OptionType::kChoice: {
        bool legal = false;
        std::string choices;
        for (const char* choice : def->choices) {
          legal = legal || value == choice;
          if (!choices.empty()) choices += "|";
          choices += choice;
        }
        if (!legal) malformed[key] = "'" + value + "' is not one of " + choices;
        break;
      }
    }
  }
  for (const auto& [key, problem] : malformed) {
    problems.push_back("malformed value for '" + key + "': " + problem);
  }
  return problems;
}

std::size_t OptionMap::WarnUnknownKeys(const std::string& program) const {
  const std::vector<std::string> problems = Problems();
  for (const std::string& problem : problems) {
    std::fprintf(stderr, "%s: warning: %s\n", program.c_str(),
                 problem.c_str());
  }
  return problems.size();
}

}  // namespace ss::support
