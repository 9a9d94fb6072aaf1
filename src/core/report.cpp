#include "core/report.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "support/string_util.hpp"
#include "support/table.hpp"

namespace ss::core {

std::string FormatTopHits(const ResamplingResult& result, std::size_t top_k) {
  Table table("Top SNP-sets by empirical p-value",
              {"rank", "set", "S_k (observed)", "exceed/reps", "p-value"});
  const auto ranked = result.RankedPValues();
  const std::size_t rows = std::min(top_k, ranked.size());
  for (std::size_t r = 0; r < rows; ++r) {
    const auto [set_id, pvalue] = ranked[r];
    const std::uint64_t count =
        result.exceed.count(set_id) ? result.exceed.at(set_id) : 0;
    // Adaptive sets count over the replicates they consumed, not B.
    const auto info = result.inference.find(set_id);
    const std::uint64_t used = info == result.inference.end()
                                   ? result.replicates
                                   : info->second.replicates_used;
    table.AddRow({std::to_string(r + 1), std::to_string(set_id),
                  Table::Num(result.observed.at(set_id), 4),
                  std::to_string(count) + "/" + std::to_string(used),
                  Table::Num(pvalue, 5)});
  }
  return table.ToString();
}

namespace {

constexpr char kResultHeader[] = "# sparkscore-result-v2";
constexpr char kResultColumns[] =
    "columns: set observed exceed used method analytic_p pvalue";

/// How a set's p-value was produced, as the result file names it.
const char* MethodToken(const SetInference* info) {
  if (info == nullptr) return "resampling";
  if (!info->refined) return "analytic";
  return info->early_stopped ? "stopped" : "refined";
}

std::string FormatDouble(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

/// Parses "key=<u64>" into `out`.
bool ParseKeyedU64(const std::string& token, const std::string& key,
                   std::uint64_t* out) {
  std::int64_t value = 0;
  if (token.rfind(key + "=", 0) != 0 ||
      !ParseI64(std::string_view(token).substr(key.size() + 1), &value) ||
      value < 0) {
    return false;
  }
  *out = static_cast<std::uint64_t>(value);
  return true;
}

std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> tokens;
  for (std::string& part : Split(line, ' ')) {
    if (!part.empty()) tokens.push_back(std::move(part));
  }
  return tokens;
}

}  // namespace

Status WriteResultToDfs(const ResamplingResult& result, dfs::MiniDfs& dfs,
                        const std::string& path) {
  std::vector<std::string> lines;
  lines.reserve(result.observed.size() + 1);
  lines.push_back(std::string(kResultHeader) +
                  " replicates=" + std::to_string(result.replicates) +
                  " early_stop_h=" + std::to_string(result.early_stop_h) +
                  " " + kResultColumns);
  for (const auto& [set_id, pvalue] : result.RankedPValues()) {
    const auto info_it = result.inference.find(set_id);
    const SetInference* info =
        info_it == result.inference.end() ? nullptr : &info_it->second;
    const std::uint64_t used =
        info == nullptr ? result.replicates : info->replicates_used;
    // A set without a counter counts as exceeding every replicate it
    // used, as PValue() reads it.
    const auto exceed_it = result.exceed.find(set_id);
    const std::uint64_t exceed =
        exceed_it == result.exceed.end() ? used : exceed_it->second;
    lines.push_back(std::to_string(set_id) + " " +
                    FormatDouble(result.observed.at(set_id)) + " " +
                    std::to_string(exceed) + " " + std::to_string(used) + " " +
                    MethodToken(info) + " " +
                    (info == nullptr ? "-" : FormatDouble(info->analytic_p)) +
                    " " + FormatDouble(pvalue));
  }
  return dfs.WriteTextFile(path, lines);
}

Result<ResamplingResult> ReadResultFromDfs(const dfs::MiniDfs& dfs,
                                           const std::string& path) {
  Result<std::vector<std::string>> lines = dfs.ReadTextFile(path);
  if (!lines.ok()) return lines.status();
  const auto bad = [&path](const std::string& why) {
    return Status::InvalidArgument("result file " + path + ": " + why);
  };
  ResamplingResult result;
  const std::vector<std::string>& text = lines.value();
  const std::vector<std::string> header =
      text.empty() ? std::vector<std::string>{} : Tokens(text.front());
  if (header.size() < 4 || header[0] + " " + header[1] != kResultHeader ||
      !ParseKeyedU64(header[2], "replicates", &result.replicates) ||
      !ParseKeyedU64(header[3], "early_stop_h", &result.early_stop_h)) {
    return bad("missing or unsupported header (want '" +
               std::string(kResultHeader) + "')");
  }
  for (std::size_t i = 1; i < text.size(); ++i) {
    const std::string& line = text[i];
    if (line.empty()) continue;
    const std::vector<std::string> tokens = Tokens(line);
    std::uint32_t set_id = 0;
    double observed = 0.0;
    std::int64_t exceed = 0;
    std::int64_t used = 0;
    double written_p = 0.0;
    if (tokens.size() != 7 || !ParseU32(tokens[0], &set_id) ||
        !ParseDouble(tokens[1], &observed) || !ParseI64(tokens[2], &exceed) ||
        !ParseI64(tokens[3], &used) || exceed < 0 || used < exceed ||
        !ParseDouble(tokens[6], &written_p)) {
      return bad("bad line: " + line);
    }
    if (result.observed.count(set_id) != 0) {
      return bad("set " + tokens[0] + " appears twice");
    }
    const std::string& method = tokens[4];
    if (method == "resampling") {
      if (tokens[5] != "-" ||
          static_cast<std::uint64_t>(used) != result.replicates) {
        return bad("bad resampling line: " + line);
      }
    } else if (method == "analytic" || method == "refined" ||
               method == "stopped") {
      SetInference info;
      if (!ParseDouble(tokens[5], &info.analytic_p)) {
        return bad("bad line: " + line);
      }
      info.replicates_used = static_cast<std::uint64_t>(used);
      info.refined = method != "analytic";
      info.early_stopped = method == "stopped";
      result.inference[set_id] = info;
    } else {
      return bad("unknown method '" + method + "' in line: " + line);
    }
    result.observed[set_id] = observed;
    result.exceed[set_id] = static_cast<std::uint64_t>(exceed);
    const double p = result.PValue(set_id);
    if (std::bit_cast<std::uint64_t>(p) !=
        std::bit_cast<std::uint64_t>(written_p)) {
      return bad("set " + tokens[0] + " was written with p=" + tokens[6] +
                 " but its record gives p=" + FormatDouble(p));
    }
  }
  return result;
}

std::string SummarizeResult(const ResamplingResult& result) {
  double min_p = 1.0;
  std::uint32_t best_set = 0;
  for (const auto& [set_id, score] : result.observed) {
    const double p = result.PValue(set_id);
    if (p < min_p) {
      min_p = p;
      best_set = set_id;
    }
  }
  std::ostringstream out;
  out << result.observed.size() << " SNP-sets, B=" << result.replicates
      << " replicates; best set " << best_set << " (p=" << min_p << ")";
  return out.str();
}

}  // namespace ss::core
