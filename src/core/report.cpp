#include "core/report.hpp"

#include <algorithm>
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

Status WriteResultToDfs(const ResamplingResult& result, dfs::MiniDfs& dfs,
                        const std::string& path) {
  std::vector<std::string> lines;
  lines.reserve(result.observed.size() + 1);
  lines.push_back("# set observed exceed replicates pvalue");
  for (const auto& [set_id, pvalue] : result.RankedPValues()) {
    const std::uint64_t count =
        result.exceed.count(set_id) ? result.exceed.at(set_id) : 0;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%u %.17g %llu %llu %.17g", set_id,
                  result.observed.at(set_id),
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(result.replicates), pvalue);
    lines.emplace_back(buf);
  }
  return dfs.WriteTextFile(path, lines);
}

Result<ResamplingResult> ReadResultFromDfs(const dfs::MiniDfs& dfs,
                                           const std::string& path) {
  Result<std::vector<std::string>> lines = dfs.ReadTextFile(path);
  if (!lines.ok()) return lines.status();
  ResamplingResult result;
  for (const std::string& line : lines.value()) {
    if (line.empty() || line.front() == '#') continue;
    std::vector<std::string> tokens;
    for (std::string& part : Split(line, ' ')) {
      if (!part.empty()) tokens.push_back(std::move(part));
    }
    if (tokens.size() != 5) {
      return Status::InvalidArgument("bad result line: " + line);
    }
    std::uint32_t set_id = 0;
    double observed = 0.0;
    std::int64_t exceed = 0;
    std::int64_t replicates = 0;
    if (!ParseU32(tokens[0], &set_id) || !ParseDouble(tokens[1], &observed) ||
        !ParseI64(tokens[2], &exceed) || !ParseI64(tokens[3], &replicates) ||
        exceed < 0 || replicates < 0) {
      return Status::InvalidArgument("bad result line: " + line);
    }
    result.observed[set_id] = observed;
    result.exceed[set_id] = static_cast<std::uint64_t>(exceed);
    result.replicates = static_cast<std::uint64_t>(replicates);
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
