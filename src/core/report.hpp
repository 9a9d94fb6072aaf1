// Human-readable reporting of analysis results (examples and benches).
#pragma once

#include <string>

#include "core/resampling_methods.hpp"
#include "dfs/dfs.hpp"

namespace ss::core {

/// Renders the top `top_k` SNP-sets by p-value as an ASCII table.
std::string FormatTopHits(const ResamplingResult& result, std::size_t top_k);

/// One-line summary: replicates, sets, smallest p-value.
std::string SummarizeResult(const ResamplingResult& result);

/// Persists a result to the DFS as a text file — the artifact a
/// downstream pipeline would consume. A versioned header line carries B
/// and the early-stop target h; then one line per SNP-set, sorted by
/// ascending p-value, holds "set observed exceed used method analytic_p
/// pvalue": the exceedances over the `used` replicates the set consumed,
/// how its p-value was produced (`resampling` for a non-adaptive run,
/// `analytic` for a screened-out set, `refined`, or `stopped` for an
/// early-stopped refinement), the analytic screen's p (`-` when there was
/// no screen record) and the p-value itself. Doubles print with 17
/// significant digits, so they re-read bitwise.
Status WriteResultToDfs(const ResamplingResult& result, dfs::MiniDfs& dfs,
                        const std::string& path);

/// Reads back a file written by WriteResultToDfs: every set's PValue()
/// is bitwise the written one. Fails closed (InvalidArgument) on a
/// missing or other-version header, a malformed or repeated line, or a
/// line whose written p differs from the p recomputed from its record.
Result<ResamplingResult> ReadResultFromDfs(const dfs::MiniDfs& dfs,
                                           const std::string& path);

}  // namespace ss::core
