// Text helpers for the DFS line formats ("Genotype Matrix Text File",
// SNP-weight and SNP-set files from Algorithm 1's inputs).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ss {

/// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Joins with a separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view text);

/// Strict parse helpers; return false on malformed/out-of-range input
/// (for doubles: overflow and underflow to zero; subnormals parse).
bool ParseI64(std::string_view text, std::int64_t* out);
bool ParseU32(std::string_view text, std::uint32_t* out);
bool ParseDouble(std::string_view text, double* out);

}  // namespace ss
