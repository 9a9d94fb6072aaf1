#include "support/string_util.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace ss {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      parts.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

bool ParseI64(std::string_view text, std::int64_t* out) {
  text = Trim(text);
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool ParseU32(std::string_view text, std::uint32_t* out) {
  text = Trim(text);
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool ParseDouble(std::string_view text, double* out) {
  text = Trim(text);
  if (text.empty()) return false;
  // std::from_chars<double> is available in libstdc++ 11+, but go through
  // strtod for locale-independent permissiveness on exponent formats.
  std::string owned(text);
  errno = 0;
  char* end = nullptr;
  *out = std::strtod(owned.c_str(), &end);
  if (end != owned.c_str() + owned.size()) return false;
  // strtod also flags a subnormal result with ERANGE. Keep it: a printed
  // subnormal (a deep-tail p-value) must re-read as itself. Overflow and
  // underflow to zero stay out of range.
  return errno == 0 || (std::isfinite(*out) && *out != 0.0);
}

}  // namespace ss
