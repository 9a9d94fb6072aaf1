// Shared `key=value` command-line option parsing for the CLI and the
// benches (previously each had its own copy), plus the single registry
// of every key those tools accept.
//
// Tokens containing '=' become options; everything else is collected as a
// positional token for the caller. Typed getters return a fallback on a
// missing key; a present-but-malformed value also falls back, but is
// remembered and reported by Problems. Every getter registers its key as
// known, so after a tool has read its configuration (or declared its
// registry groups up front), Problems diagnoses unrecognized keys
// (usually typos like `snsp=100`, which key=value interfaces otherwise
// ignore silently). Every tool refuses such a command line before any
// work (core::RunStudyTool).
//
// The key REGISTRY (OptionKeyRegistry) defines each key exactly once —
// name, type, default, one-line help, group, enumerated choices — so a
// knob added there lands in every tool at once: `--help` output is
// generated from it (FormatKeyHelp), DeclareKeys seeds the unknown-key
// suggestion vocabulary from it, and choice-restricted values are
// validated against it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace ss::support {

/// Value shape of a registered option key (drives help text + validation).
enum class OptionType { kU64, kDouble, kBool, kString, kChoice };

/// One entry in the shared key registry.
struct OptionKeyDef {
  const char* name;
  OptionType type;
  const char* default_value;  ///< As shown in help; "" = no default.
  const char* help;           ///< One-line description.
  const char* group;  ///< "workload" | "engine" | "analysis" |
                      ///< "observability" | "bench".
  std::vector<const char*> choices;  ///< For kChoice; empty otherwise.
};

/// The registry: every `key=value` knob the CLI and benches accept,
/// defined exactly once. Append-only within a group; tools select the
/// groups they honor.
const std::vector<OptionKeyDef>& OptionKeyRegistry();

/// Registry lookup by key name; nullptr when the key is not registered.
const OptionKeyDef* FindOptionKey(const std::string& name);

/// Generated help text: one aligned `key=<shape>  help (default: X)` line
/// per registry key whose group is in `groups` (all groups when empty).
std::string FormatKeyHelp(const std::vector<std::string>& groups = {});

class OptionMap {
 public:
  OptionMap() = default;

  /// Parses argv[begin..argc). Tolerates (0, nullptr).
  OptionMap(int argc, char** argv, int begin = 1);

  bool Has(const std::string& key) const;

  /// Typed getters; `fallback` on a missing or malformed value. Negative
  /// numbers are malformed for GetU64. GetBool accepts 0/1.
  std::uint64_t GetU64(const std::string& key, std::uint64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  std::string GetStr(const std::string& key, const std::string& fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  /// Inserts or overwrites an option (programmatic defaults, sub-runs).
  void Set(const std::string& key, const std::string& value);

  /// Tokens without '=' in argv order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Registers every registry key belonging to `groups` (all groups when
  /// empty) as part of this tool's vocabulary, so unknown-key suggestions
  /// come from the full registry rather than only the keys a particular
  /// code path happened to read.
  void DeclareKeys(const std::vector<std::string>& groups = {}) const;

  /// Keys present on the command line that no getter (or Has) has looked
  /// up. Meaningful only after the caller finished reading its options.
  std::vector<std::string> UnknownKeys() const;

  /// One message per unknown key (with a nearest-known suggestion when
  /// one is close), per value a getter could not parse, and per present
  /// value of a registered key that does not fit its type (kU64, kDouble,
  /// kBool as 0|1) or enumerated choices. Type and choice checks need no
  /// getter to have run: after DeclareKeys, a tool can call this before
  /// it starts work and refuse the command line (exit 2).
  std::vector<std::string> Problems() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  /// Keys the program looked up — its supported vocabulary. Mutable so
  /// const getters can register; diagnostics-only state.
  mutable std::set<std::string> known_;
  /// key -> problem description for values that failed a typed parse.
  mutable std::map<std::string, std::string> malformed_;
};

}  // namespace ss::support
