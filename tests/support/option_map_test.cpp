#include "support/option_map.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ss::support {
namespace {

/// Builds an OptionMap from a token list (argv[0] is a fake program name).
OptionMap Parse(std::vector<std::string> tokens, int begin = 1) {
  std::vector<char*> argv;
  static std::string program = "test";
  argv.push_back(program.data());
  for (std::string& token : tokens) argv.push_back(token.data());
  return OptionMap(static_cast<int>(argv.size()), argv.data(), begin);
}

TEST(OptionMapTest, TypedGettersAndFallbacks) {
  std::vector<std::string> tokens = {"snps=120", "rate=0.25", "name=alpha",
                                     "verbose=1"};
  const OptionMap args = Parse(tokens);
  EXPECT_EQ(args.GetU64("snps", 7), 120u);
  EXPECT_DOUBLE_EQ(args.GetDouble("rate", 1.0), 0.25);
  EXPECT_EQ(args.GetStr("name", "beta"), "alpha");
  EXPECT_TRUE(args.GetBool("verbose", false));
  EXPECT_EQ(args.GetU64("missing", 42), 42u);
  EXPECT_EQ(args.GetStr("missing", "beta"), "beta");
  EXPECT_TRUE(args.Has("snps"));
  EXPECT_FALSE(args.Has("missing"));
}

TEST(OptionMapTest, PositionalTokensCollected) {
  const OptionMap args = Parse({"run", "snps=10", "fast"});
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"run", "fast"}));
}

TEST(OptionMapTest, BeginSkipsSubcommand) {
  const OptionMap args = Parse({"skat", "reps=5"}, /*begin=*/2);
  EXPECT_EQ(args.GetU64("reps", 0), 5u);
  EXPECT_TRUE(args.positional().empty());
}

TEST(OptionMapTest, MalformedValuesFallBack) {
  const OptionMap args = Parse({"snps=abc", "neg=-3", "rate=xyz"});
  EXPECT_EQ(args.GetU64("snps", 9), 9u);
  EXPECT_EQ(args.GetU64("neg", 9), 9u);  // negative is malformed for U64
  EXPECT_DOUBLE_EQ(args.GetDouble("rate", 0.5), 0.5);
  EXPECT_GE(args.Problems().size(), 3u);
}

TEST(OptionMapTest, UnknownKeysAreOnlyUnreadOnes) {
  const OptionMap args = Parse({"snps=10", "snsp=20"});
  EXPECT_EQ(args.GetU64("snps", 0), 10u);
  const std::vector<std::string> unknown = args.UnknownKeys();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "snsp");
  // One diagnostic, with a nearest-key suggestion.
  EXPECT_EQ(args.Problems().size(), 1u);
}

TEST(OptionMapTest, ProblemsCheckDeclaredKeysBeforeAnyGetter) {
  // A tool that declares its registry groups can refuse a command line
  // before it reads a single option: unknown keys, values that do not
  // fit a registered key's type, and values outside its choices.
  const OptionMap args =
      Parse({"rep=5", "reps=abc", "snps=-1", "refine_threshold=x",
             "stages=2", "method=exact", "seed=7", "store=/tmp/s"});
  args.DeclareKeys({"workload", "engine", "analysis"});
  const std::vector<std::string> problems = args.Problems();
  EXPECT_EQ(problems,
            (std::vector<std::string>{
                "unknown key 'rep' (did you mean 'reps'?)",
                "malformed value for 'method': 'exact' is not one of "
                "mc|perm",
                "malformed value for 'refine_threshold': 'x' is not a number",
                "malformed value for 'reps': 'abc' is not a non-negative "
                "integer",
                "malformed value for 'snps': '-1' is not a non-negative "
                "integer",
                "malformed value for 'stages': '2' is not 0 or 1"}));
  const OptionMap clean = Parse({"reps=5", "stages=1", "method=perm"});
  clean.DeclareKeys();
  EXPECT_TRUE(clean.Problems().empty());
}

TEST(OptionMapTest, SetInsertsAndOverwrites) {
  OptionMap args;
  args.Set("reps", "19");
  EXPECT_EQ(args.GetU64("reps", 0), 19u);
  args.Set("reps", "21");
  EXPECT_EQ(args.GetU64("reps", 0), 21u);
  EXPECT_TRUE(args.Problems().empty());
}

TEST(OptionMapTest, ToleratesEmptyArgv) {
  const OptionMap args(0, nullptr);
  EXPECT_EQ(args.GetU64("anything", 3), 3u);
  EXPECT_TRUE(args.positional().empty());
}

}  // namespace
}  // namespace ss::support
