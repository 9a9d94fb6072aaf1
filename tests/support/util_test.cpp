// Tests for the small support utilities: summary statistics, ASCII table,
// binary serialization, string parsing, stopwatch, logging.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>

#include "support/binary_io.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"
#include "support/string_util.hpp"
#include "support/summary.hpp"
#include "support/table.hpp"

namespace ss {
namespace {

// -- Summary ----------------------------------------------------------------

TEST(SummaryTest, EmptyInput) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stdev, 0.0);
}

TEST(SummaryTest, SingleValue) {
  const Summary s = Summarize({3.5});
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.mean, 3.5);
  EXPECT_EQ(s.stdev, 0.0);
  EXPECT_EQ(s.min, 3.5);
  EXPECT_EQ(s.max, 3.5);
}

TEST(SummaryTest, KnownValues) {
  // Values 2,4,4,4,5,5,7,9: mean 5, sample sd sqrt(32/7).
  const Summary s = Summarize({2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stdev, std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min, 2.0);
  EXPECT_EQ(s.max, 9.0);
}

TEST(QuantileTest, MedianAndExtremes) {
  std::vector<double> v = {5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
}

TEST(QuantileTest, Interpolates) {
  EXPECT_DOUBLE_EQ(Quantile({0.0, 10.0}, 0.25), 2.5);
}

TEST(QuantileTest, ClampsOutOfRange) {
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0}, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0}, 2.0), 2.0);
}

// -- Table --------------------------------------------------------------------

TEST(TableTest, RendersHeadersAndRows) {
  Table table("Demo", {"a", "bb"});
  table.AddRow({"1", "2"});
  table.AddRow({"333", "4"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("== Demo =="), std::string::npos);
  EXPECT_NE(out.find("| a "), std::string::npos);
  EXPECT_NE(out.find("| 333 |"), std::string::npos);
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
}

TEST(TableTest, AlignsColumns) {
  Table table("T", {"x"});
  table.AddRow({"longvalue"});
  const std::string out = table.ToString();
  // Header cell padded to the widest row.
  EXPECT_NE(out.find("| x         |"), std::string::npos);
}

// -- BinaryWriter / BinaryReader ---------------------------------------------

TEST(BinaryIoTest, RoundTripPrimitives) {
  BinaryWriter writer;
  writer.WriteU32(123456);
  writer.WriteU64(1ULL << 60);
  writer.WriteString("hello world");

  BinaryReader reader(writer.bytes());
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::string text;
  ASSERT_TRUE(reader.ReadU32(&u32));
  ASSERT_TRUE(reader.ReadU64(&u64));
  ASSERT_TRUE(reader.ReadString(&text));
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 1ULL << 60);
  EXPECT_EQ(text, "hello world");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryIoTest, RoundTripPodVector) {
  BinaryWriter writer;
  const std::vector<std::uint8_t> data = {1, 1, 2, 3, 5, 8};
  writer.WritePodVector(data);
  BinaryReader reader(writer.bytes());
  std::uint64_t count = 0;
  std::vector<std::uint8_t> read;
  ASSERT_TRUE(reader.ReadU64(&count));
  ASSERT_TRUE(reader.ReadBytes(count, &read));
  EXPECT_EQ(read, data);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryIoTest, EmptyStringAndVector) {
  BinaryWriter writer;
  writer.WriteString("");
  writer.WritePodVector(std::vector<std::uint8_t>{});
  BinaryReader reader(writer.bytes());
  std::string text = "stale";
  std::uint64_t count = 1;
  std::vector<std::uint8_t> read = {9};
  ASSERT_TRUE(reader.ReadString(&text));
  ASSERT_TRUE(reader.ReadU64(&count));
  ASSERT_TRUE(reader.ReadBytes(count, &read));
  EXPECT_EQ(text, "");
  EXPECT_TRUE(read.empty());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ChecksumTest, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5};
  const std::uint64_t before = Checksum(bytes);
  bytes[2] ^= 0x01;
  EXPECT_NE(Checksum(bytes), before);
}

TEST(ChecksumTest, EmptyIsStable) {
  EXPECT_EQ(Checksum({}), Checksum({}));
}

// -- string_util ---------------------------------------------------------------

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(JoinTest, RoundTripsWithSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
}

TEST(TrimTest, StripsWhitespace) {
  EXPECT_EQ(Trim("  abc \t\n"), "abc");
  EXPECT_EQ(Trim("abc"), "abc");
  EXPECT_EQ(Trim("   "), "");
}

TEST(ParseTest, IntegersStrict) {
  std::int64_t i = 0;
  EXPECT_TRUE(ParseI64("-42", &i));
  EXPECT_EQ(i, -42);
  EXPECT_TRUE(ParseI64(" 7 ", &i));  // trimmed
  EXPECT_FALSE(ParseI64("7x", &i));
  EXPECT_FALSE(ParseI64("", &i));

  std::uint32_t u = 0;
  EXPECT_TRUE(ParseU32("4294967295", &u));
  EXPECT_FALSE(ParseU32("4294967296", &u));  // overflow
  EXPECT_FALSE(ParseU32("-1", &u));
}

TEST(ParseTest, Doubles) {
  double d = 0;
  EXPECT_TRUE(ParseDouble("3.25", &d));
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_TRUE(ParseDouble("1e-3", &d));
  EXPECT_DOUBLE_EQ(d, 1e-3);
  EXPECT_FALSE(ParseDouble("abc", &d));
  EXPECT_FALSE(ParseDouble("1.5extra", &d));
  EXPECT_FALSE(ParseDouble("", &d));
}

TEST(ParseTest, DoublesKeepSubnormalsAndRefuseOverflow) {
  double d = 0;
  EXPECT_TRUE(ParseDouble("4.9406564584124654e-324", &d));
  EXPECT_EQ(d, std::numeric_limits<double>::denorm_min());
  EXPECT_TRUE(ParseDouble("2.2250738585072009e-308", &d));  // largest subnormal
  EXPECT_LT(d, std::numeric_limits<double>::min());
  EXPECT_FALSE(ParseDouble("1e400", &d));
  EXPECT_FALSE(ParseDouble("1e-400", &d));  // would silently read as 0
}

// -- Stopwatch -------------------------------------------------------------------

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(sw.ElapsedSeconds(), 0.015);
  EXPECT_GE(sw.ElapsedNanos(), 15'000'000);
}

TEST(StopwatchTest, RestartResets) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), 0.015);
}

// -- Log ---------------------------------------------------------------------------

TEST(LogTest, LevelFiltering) {
  const LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold macro bodies must not even evaluate their stream args.
  bool evaluated = false;
  auto touch = [&]() {
    evaluated = true;
    return "x";
  };
  SS_LOG(kDebug, "test") << touch();
  EXPECT_FALSE(evaluated);
  SetLogLevel(old);
}

}  // namespace
}  // namespace ss
