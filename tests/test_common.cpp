// Tests for the common substrate: RNG determinism and distribution
// statistics, CSV formatting, the JSON module, descriptive statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace gp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double total = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) total += rng.uniform();
  EXPECT_NEAR(total / kN, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(13);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(9, 9), 9);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(17);
  constexpr int kN = 200000;
  double total = 0.0, total_sq = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double z = rng.normal();
    total += z;
    total_sq += z * z;
  }
  EXPECT_NEAR(total / kN, 0.0, 0.02);
  EXPECT_NEAR(total_sq / kN, 1.0, 0.03);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(19);
  constexpr int kN = 100000;
  double total = 0.0;
  for (int i = 0; i < kN; ++i) total += rng.exponential(4.0);
  EXPECT_NEAR(total / kN, 0.25, 0.01);
}

class RngPoissonTest : public ::testing::TestWithParam<double> {};

TEST_P(RngPoissonTest, MeanAndVarianceMatch) {
  const double mean = GetParam();
  Rng rng(23);
  constexpr int kN = 50000;
  std::vector<double> samples;
  samples.reserve(kN);
  for (int i = 0; i < kN; ++i) samples.push_back(static_cast<double>(rng.poisson(mean)));
  // Poisson: mean == variance == rate.
  EXPECT_NEAR(gp::mean(samples), mean, 0.05 * mean + 0.05);
  EXPECT_NEAR(gp::variance(samples), mean, 0.1 * mean + 0.1);
}

INSTANTIATE_TEST_SUITE_P(SmallAndLargeMeans, RngPoissonTest,
                         ::testing::Values(0.1, 1.0, 5.0, 29.0, 31.0, 100.0, 1000.0));

TEST(Rng, PoissonZeroMeanIsZero) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(31);
  Rng child = parent.split();
  // The child stream must differ from the parent continuation.
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (parent() == child());
  EXPECT_LT(equal, 3);
}

TEST(Rng, BernoulliFrequencyMatches) {
  Rng rng(37);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, PreconditionViolationsThrow) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), PreconditionError);
  EXPECT_THROW(rng.exponential(0.0), PreconditionError);
  EXPECT_THROW(rng.poisson(-1.0), PreconditionError);
  EXPECT_THROW(rng.bernoulli(1.5), PreconditionError);
  EXPECT_THROW(rng.normal(0.0, -1.0), PreconditionError);
}

TEST(Csv, HeaderAndRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b"});
  csv.row(std::vector<double>{1.5, 2.0});
  EXPECT_EQ(out.str(), "a,b\n1.5,2\n");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, DoubleHeaderThrows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a"});
  EXPECT_THROW(csv.header({"b"}), PreconditionError);
}

TEST(Csv, FormatsSpecialDoubles) {
  EXPECT_EQ(CsvWriter::format(std::nan("")), "nan");
  EXPECT_EQ(CsvWriter::format(INFINITY), "inf");
  EXPECT_EQ(CsvWriter::format(-INFINITY), "-inf");
}

TEST(Csv, FormatOrEmptyBlanksNonFiniteCells) {
  EXPECT_EQ(CsvWriter::format_or_empty(1.5), "1.5");
  EXPECT_EQ(CsvWriter::format_or_empty(std::nan("")), "");
  EXPECT_EQ(CsvWriter::format_or_empty(-INFINITY), "");
}

// ---------------------------------------------------------------------- JSON

TEST(Json, EveryAsciiByteAndUtf8RoundTrip) {
  std::string all;
  for (int byte = 0x01; byte <= 0x7F; ++byte) {
    const std::string text(1, static_cast<char>(byte));
    all += text;
    const std::string quoted = json_quoted(text);
    for (const char c : quoted) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control byte for " << byte;
    }
    EXPECT_EQ(JsonValue(quoted).as_string(), text) << byte;
  }
  EXPECT_EQ(JsonValue(json_quoted(all)).as_string(), all);
  const std::string utf8 = "Z\xc3\xbcrich \xe6\x9d\xb1\xe4\xba\xac \xf0\x9f\x8c\x8d";
  EXPECT_EQ(json_quoted(utf8), "\"" + utf8 + "\"");  // non-ASCII bytes pass through
  EXPECT_EQ(JsonValue(json_quoted(utf8)).as_string(), utf8);
  EXPECT_EQ(json_quoted("a\tb\n\x01\"\\"), "\"a\\tb\\n\\u0001\\\"\\\\\"");
  // \uXXXX escapes another writer may use decode to UTF-8.
  EXPECT_EQ(JsonValue("\"\\u00fc\\ud83c\\udf0d\"").as_string(), "\xc3\xbc\xf0\x9f\x8c\x8d");
}

TEST(Json, KeysMatchAtDepthOneOnly) {
  const JsonValue nested(R"({"a":{"key":1},"b":[{"key":2}],"s":"\"key\":3"})");
  EXPECT_FALSE(nested.find("key").has_value());
  EXPECT_THROW(nested["key"], PreconditionError);
  const JsonValue top(R"({"a":{"key":1}, "key" : 4})");
  ASSERT_TRUE(top.find("key").has_value());
  EXPECT_EQ(top["key"].as_int(), 4);
  EXPECT_EQ(top["a"]["key"].as_int(), 1);
}

TEST(Json, NumbersAreShortestRoundTripAndNullForNonFinite) {
  EXPECT_EQ(json_number(123456789.0), "123456789");
  EXPECT_EQ(json_number(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(INFINITY), "null");
  EXPECT_EQ(json_number(-INFINITY), "null");
  for (const double value : {1234567.891, -2.5e-300, 6.34235123e6, 9007199254740991.0}) {
    EXPECT_EQ(JsonValue(json_number(value)).as_number(), value);
  }
  EXPECT_TRUE(std::isnan(JsonValue("null").as_number()));
  EXPECT_EQ(JsonValue("18446744073709551615").as_uint64(), 18446744073709551615ULL);
  EXPECT_EQ(JsonValue("-7").as_int(), -7);
  EXPECT_TRUE(JsonValue("true").as_bool());
  EXPECT_FALSE(JsonValue("false").as_bool());
}

TEST(Json, ArraysAndObjectsSplitIntoTheirParts) {
  const JsonValue array(R"([1, "a,b", [2,3], {"k":"}"}, null])");
  const auto elements = array.elements();
  ASSERT_EQ(elements.size(), 5u);
  EXPECT_EQ(elements[1].as_string(), "a,b");
  EXPECT_EQ(elements[2].elements().size(), 2u);
  EXPECT_EQ(elements[3]["k"].as_string(), "}");
  EXPECT_TRUE(JsonValue("[]").elements().empty());
  const auto members = JsonValue(R"({"x\ty":"1","z":"2"})").members();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].first, "x\ty");
  EXPECT_EQ(members[1].second.as_string(), "2");
  EXPECT_TRUE(JsonValue("{}").members().empty());
}

TEST(Json, MalformedTextThrows) {
  EXPECT_THROW(JsonValue(R"({"a":"open})").find("a"), PreconditionError);
  EXPECT_THROW(JsonValue(R"({"a" 1})").find("a"), PreconditionError);
  EXPECT_THROW(JsonValue(R"({"a":1}x)").find("a"), PreconditionError);
  EXPECT_THROW(JsonValue(R"({"a":[1,2})").find("a"), PreconditionError);
  EXPECT_THROW(JsonValue("[1 2]").elements(), PreconditionError);
  EXPECT_THROW(JsonValue("nan").as_number(), PreconditionError);
  EXPECT_THROW(JsonValue("inf").as_number(), PreconditionError);
  EXPECT_THROW(JsonValue("1.5").as_int(), PreconditionError);
  EXPECT_THROW(JsonValue("-1").as_uint64(), PreconditionError);
  EXPECT_THROW(JsonValue("yes").as_bool(), PreconditionError);
  EXPECT_THROW(JsonValue(R"("bad \q")").as_string(), PreconditionError);
  EXPECT_THROW(JsonValue(R"("\u12")").as_string(), PreconditionError);
  EXPECT_THROW(JsonValue("[1]").find("a"), PreconditionError);
}

TEST(Json, LinesOfAChromeTraceArrayReadAsObjects) {
  const auto event = json_line(R"(  {"ph":"X","dur":2.5},  )");
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ((*event)["dur"].as_number(), 2.5);
  EXPECT_FALSE(json_line("[").has_value());
  EXPECT_FALSE(json_line("]").has_value());
  EXPECT_FALSE(json_line("   ").has_value());
}

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> values{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(values), 5.0);
  EXPECT_NEAR(variance(values), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stddev(values), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, EmptyInputsAreZero) {
  const std::vector<double> empty;
  EXPECT_EQ(mean(empty), 0.0);
  EXPECT_EQ(variance(empty), 0.0);
  EXPECT_EQ(sum(empty), 0.0);
  EXPECT_EQ(max_abs(empty), 0.0);
  EXPECT_EQ(total_variation(empty), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(values, 50.0), 2.5);
}

TEST(Stats, PercentileValidatesInput) {
  EXPECT_THROW(percentile({}, 50.0), PreconditionError);
  const std::vector<double> one{1.0};
  EXPECT_THROW(percentile(one, -1.0), PreconditionError);
  EXPECT_THROW(percentile(one, 101.0), PreconditionError);
}

TEST(Stats, TotalVariationMeasuresChurn) {
  const std::vector<double> flat{3.0, 3.0, 3.0};
  const std::vector<double> spiky{0.0, 5.0, 0.0, 5.0};
  EXPECT_DOUBLE_EQ(total_variation(flat), 0.0);
  EXPECT_DOUBLE_EQ(total_variation(spiky), 15.0);
}

TEST(Stats, ApproxEqual) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.001));
  EXPECT_TRUE(approx_equal(0.0, 0.0));
}

}  // namespace
}  // namespace gp
