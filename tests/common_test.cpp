// Unit tests for the common utilities: RNG, half precision, statistics,
// tables, artifacts and the command-line flag table.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>

#include "common/artifacts.h"
#include "common/check.h"
#include "common/flags.h"
#include "common/half.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace mlsim {
namespace {

// ------------------------------------------------------------------ check --

TEST(Check, PassesOnTrue) { EXPECT_NO_THROW(check(true, "fine")); }

TEST(Check, ThrowsOnFalseWithMessage) {
  try {
    check(false, "my message");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("my message"), std::string::npos);
  }
}

TEST(Check, IndexCheckBounds) {
  EXPECT_NO_THROW(check_index(0, 1, "i"));
  EXPECT_THROW(check_index(1, 1, "i"), CheckError);
  EXPECT_THROW(check_index(5, 3, "i"), CheckError);
}

// -------------------------------------------------------------------- rng --

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

TEST(Rng, NextBelowRejectsZero) {
  Rng r(7);
  EXPECT_THROW(r.next_below(0), CheckError);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng r(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, SampleCdfRespectsWeights) {
  Rng r(19);
  const auto cdf = make_cdf({1.0, 0.0, 3.0});
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) counts[r.sample_cdf(cdf)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 8000.0, 0.75, 0.03);
}

TEST(Rng, SampleCdfRejectsEmptyAndZero) {
  Rng r(1);
  EXPECT_THROW(r.sample_cdf({}), CheckError);
  EXPECT_THROW(r.sample_cdf({0.0, 0.0}), CheckError);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  // Child continues differently from parent.
  EXPECT_NE(child.next(), a.next());
}

TEST(Rng, MakeCdfRejectsNegative) {
  EXPECT_THROW(make_cdf({1.0, -0.5}), CheckError);
}

// ------------------------------------------------------------------- half --

TEST(Half, ExactSmallIntegers) {
  for (int i = -32; i <= 32; ++i) {
    EXPECT_EQ(quantize_to_half(static_cast<float>(i)), static_cast<float>(i));
  }
}

TEST(Half, RoundTripAccuracy) {
  Rng r(3);
  for (int i = 0; i < 2000; ++i) {
    const float x = static_cast<float>(r.uniform() * 200.0 - 100.0);
    const float q = quantize_to_half(x);
    // half has ~11 bits of mantissa: relative error < 2^-11.
    EXPECT_NEAR(q, x,
                static_cast<double>(std::abs(x)) * 0.0005 +
                    static_cast<double>(1e-6f));
  }
}

TEST(Half, SpecialValues) {
  EXPECT_EQ(quantize_to_half(0.0f), 0.0f);
  EXPECT_TRUE(std::signbit(quantize_to_half(-0.0f)));
  EXPECT_TRUE(std::isinf(quantize_to_half(1e30f)));
  EXPECT_TRUE(std::isinf(quantize_to_half(-1e30f)));
  EXPECT_TRUE(std::isnan(quantize_to_half(std::nanf(""))));
}

TEST(Half, DenormalsRepresented) {
  // Smallest positive half denormal is 2^-24.
  const float tiny = std::ldexp(1.0f, -24);
  EXPECT_EQ(quantize_to_half(tiny), tiny);
  // Below half precision: underflows to zero.
  EXPECT_EQ(quantize_to_half(std::ldexp(1.0f, -26)), 0.0f);
}

TEST(Half, RoundToNearestEven) {
  // 2049 is exactly between 2048 and 2050 in half (ulp = 2 there);
  // round-to-even selects 2048.
  EXPECT_EQ(quantize_to_half(2049.0f), 2048.0f);
  EXPECT_EQ(quantize_to_half(2051.0f), 2052.0f);
}

TEST(Half, BitsRoundTrip) {
  const Half h(1.5f);
  EXPECT_EQ(static_cast<float>(Half::from_bits(h.bits())), 1.5f);
}

// ------------------------------------------------------------------ stats --

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.variance(), 1.25);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Stats, PercentErrorSigns) {
  EXPECT_DOUBLE_EQ(signed_percent_error(10.0, 8.0), 20.0);
  EXPECT_DOUBLE_EQ(signed_percent_error(10.0, 12.0), -20.0);
  EXPECT_DOUBLE_EQ(absolute_percent_error(10.0, 12.0), 20.0);
  EXPECT_THROW(signed_percent_error(0.0, 1.0), CheckError);
}

TEST(Stats, Mape) {
  EXPECT_DOUBLE_EQ(mean_absolute_percent_error({10, 20}, {9, 22}), (10.0 + 10.0) / 2);
  EXPECT_THROW(mean_absolute_percent_error({1.0}, {}), CheckError);
}

TEST(Stats, Percentile) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_THROW(percentile({}, 50), CheckError);
  EXPECT_THROW(percentile({1.0}, 101), CheckError);
}

// ------------------------------------------------------------------ table --

TEST(Table, PrintsAlignedAndCsv) {
  Table t({"name", "value"});
  t.add_row({std::string("a"), 1.25});
  t.add_row({std::string("bb"), std::int64_t{42}});
  std::ostringstream console, csv;
  t.print(console);
  t.write_csv(csv);
  EXPECT_NE(console.str().find("| a "), std::string::npos);
  EXPECT_EQ(csv.str(), "name,value\na,1.2500\nbb,42\n");
}

TEST(Table, RejectsBadRowWidth) {
  Table t({"x"});
  EXPECT_THROW(t.add_row({std::string("a"), 1.0}), CheckError);
}

TEST(Table, PrecisionControl) {
  Table t({"v"});
  t.set_precision(1);
  t.add_row({3.14159});
  std::ostringstream csv;
  t.write_csv(csv);
  EXPECT_EQ(csv.str(), "v\n3.1\n");
}

// ------------------------------------------------------------------ flags --

using flags::Kind;
using flags::UsageError;

/// The value `--x=<text>` stores in a field of type T read as `kind`.
template <typename T>
T flag_value(const std::string& text, Kind kind = Kind::kCount) {
  T v{};
  flags::CommandLine cli("prog", {"--x=" + text});
  cli.parse({{{"--x=V", &v, kind}}});
  return v;
}

TEST(Flags, RejectsMalformedIntegers) {
  for (const char* text : {"", "-1", "+1", "10x", " 1", "1 ", "0x10", "1e3",
                           "18446744073709551616"}) {
    EXPECT_THROW(flag_value<std::uint64_t>(text), UsageError) << text;
  }
  EXPECT_EQ(flag_value<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(flag_value<std::uint64_t>("007"), 7u);
}

TEST(Flags, PositiveRejectsZero) {
  EXPECT_THROW(flag_value<std::size_t>("0", Kind::kPositive), UsageError);
  EXPECT_THROW(flag_value<int>("0", Kind::kPositiveMs), UsageError);
  EXPECT_EQ(flag_value<std::size_t>("0"), 0u);
  EXPECT_EQ(flag_value<std::size_t>("1", Kind::kPositive), 1u);
}

TEST(Flags, DurationsFitTheNanosecondClock) {
  EXPECT_EQ(flag_value<std::uint64_t>("9223372036854", Kind::kMs),
            9223372036854u);
  EXPECT_THROW(flag_value<std::uint64_t>("9223372036855", Kind::kMs),
               UsageError);
  EXPECT_THROW(flag_value<std::uint64_t>("9223372036855", Kind::kPositiveMs),
               UsageError);
  EXPECT_EQ(flag_value<std::uint64_t>("9223372036854775", Kind::kUs),
            9223372036854775u);
  EXPECT_THROW(flag_value<std::uint64_t>("9223372036854776", Kind::kUs),
               UsageError);
}

TEST(Flags, NumbersFitTheirField) {
  EXPECT_EQ(flag_value<std::uint16_t>("65535"), 65535);
  EXPECT_THROW(flag_value<std::uint16_t>("65536"), UsageError);
  EXPECT_EQ(flag_value<int>("2147483647", Kind::kPositiveMs), 2147483647);
  EXPECT_THROW(flag_value<int>("2147483648", Kind::kPositiveMs), UsageError);
  EXPECT_THROW(flag_value<int>("2147483648"), UsageError);
}

TEST(Flags, RatesAreFiniteInTheUnitInterval) {
  EXPECT_EQ(flag_value<double>("0", Kind::kRate), 0.0);
  EXPECT_EQ(flag_value<double>("1", Kind::kRate), 1.0);
  EXPECT_EQ(flag_value<double>("0.25", Kind::kRate), 0.25);
  for (const char* text : {"", "1.0000001", "-0.1", "nan", "inf", "0.5x"}) {
    EXPECT_THROW(flag_value<double>(text, Kind::kRate), UsageError) << text;
  }
}

TEST(Flags, PathsMustNotBeEmpty) {
  EXPECT_EQ(flag_value<std::string>("", Kind::kText), "");
  EXPECT_EQ(flag_value<std::string>("a.json", Kind::kPath), "a.json");
  EXPECT_THROW(flag_value<std::string>("", Kind::kPath), UsageError);
}

/// A table with one flag of each shape and two operands.
struct Shapes {
  std::string in, path;
  std::size_t n = 5, gpus = 1;
  bool metrics = false, verify = false;
  std::vector<std::string> sets;

  void parse(std::vector<std::string> args) {
    flags::CommandLine cli("prog", std::move(args));
    cli.parse({{{"<in>", &in, Kind::kText}, {"[n]", &n}},
               {{"--gpus=G", &gpus, Kind::kPositive},
                {"--metrics[=path]", &path, Kind::kText, &metrics},
                {"--verify", &verify},
                {"--set key=value", &sets}}});
  }
};

TEST(Flags, ShapesOfAFlag) {
  Shapes a;
  a.parse({"--metrics", "x", "--verify"});
  EXPECT_TRUE(a.metrics);
  EXPECT_EQ(a.path, "");
  EXPECT_TRUE(a.verify);
  Shapes b;
  b.parse({"--metrics=m.json", "x", "--set", "a=1", "--set=b=2", "--gpus=2",
           "--gpus=3"});
  EXPECT_TRUE(b.metrics);
  EXPECT_EQ(b.path, "m.json");
  EXPECT_EQ(b.sets, (std::vector<std::string>{"a=1", "b=2"}));
  EXPECT_EQ(b.gpus, 3u);  // a repeated value flag keeps its last value
  EXPECT_FALSE(b.verify);
  for (const std::vector<std::string>& bad :
       {std::vector<std::string>{"x", "--bogus"}, {"x", "--gpus"},
        {"x", "--verify=1"}, {"x", "--set"}, {"x", "-g"}, {"x", "--gpu=2"}}) {
    Shapes c;
    EXPECT_THROW(c.parse(bad), UsageError) << bad[1];
  }
}

TEST(Flags, OperandsFillInOrder) {
  Shapes a;
  a.parse({"--verify", "x", "9"});
  EXPECT_EQ(a.in, "x");
  EXPECT_EQ(a.n, 9u);
  Shapes b;
  b.parse({"x"});
  EXPECT_EQ(b.n, 5u);  // an optional operand not given keeps its default
  Shapes c;
  EXPECT_THROW(c.parse({}), UsageError);  // missing <in>
  Shapes d;
  EXPECT_THROW(d.parse({"x", "9", "extra"}), UsageError);
  Shapes e;
  EXPECT_THROW(e.parse({"x", "nine"}), UsageError);
}

TEST(Flags, UsageIsRenderedFromTheRows) {
  flags::CommandLine cli("prog", {"--bogus"});
  EXPECT_EQ(cli.usage(), "");
  std::string in;
  bool on = false;
  std::vector<std::string> sets;
  EXPECT_THROW(cli.parse({{{"<in>", &in, Kind::kText},
                           {"--on", &on},
                           {"--set key=value", &sets}}}),
               UsageError);
  EXPECT_EQ(cli.usage(), "usage: prog <in> [--on] [--set key=value]...");
}

// -------------------------------------------------------------- artifacts --

TEST(Artifacts, DirectoryCreatedAndPathsCompose) {
  const auto dir = artifact_dir();
  EXPECT_TRUE(std::filesystem::exists(dir));
  EXPECT_EQ(artifact_path("x.bin"), dir / "x.bin");
  EXPECT_FALSE(artifact_exists("definitely-not-there.bin"));
}

}  // namespace
}  // namespace mlsim
