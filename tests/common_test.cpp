// Unit tests for the common utilities: RNG, half precision, statistics,
// tables, artifacts and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>

#include "common/artifacts.h"
#include "common/check.h"
#include "common/half.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/thread_pool.h"

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
    EXPECT_NEAR(q, x, std::abs(x) * 0.0005 + 1e-6f);
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

// ------------------------------------------------------------ thread pool --

TEST(ThreadPool, ParallelForCoversRangeOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ChunkedVariantCoversRange) {
  ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  pool.parallel_for_chunks(0, 1001, [&](std::size_t lo, std::size_t hi) {
    total += hi - lo;
  });
  EXPECT_EQ(total.load(), 1001u);
}

TEST(ThreadPool, SingleThreadDegradesToSerial) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> order;
  pool.parallel_for(0, 5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, BoundedQueueRejectsPostAtCapacity) {
  // A single-thread pool has no workers draining the queue, so occupancy is
  // deterministic: two posts fill the bound, the third gets backpressure.
  ThreadPool pool(1, 2);
  EXPECT_EQ(pool.queue_capacity(), 2u);
  std::atomic<int> ran{0};
  pool.post([&] { ran++; });
  pool.post([&] { ran++; });
  EXPECT_EQ(pool.pending(), 2u);
  EXPECT_THROW(pool.post([&] { ran++; }), QueueFullError);
  EXPECT_EQ(pool.queue_high_water(), 2u);
  // Shutdown still drains every accepted task exactly once.
}

TEST(ThreadPool, BoundedQueueDrainsAcceptedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1, 2);
    pool.post([&] { ran++; });
    pool.post([&] { ran++; });
    EXPECT_THROW(pool.post([&] { ran++; }), QueueFullError);
  }
  EXPECT_EQ(ran.load(), 2) << "accepted tasks run exactly once, rejected never";
}

TEST(ThreadPool, ParallelForSurvivesTinyQueueBound) {
  // With a queue bound smaller than the chunk count, parallel_for falls back
  // to running overflow chunks on the caller — full coverage either way.
  ThreadPool pool(4, 1);
  std::vector<std::atomic<int>> hits(500);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  std::atomic<std::size_t> total{0};
  pool.parallel_for_chunks(0, 777, [&](std::size_t lo, std::size_t hi) {
    total += hi - lo;
  });
  EXPECT_EQ(total.load(), 777u);
  EXPECT_GE(pool.queue_high_water(), 1u);
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
