// Observability layer: registry concurrency, span nesting + Chrome-trace
// export round-trip, disabled-mode no-op behaviour and histogram quantiles.
//
// This file compiles and passes in both the instrumented build and the
// stripped one (-DMLSIM_OBS_DISABLE=ON): assertions that require recording
// are guarded on obs::kCompiledIn.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "obs/obs.h"

namespace mlsim {
namespace {

// ---------------------------------------------------------------------------
// Registry primitives
// ---------------------------------------------------------------------------

TEST(ObsRegistry, CounterGaugeBasics) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name returns the same handle.
  reg.counter("test.counter").add(8);
  EXPECT_EQ(c.value(), 50u);

  obs::Gauge& g = reg.gauge("test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);

  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsRegistry, KindMismatchThrows) {
  obs::Registry reg;
  reg.counter("test.metric");
  EXPECT_THROW(reg.gauge("test.metric"), CheckError);
  EXPECT_THROW(reg.histogram("test.metric"), CheckError);
}

TEST(ObsRegistry, HistogramStatsAndQuantiles) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("test.hist");
  for (int v = 1; v <= 100; ++v) h.record(static_cast<double>(v));
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
  // Default buckets are coarse (4/decade); the interpolated median must land
  // inside the bucket containing the true median (31.6, 56.2].
  const double p50 = s.quantile(50);
  EXPECT_GT(p50, 30.0);
  EXPECT_LT(p50, 57.0);
  const double p99 = s.quantile(99);
  EXPECT_GT(p99, 56.0);
  EXPECT_LE(p99, 100.0);  // clamped by the observed max
}

TEST(ObsRegistry, HistogramCustomEdgesAndEmptyQuantile) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("test.custom", {1.0, 2.0, 4.0});
  EXPECT_TRUE(std::isnan(h.snapshot().quantile(50)));
  h.record(0.5);
  h.record(1.5);
  h.record(100.0);  // overflow -> open-ended last bucket
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST(ObsRegistry, QuantileFromBuckets) {
  const std::vector<double> edges{10.0, 20.0, 30.0};
  // 10 samples in (10, 20]: the median interpolates inside that bucket.
  EXPECT_DOUBLE_EQ(quantile_from_buckets(edges, {0, 10, 0}, 50), 15.0);
  EXPECT_DOUBLE_EQ(quantile_from_buckets(edges, {0, 10, 0}, 100), 20.0);
  // Mass in the last bucket interpolates inside it like any other; a
  // Histogram snapshot additionally clamps to the observed max.
  EXPECT_NEAR(quantile_from_buckets(edges, {0, 0, 4}, 99), 29.9, 1e-9);
  EXPECT_DOUBLE_EQ(quantile_from_buckets(edges, {0, 0, 4}, 100), 30.0);
  EXPECT_TRUE(std::isnan(quantile_from_buckets(edges, {0, 0, 0}, 50)));
  EXPECT_THROW(quantile_from_buckets(edges, {1, 2}, 50), CheckError);
}

TEST(ObsRegistry, ConcurrentCountersAndHistograms) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("test.concurrent_counter");
  obs::Gauge& g = reg.gauge("test.concurrent_gauge");
  obs::Histogram& h = reg.histogram("test.concurrent_hist");
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        c.add(1);
        g.add(1.0);
        h.record(static_cast<double>(i % 1000) + 1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kIters);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : s.counts) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
}

TEST(ObsRegistry, DefaultRegistryCoversAllSubsystems) {
  const std::vector<std::string> names = obs::default_registry().metric_names();
  const auto has_prefix = [&](const std::string& prefix) {
    for (const auto& n : names) {
      if (n.rfind(prefix, 0) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_prefix("gpu_sim."));
  EXPECT_TRUE(has_prefix("parallel_sim."));
  EXPECT_TRUE(has_prefix("streaming."));
  EXPECT_TRUE(has_prefix("trainer."));

  std::ostringstream text, json;
  obs::default_registry().write_text(text);
  obs::default_registry().write_json(json);
  for (const char* sub :
       {"gpu_sim.", "parallel_sim.", "streaming.", "trainer."}) {
    EXPECT_NE(text.str().find(sub), std::string::npos) << sub;
    EXPECT_NE(json.str().find(sub), std::string::npos) << sub;
  }
  EXPECT_EQ(json.str().front(), '{');
  EXPECT_EQ(json.str().back(), '}');
}

// ---------------------------------------------------------------------------
// Tracing spans
// ---------------------------------------------------------------------------

/// Pull the double following `"key":` after position `from`.
double json_value_after(const std::string& s, const std::string& key,
                        std::size_t from) {
  const std::size_t k = s.find("\"" + key + "\":", from);
  EXPECT_NE(k, std::string::npos) << key;
  return std::strtod(s.c_str() + k + key.size() + 3, nullptr);
}

TEST(ObsTrace, SpanNestingExportRoundTrip) {
  obs::set_enabled(true);
  obs::reset_trace();
  {
    MLSIM_TRACE_SPAN("test/parent");
    volatile double sink = 0;
    {
      MLSIM_TRACE_SPAN("test/child");
      for (int i = 0; i < 1000; ++i) sink = sink + static_cast<double>(i);
    }
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<double>(i);
  }
  obs::set_enabled(false);

  if (!obs::kCompiledIn) {
    EXPECT_EQ(obs::recorded_events(), 0u);
    return;
  }
  EXPECT_EQ(obs::recorded_events(), 2u);
  EXPECT_EQ(obs::dropped_events(), 0u);

  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string j = os.str();
  EXPECT_EQ(j.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(j.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);

  const std::size_t parent_pos = j.find("\"name\":\"test/parent\"");
  const std::size_t child_pos = j.find("\"name\":\"test/child\"");
  ASSERT_NE(parent_pos, std::string::npos);
  ASSERT_NE(child_pos, std::string::npos);

  const double pts = json_value_after(j, "ts", parent_pos);
  const double pdur = json_value_after(j, "dur", parent_pos);
  const double pdepth = json_value_after(j, "depth", parent_pos);
  const double cts = json_value_after(j, "ts", child_pos);
  const double cdur = json_value_after(j, "dur", child_pos);
  const double cdepth = json_value_after(j, "depth", child_pos);

  EXPECT_EQ(pdepth, 0.0);
  EXPECT_EQ(cdepth, 1.0);
  // Child interval nests inside the parent interval (µs, same thread).
  EXPECT_GE(cts, pts);
  EXPECT_LE(cts + cdur, pts + pdur + 1e-3);
}

TEST(ObsTrace, EventsFromMultipleThreadsCarryDistinctTids) {
  obs::set_enabled(true);
  obs::reset_trace();
  {
    MLSIM_TRACE_SPAN("test/main-thread");
  }
  std::thread t([] { MLSIM_TRACE_SPAN("test/other-thread"); });
  t.join();
  obs::set_enabled(false);

  if (!obs::kCompiledIn) {
    EXPECT_EQ(obs::recorded_events(), 0u);
    return;
  }
  EXPECT_EQ(obs::recorded_events(), 2u);
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string j = os.str();
  const std::size_t a = j.find("\"name\":\"test/main-thread\"");
  const std::size_t b = j.find("\"name\":\"test/other-thread\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_NE(json_value_after(j, "tid", a), json_value_after(j, "tid", b));
}

TEST(ObsTrace, RuntimeDisabledRecordsNothing) {
  obs::set_enabled(false);
  obs::reset_trace();
  const std::uint64_t before =
      obs::default_registry().counter("test.disabled_counter").value();
  {
    MLSIM_TRACE_SPAN("test/should-not-appear");
    MLSIM_COUNTER_ADD("test.disabled_counter", 7);
    MLSIM_GAUGE_SET("test.disabled_gauge", 1.0);
    MLSIM_HIST_RECORD("test.disabled_hist", 5.0);
  }
  EXPECT_EQ(obs::recorded_events(), 0u);
  EXPECT_EQ(obs::default_registry().counter("test.disabled_counter").value(),
            before);
}

TEST(ObsTrace, CompileTimeDisabledIsNoOp) {
  if (obs::kCompiledIn) GTEST_SKIP() << "instrumented build";
  obs::set_enabled(true);  // must be a no-op in the stripped build
  EXPECT_FALSE(obs::enabled());
  {
    MLSIM_TRACE_SPAN("test/compiled-out");
  }
  EXPECT_EQ(obs::recorded_events(), 0u);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition (what GET /metrics serves)
// ---------------------------------------------------------------------------

TEST(ObsPrometheus, NameSanitizationAndEscaping) {
  EXPECT_EQ(obs::prom_name("gpu_sim.inference_ns"), "mlsim_gpu_sim_inference_ns");
  EXPECT_EQ(obs::prom_name("a.b-c d"), "mlsim_a_b_c_d");
  EXPECT_EQ(obs::prom_escape("plain"), "plain");
  EXPECT_EQ(obs::prom_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(ObsPrometheus, ExpositionCoversAllKindsWithTypeLines) {
  obs::Registry reg;
  reg.counter("test.events").add(41);
  reg.gauge("test.depth").set(2.5);
  obs::Histogram& h = reg.histogram("test.wait_ns", {1.0, 10.0, 100.0});
  h.record(0.5);   // first bucket
  h.record(5.0);   // second
  h.record(1e9);   // overflow: storage's open-ended last bucket
  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string body = os.str();

  EXPECT_NE(body.find("# TYPE mlsim_test_events_total counter\n"
                      "mlsim_test_events_total 41\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("# TYPE mlsim_test_depth gauge\nmlsim_test_depth 2.5\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("# TYPE mlsim_test_wait_ns histogram\n"),
            std::string::npos)
      << body;
  // Cumulative buckets ending at +Inf == _count, even with an overflow
  // sample beyond the largest finite edge.
  EXPECT_NE(body.find("mlsim_test_wait_ns_bucket{le=\"1\"} 1\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("mlsim_test_wait_ns_bucket{le=\"10\"} 2\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("mlsim_test_wait_ns_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("mlsim_test_wait_ns_count 3\n"), std::string::npos)
      << body;
  EXPECT_NE(body.find("mlsim_test_wait_ns_sum "), std::string::npos) << body;
}

TEST(ObsPrometheus, SnapshotStaysConsistentUnderConcurrentRecording) {
  // The exposition's histogram invariants (+Inf == _count, cumulative
  // non-decreasing buckets) must hold for snapshots taken mid-record.
  obs::Registry reg;
  reg.histogram("test.concurrent_ns");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&reg, &stop, t] {
      obs::Histogram& h = reg.histogram("test.concurrent_ns");
      std::uint64_t x = static_cast<std::uint64_t>(t) + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        h.record(static_cast<double>(x % 1000000));
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    std::ostringstream os;
    reg.write_prometheus(os);
    const std::string body = os.str();
    // Walk the bucket lines: cumulative counts never decrease, and the
    // final +Inf bucket equals _count.
    std::uint64_t prev = 0, inf = 0, count = 0;
    std::istringstream is(body);
    std::string line;
    while (std::getline(is, line)) {
      const auto value_of = [&line] {
        return std::stoull(line.substr(line.rfind(' ') + 1));
      };
      if (line.rfind("mlsim_test_concurrent_ns_bucket", 0) == 0) {
        const std::uint64_t v = value_of();
        EXPECT_GE(v, prev) << body;
        prev = v;
        if (line.find("le=\"+Inf\"") != std::string::npos) inf = v;
      } else if (line.rfind("mlsim_test_concurrent_ns_count", 0) == 0) {
        count = value_of();
      }
    }
    EXPECT_EQ(inf, count) << body;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
}

// ---------------------------------------------------------------------------
// Distributed trace context and cross-process merge
// ---------------------------------------------------------------------------

TEST(ObsTrace, TraceContextRoundTripsAndStampsSpans) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "stripped build";
  obs::set_enabled(true);
  obs::reset_trace();
  EXPECT_EQ(obs::current_trace_id(), 0u);
  obs::set_trace_context(0xabcdULL, 7);
  EXPECT_EQ(obs::current_trace_id(), 0xabcdULL);
  EXPECT_EQ(obs::current_parent_span(), 7u);
  {
    MLSIM_TRACE_SPAN("test/ctx-span");
  }
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string body = os.str();
  EXPECT_NE(body.find("\"name\":\"test/ctx-span\""), std::string::npos);
  EXPECT_NE(body.find("\"trace_id\":\"abcd\""), std::string::npos) << body;
  obs::set_trace_context(0, 0);
  obs::set_enabled(false);
}

TEST(ObsTrace, RemoteSpansMergeWithDistinctPids) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "stripped build";
  obs::set_enabled(true);
  obs::reset_trace();
  {
    MLSIM_TRACE_SPAN("test/local-span");
  }
  obs::SpanRecord remote;
  remote.name = "test/remote-span";
  remote.ts_ns = 10;
  remote.dur_ns = 20;
  remote.tid = 3;
  obs::add_remote_spans(/*pid=*/9, /*trace_id=*/0x51ULL, {remote});
  std::ostringstream os;
  obs::write_chrome_trace(os);
  const std::string body = os.str();
  // Local spans export under pid 1, the remote batch under its own pid,
  // carrying the trace id it was shipped with.
  const std::size_t local = body.find("\"name\":\"test/local-span\"");
  const std::size_t rem = body.find("\"name\":\"test/remote-span\"");
  ASSERT_NE(local, std::string::npos) << body;
  ASSERT_NE(rem, std::string::npos) << body;
  EXPECT_NE(body.find("\"pid\":1", local), std::string::npos);
  EXPECT_NE(body.find("\"pid\":9", rem), std::string::npos);
  EXPECT_NE(body.find("\"trace_id\":\"51\"", rem), std::string::npos) << body;
  // snapshot_spans feeds ResultMsg: it must see the local span.
  const std::vector<obs::SpanRecord> spans = obs::snapshot_spans();
  bool found = false;
  for (const auto& s : spans) found = found || s.name == "test/local-span";
  EXPECT_TRUE(found);
  obs::set_enabled(false);
}

}  // namespace
}  // namespace mlsim
