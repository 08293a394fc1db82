// Tests for the extension features: cache replacement policies, next-line
// prefetch, extended metrics, the error-analysis module and the suite
// scheduler.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/analytic_predictor.h"
#include "core/error_analysis.h"
#include "core/metrics.h"
#include "core/simulator.h"
#include "core/suite.h"
#include "uarch/cache.h"
#include "uarch/ground_truth.h"

namespace mlsim {
namespace {

// ------------------------------------------------- replacement policies ---

uarch::CacheConfig policy_cache(uarch::ReplacementPolicy p) {
  return {.size_bytes = 4096, .assoc = 4, .line_bytes = 64, .mshrs = 4,
          .latency = 3, .replacement = p, .next_line_prefetch = false};
}

TEST(Replacement, FifoEvictsOldestFill) {
  uarch::Cache c(policy_cache(uarch::ReplacementPolicy::kFifo));
  const std::uint64_t set_stride = 64 * 16;  // 16 sets
  // Fill the 4 ways of set 0 in order A,B,C,D.
  for (std::uint64_t i = 0; i < 4; ++i) {
    c.access(i * set_stride, i, i + 10, false);
  }
  // Touch A repeatedly: FIFO ignores recency.
  c.access(0, 10, 0, false);
  c.access(0, 11, 0, false);
  // New line E evicts A (oldest fill) despite A being most-recently used.
  c.access(4 * set_stride, 12, 20, false);
  EXPECT_FALSE(c.probe(0));
  EXPECT_TRUE(c.probe(set_stride));
}

TEST(Replacement, LruKeepsRecentlyUsed) {
  uarch::Cache c(policy_cache(uarch::ReplacementPolicy::kLru));
  const std::uint64_t set_stride = 64 * 16;
  for (std::uint64_t i = 0; i < 4; ++i) c.access(i * set_stride, i, i + 10, false);
  c.access(0, 10, 0, false);  // A is now MRU
  c.access(4 * set_stride, 12, 20, false);
  EXPECT_TRUE(c.probe(0));          // A survives under LRU
  EXPECT_FALSE(c.probe(set_stride));  // B (LRU) evicted
}

TEST(Replacement, RandomIsDeterministicAndValid) {
  uarch::Cache a(policy_cache(uarch::ReplacementPolicy::kRandom));
  uarch::Cache b(policy_cache(uarch::ReplacementPolicy::kRandom));
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t addr = rng.next_below(64 * 1024);
    a.access(addr, static_cast<std::uint64_t>(i), i + 10, false);
  }
  Rng rng2(3);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t addr = rng2.next_below(64 * 1024);
    b.access(addr, static_cast<std::uint64_t>(i), i + 10, false);
  }
  EXPECT_EQ(a.misses(), b.misses());
  EXPECT_GT(a.hits(), 0u);
}

TEST(Replacement, PolicyAffectsThrashingPattern) {
  // Cyclic access over assoc+1 lines of one set: LRU misses every time,
  // while random replacement keeps some lines by luck.
  const std::uint64_t set_stride = 64 * 16;
  uarch::Cache lru(policy_cache(uarch::ReplacementPolicy::kLru));
  uarch::Cache rnd(policy_cache(uarch::ReplacementPolicy::kRandom));
  for (int rep = 0; rep < 200; ++rep) {
    for (std::uint64_t i = 0; i < 5; ++i) {
      const std::uint64_t addr = i * set_stride;
      // Prompt fills so no MSHR stays outstanding across iterations.
      const std::uint64_t now = static_cast<std::uint64_t>(rep) * 100 + i * 10;
      lru.access(addr, now, now + 2, false);
      rnd.access(addr, now, now + 2, false);
    }
  }
  EXPECT_EQ(lru.hits(), 0u);  // classic LRU worst case
  EXPECT_GT(rnd.hits(), 50u);
}

TEST(Replacement, DseWithoutRetraining) {
  // Table IV: replacement policy is explorable by re-tracing only.
  uarch::MachineConfig lru_m;
  uarch::MachineConfig fifo_m;
  fifo_m.l1d.replacement = uarch::ReplacementPolicy::kFifo;
  fifo_m.l2.replacement = uarch::ReplacementPolicy::kFifo;
  const auto lru_tr = core::labeled_trace("xz", 30000, lru_m, 1, false);
  const auto fifo_tr = core::labeled_trace("xz", 30000, fifo_m, 1, false);
  // Different policies produce different hit-level features.
  const auto r_lru = core::trace_rates(lru_tr);
  const auto r_fifo = core::trace_rates(fifo_tr);
  EXPECT_NE(r_lru.l1d_miss_rate, r_fifo.l1d_miss_rate);
}

// ---------------------------------------------------------- prefetching ---

TEST(Prefetch, NextLineEliminatesStreamMisses) {
  uarch::CacheConfig cfg{.size_bytes = 4096, .assoc = 4, .line_bytes = 64,
                         .mshrs = 4, .latency = 3,
                         .replacement = uarch::ReplacementPolicy::kLru,
                         .next_line_prefetch = true};
  uarch::Cache with(cfg);
  cfg.next_line_prefetch = false;
  uarch::Cache without(cfg);
  for (std::uint64_t a = 0; a < 64 * 1024; a += 64) {
    with.access(a, a, a + 10, false);
    without.access(a, a, a + 10, false);
  }
  // Sequential stream: tagged prefetching converts nearly all misses into
  // hits (only the stream head misses).
  EXPECT_LT(with.misses(), without.misses() / 50);
  EXPECT_GT(with.prefetches(), 500u);
}

TEST(Prefetch, ChangesTraceAnnotations) {
  uarch::MachineConfig base;
  uarch::MachineConfig pf = base;
  pf.l1d.next_line_prefetch = true;
  pf.l2.next_line_prefetch = true;
  // Streaming benchmark benefits.
  const auto plain = core::labeled_trace("lbm", 30000, base, 1, false);
  const auto fetched = core::labeled_trace("lbm", 30000, pf, 1, false);
  EXPECT_LT(core::trace_rates(fetched).l1d_miss_rate,
            core::trace_rates(plain).l1d_miss_rate);
  // And it lowers ground-truth cycles on the streaming code.
  EXPECT_LT(core::total_cycles_from_targets(fetched),
            core::total_cycles_from_targets(plain));
}

// ------------------------------------------------- predictor algorithms ---

uarch::BranchPredictorConfig bp_cfg(uarch::BranchPredictorKind kind) {
  uarch::BranchPredictorConfig c;
  c.kind = kind;
  return c;
}

class BpKindSweep : public ::testing::TestWithParam<uarch::BranchPredictorKind> {};

TEST_P(BpKindSweep, LearnsStrongBiasAndLoops) {
  uarch::BranchPredictor bp(bp_cfg(GetParam()));
  // Strongly-taken branch.
  for (int i = 0; i < 100; ++i) bp.update(0x1000, true);
  EXPECT_TRUE(bp.predict(0x1000));
  // Strongly not-taken branch elsewhere.
  for (int i = 0; i < 100; ++i) bp.update(0x9000, false);
  EXPECT_FALSE(bp.predict(0x9000));
}

TEST_P(BpKindSweep, BetterThanCoinFlipOnLoops) {
  uarch::BranchPredictor bp(bp_cfg(GetParam()));
  int correct = 0, total = 0;
  for (int rep = 0; rep < 400; ++rep) {
    for (int i = 0; i < 6; ++i) {
      const bool taken = i != 5;  // 5-taken-1-not loop pattern
      if (rep > 50) {
        correct += bp.predict(0x2000) == taken;
        ++total;
      }
      bp.update(0x2000, taken);
    }
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.6) << "kind "
      << static_cast<int>(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kinds, BpKindSweep,
                         ::testing::Values(uarch::BranchPredictorKind::kBiMode,
                                           uarch::BranchPredictorKind::kGshare,
                                           uarch::BranchPredictorKind::kLocal,
                                           uarch::BranchPredictorKind::kBimodal));

TEST(BpKinds, HistoryPredictorsBeatBimodalOnPatterns) {
  // The bimodal predictor cannot learn an alternating pattern; the
  // history-based ones can.
  auto accuracy = [](uarch::BranchPredictorKind kind) {
    uarch::BranchPredictor bp(bp_cfg(kind));
    int correct = 0, total = 0;
    bool taken = false;
    for (int i = 0; i < 4000; ++i) {
      taken = !taken;
      if (i > 500) {
        correct += bp.predict(0x3000) == taken;
        ++total;
      }
      bp.update(0x3000, taken);
    }
    return static_cast<double>(correct) / total;
  };
  EXPECT_GT(accuracy(uarch::BranchPredictorKind::kGshare), 0.95);
  EXPECT_GT(accuracy(uarch::BranchPredictorKind::kLocal), 0.95);
  EXPECT_LT(accuracy(uarch::BranchPredictorKind::kBimodal), 0.7);
}

TEST(BpKinds, DseWithoutRetrainingChangesAnnotations) {
  uarch::MachineConfig bimodal;
  bimodal.bp.kind = uarch::BranchPredictorKind::kBimodal;
  const auto bi = core::labeled_trace("deep", 30000, {}, 1, false);
  const auto bm = core::labeled_trace("deep", 30000, bimodal, 1, false);
  // The weaker predictor mispredicts more on the branchy benchmark.
  EXPECT_GT(core::trace_rates(bm).branch_mispredict_rate,
            core::trace_rates(bi).branch_mispredict_rate * 0.9);
}

// ------------------------------------------------------ extended metrics ---

TEST(TraceRates, MatchesHandCounts) {
  const auto tr = core::labeled_trace("xz", 20000, {}, 1, false);
  const auto r = core::trace_rates(tr);
  EXPECT_GT(r.branches, 1000u);
  EXPECT_GT(r.data_accesses, 4000u);
  EXPECT_GT(r.branch_mispredict_rate, 0.0);
  EXPECT_LT(r.branch_mispredict_rate, 0.6);
  EXPECT_GE(r.l1d_miss_rate, r.l2_miss_rate);  // miss levels are nested
  EXPECT_GT(r.memory_access_fraction, 0.2);
  EXPECT_LT(r.memory_access_fraction, 0.7);
}

TEST(TraceRates, PredictableBenchmarkHasLowMispredicts) {
  const auto lbm = core::labeled_trace("lbm", 30000, {}, 1, false);
  const auto deep = core::labeled_trace("deep", 30000, {}, 1, false);
  EXPECT_LT(core::trace_rates(lbm).branch_mispredict_rate,
            core::trace_rates(deep).branch_mispredict_rate);
}

TEST(MembwSeries, SumsToOverallBandwidth) {
  const auto tr = core::labeled_trace("mcf", 20000, {}, 1, false);
  std::vector<core::LatencyPrediction> perfect;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    const auto t = tr.targets(i);
    perfect.push_back({t[0], t[1], t[2]});
  }
  const auto series = core::membw_series_from_predictions(tr, perfect, 5000);
  EXPECT_EQ(series.size(), 4u);
  for (double b : series) EXPECT_GE(b, 0.0);
}

// ------------------------------------------------------- error analysis ---

TEST(ErrorAnalysis, CleanOnSinglePartition) {
  const auto tr = core::labeled_trace("xz", 5000, {}, 1, false);
  core::AnalyticPredictor pred;
  core::ParallelSimOptions o;
  o.num_subtraces = 1;
  o.context_length = 16;
  const auto study = core::run_diff_study(pred, tr, o);
  EXPECT_EQ(study.report.total_prediction_diffs, 0u);
  EXPECT_EQ(study.report.total_context_diffs, 0u);
  EXPECT_DOUBLE_EQ(study.cpi_error_percent, 0.0);
}

TEST(ErrorAnalysis, DiffsConcentrateAtPartitionHeads) {
  const auto tr = core::labeled_trace("mcf", 20000, {}, 1, false);
  core::AnalyticPredictor pred;
  core::ParallelSimOptions o;
  o.num_subtraces = 4;
  o.context_length = 64;
  const auto study = core::run_diff_study(pred, tr, o);
  ASSERT_EQ(study.report.partitions.size(), 4u);
  // Partition 0 has no boundary: zero diffs.
  EXPECT_EQ(study.report.partitions[0].prediction_diff_count, 0u);
  // Later partitions show boundary damage and then converge: the error
  // extent is far smaller than the partition length.
  for (std::size_t p = 1; p < 4; ++p) {
    const auto& d = study.report.partitions[p];
    EXPECT_GT(d.prediction_diff_count, 0u) << p;
    EXPECT_LT(d.first_context_match, d.length) << p;
  }
  EXPECT_GT(study.report.perturbed_fraction(tr.size()), 0.0);
  EXPECT_LT(study.report.perturbed_fraction(tr.size()), 0.5);
}

TEST(ErrorAnalysis, WarmupShrinksDiffExtent) {
  const auto tr = core::labeled_trace("mcf", 20000, {}, 1, false);
  core::AnalyticPredictor pred;
  core::ParallelSimOptions bare;
  bare.num_subtraces = 8;
  bare.context_length = 64;
  core::ParallelSimOptions warm = bare;
  warm.warmup = 64;
  const auto s_bare = core::run_diff_study(pred, tr, bare);
  const auto s_warm = core::run_diff_study(pred, tr, warm);
  EXPECT_LT(s_warm.report.total_context_diffs, s_bare.report.total_context_diffs);
  EXPECT_LE(s_warm.report.total_abs_prediction_diff,
            s_bare.report.total_abs_prediction_diff);
}

TEST(ErrorAnalysis, RejectsMismatchedRuns) {
  const auto tr = core::labeled_trace("xz", 1000, {}, 1, false);
  core::AnalyticPredictor pred;
  core::ParallelSimOptions o;
  o.num_subtraces = 2;
  o.context_length = 8;
  o.record_predictions = true;
  o.record_context_counts = true;
  core::ParallelSimulator sim(pred, o);
  const auto a = sim.run(tr);
  core::ParallelSimResult empty;
  EXPECT_THROW(core::diff_parallel_runs(empty, a), CheckError);
}

// ------------------------------------------------------- suite scheduler ---

TEST(SuiteScheduler, LptBalancesLoad) {
  const std::vector<double> costs{10, 9, 8, 7, 6, 5, 4};
  const auto a = core::lpt_assignment(costs, 3);
  ASSERT_EQ(a.size(), costs.size());
  std::vector<double> load(3, 0.0);
  for (std::size_t j = 0; j < costs.size(); ++j) {
    ASSERT_LT(a[j], 3u);
    load[a[j]] += costs[j];
  }
  const double max_load = std::max({load[0], load[1], load[2]});
  const double total = 49;
  EXPECT_LE(max_load, total / 3 * 4.0 / 3.0 + 1e-9);  // LPT bound
}

TEST(SuiteScheduler, SingleDeviceGetsEverything) {
  const auto a = core::lpt_assignment({3, 1, 2}, 1);
  for (auto d : a) EXPECT_EQ(d, 0u);
  EXPECT_THROW(core::lpt_assignment({1.0}, 0), CheckError);
}

TEST(SuiteScheduler, RunSuiteReportsPerJobAndMakespan) {
  const auto a = core::labeled_trace("xz", 4000, {}, 1, false);
  const auto b = core::labeled_trace("mcf", 8000, {}, 1, false);
  const auto c = core::labeled_trace("spei", 2000, {}, 1, false);
  core::AnalyticPredictor pred;
  core::GpuSimOptions opts;
  opts.context_length = 16;
  const auto report = core::run_suite(
      pred, {{&a, "xz"}, {&b, "mcf"}, {&c, "spei"}}, 2, opts);
  ASSERT_EQ(report.jobs.size(), 3u);
  EXPECT_EQ(report.total_instructions(), 14000u);
  EXPECT_GT(report.makespan_us, 0.0);
  EXPECT_GT(report.mips(), 0.0);
  EXPECT_GT(report.utilization(), 0.4);
  EXPECT_LE(report.utilization(), 1.0);
  // The longest job (mcf) sits alone on one device under LPT.
  std::size_t mcf_dev = 99;
  for (const auto& j : report.jobs) {
    if (j.name == "mcf") mcf_dev = j.device;
  }
  for (const auto& j : report.jobs) {
    if (j.name != "mcf") {
      EXPECT_NE(j.device, mcf_dev);
    }
  }
}

TEST(SuiteScheduler, MoreDevicesNeverSlower) {
  std::vector<trace::EncodedTrace> traces;
  std::vector<core::SuiteJob> jobs;
  for (const std::string abbr : {"xz", "mcf", "perl", "lbm"}) {
    traces.push_back(core::labeled_trace(abbr, 3000, {}, 1, false));
  }
  for (std::size_t i = 0; i < traces.size(); ++i) {
    jobs.push_back({&traces[i], std::to_string(i)});
  }
  core::AnalyticPredictor pred;
  core::GpuSimOptions opts;
  opts.context_length = 16;
  const double m1 = core::run_suite(pred, jobs, 1, opts).makespan_us;
  const double m2 = core::run_suite(pred, jobs, 2, opts).makespan_us;
  const double m4 = core::run_suite(pred, jobs, 4, opts).makespan_us;
  EXPECT_LE(m2, m1);
  EXPECT_LE(m4, m2);
}

}  // namespace
}  // namespace mlsim
