// Property-based tests: randomized sweeps over configurations and inputs
// asserting invariants rather than specific values.
#include <gtest/gtest.h>

#include "common/half.h"
#include "common/rng.h"
#include "core/analytic_predictor.h"
#include "core/instruction_queue.h"
#include "core/parallel_sim.h"
#include "core/simulator.h"
#include "uarch/cache.h"
#include "uarch/ground_truth.h"

namespace mlsim {
namespace {

// ---------------------------------------------------------------- half ----

TEST(HalfProperty, AllFiniteHalfValuesRoundTripExactly) {
  // Every finite binary16 value must survive half -> float -> half.
  for (std::uint32_t bits = 0; bits < 0x10000u; ++bits) {
    const auto h = static_cast<std::uint16_t>(bits);
    const std::uint32_t exp = (h >> 10) & 0x1fu;
    if (exp == 0x1f) continue;  // inf/NaN
    const float f = half_bits_to_float(h);
    EXPECT_EQ(float_to_half_bits(f), h) << "bits " << bits;
  }
}

TEST(HalfProperty, QuantizationIsIdempotent) {
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    const float x = static_cast<float>(rng.normal() * 1000.0);
    const float once = quantize_to_half(x);
    EXPECT_EQ(quantize_to_half(once), once);
  }
}

TEST(HalfProperty, MonotoneOnSamples) {
  // Quantisation preserves (non-strict) ordering.
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const float a = static_cast<float>(rng.normal() * 50.0);
    const float b = static_cast<float>(rng.normal() * 50.0);
    if (a <= b) {
      EXPECT_LE(quantize_to_half(a), quantize_to_half(b));
    }
  }
}

// --------------------------------------------------------------- cache ----

class CacheSizeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheSizeSweep, LargerCacheNeverMissesMoreOnFixedStream) {
  // Fixed pseudo-random address stream over 256KB; compare this size
  // against double the size (inclusion-like property for LRU with same
  // associativity and sets doubled).
  const std::uint32_t size = GetParam();
  uarch::CacheConfig small{.size_bytes = size, .assoc = 4, .line_bytes = 64,
                           .mshrs = 8, .latency = 3};
  uarch::CacheConfig big = small;
  big.size_bytes = size * 2;
  uarch::Cache c_small(small), c_big(big);
  Rng rng(42);
  for (int i = 0; i < 30000; ++i) {
    const std::uint64_t addr = rng.next_below(256 * 1024);
    c_small.access(addr, static_cast<std::uint64_t>(i), i + 100, false);
    c_big.access(addr, static_cast<std::uint64_t>(i), i + 100, false);
  }
  EXPECT_LE(c_big.misses(), c_small.misses() + c_small.misses() / 20);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheSizeSweep,
                         ::testing::Values(8u * 1024, 16u * 1024, 32u * 1024,
                                           64u * 1024));

class CacheAssocSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheAssocSweep, SequentialStreamColdMissesOnly) {
  uarch::CacheConfig cfg{.size_bytes = 64 * 1024, .assoc = GetParam(),
                         .line_bytes = 64, .mshrs = 8, .latency = 3};
  uarch::Cache c(cfg);
  // Touch 32KB twice: second pass must be all hits regardless of assoc.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t a = 0; a < 32 * 1024; a += 64) {
      c.access(a, a + static_cast<std::uint64_t>(pass) * 100000, a + 50, false);
    }
  }
  EXPECT_EQ(c.misses(), 512u);
  EXPECT_EQ(c.hits(), 512u);
}

INSTANTIATE_TEST_SUITE_P(Assoc, CacheAssocSweep, ::testing::Values(1u, 2u, 4u, 16u));

// ------------------------------------------------- queue equivalence fuzz --

// The equivalence of the two window implementations must hold for ANY
// prediction sequence, not just the analytic predictor's. Drive them with
// random predictions.
class RandomPredictionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPredictionFuzz, QueuesAgreeUnderRandomLatencies) {
  const std::size_t ctx = 12;
  const auto tr = uarch::make_encoded_trace(trace::find_workload("perl"), 1500,
                                            {}, GetParam());
  Rng rng(GetParam() * 977 + 5);

  core::InstructionQueue ref(ctx);
  std::vector<std::uint64_t> ring(ctx, 0);
  std::uint64_t clock = 0;

  std::vector<std::int32_t> wr, wl;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    ref.push_and_build(tr.features(i), wr);
    const core::LazyWindow lw(tr, i, 0, ring.data(), ring.size(), clock, ctx + 1);
    lw.materialize(wl);
    ASSERT_EQ(wr, wl) << i;

    // Random latencies incl. zeros and extremes.
    const core::LatencyPrediction p{
        static_cast<std::uint32_t>(rng.next_below(20)),
        static_cast<std::uint32_t>(rng.next_below(300)),
        static_cast<std::uint32_t>(rng.bernoulli(0.2) ? rng.next_below(60) : 0)};
    ref.apply_prediction(p);
    ring[i % ring.size()] = clock + p.fetch + p.exec + p.store;
    clock += p.fetch;
    ASSERT_EQ(ref.clock(), clock) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPredictionFuzz,
                         ::testing::Values(1ull, 2ull, 3ull, 7ull, 1234ull));

// ------------------------------------------------ parallel sim invariants --

class ParallelInvariants
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ParallelInvariants, BoundariesCoverTraceAndWorkAccounted) {
  const auto [parts, gpus] = GetParam();
  const auto tr = uarch::make_encoded_trace(trace::find_workload("xz"), 5000);
  core::AnalyticPredictor pred;
  core::ParallelSimOptions o;
  o.num_subtraces = parts;
  o.num_gpus = gpus;
  o.context_length = 16;
  o.warmup = 16;
  o.post_error_correction = true;
  core::ParallelSimulator sim(pred, o);
  const auto res = sim.run(tr);

  // Boundaries tile the trace exactly.
  std::size_t covered = 0;
  for (std::size_t p = 0; p + 1 < res.boundaries.size(); ++p) {
    covered += res.boundaries[p + 1] - res.boundaries[p];
  }
  EXPECT_EQ(covered, tr.size());
  EXPECT_EQ(res.instructions, tr.size());
  // Warmup work bounded by (P-1) * warmup (partition 0 has no predecessor).
  EXPECT_LE(res.warmup_instructions, (res.boundaries.size() - 2) * o.warmup);
  // Corrections bounded by limit per correctable partition.
  EXPECT_LE(res.corrected_instructions,
            (res.boundaries.size() - 2) * o.correction_limit);
  // Time model produces something positive and finite.
  EXPECT_GT(res.sim_time_us, 0.0);
  EXPECT_GT(res.mips(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ParallelInvariants,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{16},
                                         std::size_t{128}),
                       ::testing::Values(std::size_t{1}, std::size_t{4})));

TEST(ParallelProperty, WarmupNeverChangesInstructionCount) {
  const auto tr = uarch::make_encoded_trace(trace::find_workload("mcf"), 4000);
  core::AnalyticPredictor pred;
  for (std::size_t w : {0u, 8u, 32u, 64u}) {
    core::ParallelSimOptions o;
    o.num_subtraces = 10;
    o.context_length = 64;
    o.warmup = w;
    core::ParallelSimulator sim(pred, o);
    EXPECT_EQ(sim.run(tr).instructions, tr.size());
  }
}

TEST(ParallelProperty, ErrorWithFullRecoveryBoundedByBaseline) {
  // Across several benchmarks: warmup+correction never does much worse
  // than no recovery at all.
  core::AnalyticPredictor pred;
  for (const std::string abbr : {"xz", "exch", "x264"}) {
    const auto tr = uarch::make_encoded_trace(trace::find_workload(abbr), 20000);
    core::ParallelSimOptions base;
    base.num_subtraces = 64;
    base.context_length = 64;
    core::ParallelSimulator sim_base(pred, base);
    core::ParallelSimOptions rec = base;
    rec.warmup = 64;
    rec.post_error_correction = true;
    core::ParallelSimulator sim_rec(pred, rec);

    core::ParallelSimOptions seq = base;
    seq.num_subtraces = 1;
    const double ref = core::ParallelSimulator(pred, seq).run(tr).cpi();
    const double e_base = std::abs(
        core::ParallelSimulator::cpi_error_percent(ref, sim_base.run(tr).cpi()));
    const double e_rec = std::abs(
        core::ParallelSimulator::cpi_error_percent(ref, sim_rec.run(tr).cpi()));
    EXPECT_LE(e_rec, e_base * 1.1 + 0.2) << abbr;
  }
}

// ---------------------------------------------------- machine config fuzz --

class MachineConfigFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MachineConfigFuzz, PipelineRobustToRandomConfigs) {
  Rng rng(GetParam());
  uarch::MachineConfig m;
  m.core.fetch_width = 1 + static_cast<std::uint32_t>(rng.next_below(6));
  m.core.issue_width = 2 + static_cast<std::uint32_t>(rng.next_below(8));
  m.core.commit_width = m.core.issue_width;
  m.core.iq_entries = 8 << rng.next_below(3);
  m.core.rob_entries = 16 << rng.next_below(3);
  m.core.lq_entries = 8 << rng.next_below(2);
  m.core.sq_entries = 8 << rng.next_below(2);
  m.l1d.size_bytes = (8u << rng.next_below(4)) * 1024;
  m.l1d.assoc = 1 << rng.next_below(4);
  m.l2.size_bytes = (256u << rng.next_below(4)) * 1024;

  const auto tr = uarch::make_encoded_trace(trace::find_workload("xz"), 5000, m,
                                            GetParam());
  ASSERT_EQ(tr.size(), 5000u);
  // Ground truth is sane: CPI bounded below by the fetch width.
  std::uint64_t cycles = 0;
  for (std::size_t i = 0; i < tr.size(); ++i) cycles += tr.targets(i)[0];
  const double cpi = static_cast<double>(cycles) / 5000.0;
  EXPECT_GT(cpi, 0.9 / static_cast<double>(m.core.fetch_width));
  EXPECT_LT(cpi, 200.0);

  // ML simulation runs end to end on the random machine.
  core::MLSimulator::Options opts;
  opts.machine = m;
  core::MLSimulator sim(opts);
  const auto out = sim.simulate(tr);
  EXPECT_EQ(out.instructions, tr.size());
  EXPECT_GT(out.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineConfigFuzz,
                         ::testing::Values(11ull, 22ull, 33ull, 44ull, 55ull,
                                           66ull));

}  // namespace
}  // namespace mlsim
