// Simulator engine tests: sequential vs GPU-optimised functional
// equivalence across all ablation toggles, cost-model behaviour of the
// optimisation stack, and the facade.
#include <gtest/gtest.h>

#include "core/analytic_predictor.h"
#include "core/gpu_sim.h"
#include "core/sequential_sim.h"
#include "core/simulator.h"
#include "device/device.h"

namespace mlsim::core {
namespace {

trace::EncodedTrace small_trace(const std::string& abbr = "xz",
                                std::size_t n = 3000) {
  return uarch::make_encoded_trace(trace::find_workload(abbr), n, {}, 1);
}

// ------------------------------------------------- sequential simulator --

TEST(SequentialSim, ProducesStableClockAndProfile) {
  trace::EncodedTrace tr = small_trace();
  AnalyticPredictor pred;
  SequentialSimOptions opts;
  opts.context_length = 16;
  SequentialSimulator sim(pred, opts);
  const SimOutput out = sim.run(tr);
  EXPECT_EQ(out.instructions, tr.size());
  EXPECT_GT(out.cycles, tr.size() / 4);  // CPI > 0.25
  EXPECT_GT(out.profile.inference, 0.0);
  EXPECT_GT(out.profile.h2d, 0.0);
  EXPECT_GT(out.profile.transpose, 0.0);
  EXPECT_GT(out.sim_time_us, 0.0);
  EXPECT_NEAR(out.profile.total() * static_cast<double>(out.instructions),
              out.sim_time_us, 1e-6 * out.sim_time_us);
}

TEST(SequentialSim, DeterministicAcrossRuns) {
  trace::EncodedTrace tr = small_trace();
  AnalyticPredictor pred;
  SequentialSimOptions opts;
  opts.context_length = 16;
  SequentialSimulator sim(pred, opts);
  EXPECT_EQ(sim.run(tr).cycles, sim.run(tr).cycles);
}

TEST(SequentialSim, SubrangeSimulation) {
  trace::EncodedTrace tr = small_trace();
  AnalyticPredictor pred;
  SequentialSimOptions opts;
  opts.context_length = 8;
  SequentialSimulator sim(pred, opts);
  const SimOutput out = sim.run(tr, 100, 600);
  EXPECT_EQ(out.instructions, 500u);
  EXPECT_THROW(sim.run(tr, 10, tr.size() + 1), CheckError);
}

TEST(SequentialSim, RecordsPredictionsAndCounts) {
  trace::EncodedTrace tr = small_trace("xz", 500);
  AnalyticPredictor pred;
  SequentialSimOptions opts;
  opts.context_length = 8;
  opts.record_predictions = true;
  opts.record_context_counts = true;
  SequentialSimulator sim(pred, opts);
  const SimOutput out = sim.run(tr);
  ASSERT_EQ(out.predictions.size(), tr.size());
  ASSERT_EQ(out.context_counts.size(), tr.size());
  EXPECT_EQ(out.context_counts[0], 0u);  // cold start: no context
  std::uint64_t cycles = 0;
  for (const auto& p : out.predictions) cycles += p.fetch;
  EXPECT_LE(cycles, out.cycles);  // cycles excludes drain
}

// -------------------------------- GPU simulator functional equivalence --

struct ToggleCase {
  bool gic, swiq, cc, ps;
};

class GpuSimToggles : public ::testing::TestWithParam<ToggleCase> {};

TEST_P(GpuSimToggles, FunctionalResultIndependentOfToggles) {
  const ToggleCase tc = GetParam();
  trace::EncodedTrace tr = small_trace("mcf", 2500);
  AnalyticPredictor pred;

  // (context length, batch N): the original case, then every pair of
  // context {8, 32} and N {1, 5, 16}, which moves the staging boundaries.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {16, 6}, {8, 1}, {8, 5}, {8, 16}, {32, 1}, {32, 5}, {32, 16}};
  for (const auto& [ctx, batch_n] : shapes) {
    SCOPED_TRACE(::testing::Message() << "context " << ctx << " N " << batch_n);
    SequentialSimOptions sopts;
    sopts.context_length = ctx;
    sopts.record_predictions = true;
    sopts.record_context_counts = true;
    SequentialSimulator ref(pred, sopts);
    const SimOutput expected = ref.run(tr);

    device::Device dev;
    GpuSimOptions gopts;
    gopts.context_length = ctx;
    gopts.batch_n = batch_n;
    gopts.gpu_input_construction = tc.gic;
    gopts.sliding_window = tc.swiq;
    gopts.custom_conv = tc.cc;
    gopts.pipelined = tc.ps;
    gopts.record_predictions = true;
    gopts.record_context_counts = true;
    GpuSimulator sim(pred, dev, gopts);
    const SimOutput got = sim.run(tr);

    EXPECT_EQ(got.cycles, expected.cycles);
    EXPECT_EQ(got.context_counts, expected.context_counts);
    ASSERT_EQ(got.predictions.size(), expected.predictions.size());
    for (std::size_t i = 0; i < got.predictions.size(); ++i) {
      ASSERT_EQ(got.predictions[i], expected.predictions[i]) << "at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllToggleCombos, GpuSimToggles,
    ::testing::Values(ToggleCase{false, false, false, false},
                      ToggleCase{true, false, false, false},
                      ToggleCase{true, true, false, false},
                      ToggleCase{true, true, true, false},
                      ToggleCase{true, true, true, true},
                      ToggleCase{true, false, true, true},
                      ToggleCase{false, false, false, true}));

// --------------------------------------- optimisation stack (Fig. 16 shape) --

TEST(GpuSim, OptimisationStackImprovesThroughputMonotonically) {
  trace::EncodedTrace tr = small_trace("xz", 1500);
  AnalyticPredictor pred;

  auto mips_for = [&](bool gic, bool swiq, bool cc, device::Engine eng, bool ps) {
    device::Device dev;
    GpuSimOptions o;
    o.context_length = 32;
    o.gpu_input_construction = gic;
    o.sliding_window = swiq;
    o.custom_conv = cc;
    o.engine = eng;
    o.pipelined = ps;
    GpuSimulator sim(pred, dev, o);
    return sim.run(tr).mips();
  };

  using device::Engine;
  const double base = mips_for(false, false, false, Engine::kLibTorch, false);
  const double gic = mips_for(true, false, false, Engine::kLibTorch, false);
  const double swiq = mips_for(true, true, false, Engine::kLibTorch, false);
  const double cc = mips_for(true, true, true, Engine::kLibTorch, false);
  const double oi = mips_for(true, true, true, Engine::kTensorRTSparse, false);
  const double ps = mips_for(true, true, true, Engine::kTensorRTSparse, true);

  EXPECT_GT(gic, base);
  EXPECT_GT(swiq, gic);
  EXPECT_GT(cc, swiq);
  EXPECT_GT(oi, cc);
  EXPECT_GE(ps, oi * 0.99);  // pipelining never hurts
  // Full stack is an order of magnitude, as in Fig. 16 (0.133 -> 2.86 MIPS).
  EXPECT_GT(ps, base * 8);
}

TEST(GpuSim, PipeliningHidesCopyTime) {
  trace::EncodedTrace tr = small_trace("xz", 1200);
  AnalyticPredictor pred;
  auto time_for = [&](bool ps) {
    device::Device dev;
    GpuSimOptions o;
    o.context_length = 16;
    o.pipelined = ps;
    GpuSimulator sim(pred, dev, o);
    return sim.run(tr).sim_time_us;
  };
  EXPECT_LT(time_for(true), time_for(false));
}

TEST(GpuSim, TransposeCostOnlyWithoutCustomConv) {
  trace::EncodedTrace tr = small_trace("xz", 500);
  AnalyticPredictor pred;
  device::Device d1, d2;
  GpuSimOptions with_cc;
  with_cc.context_length = 16;
  with_cc.custom_conv = true;
  GpuSimOptions without_cc = with_cc;
  without_cc.custom_conv = false;
  const SimOutput a = GpuSimulator(pred, d1, with_cc).run(tr);
  const SimOutput b = GpuSimulator(pred, d2, without_cc).run(tr);
  EXPECT_EQ(a.profile.transpose, 0.0);
  EXPECT_GT(b.profile.transpose, 0.0);
}

TEST(GpuSim, ContextOccupancyReported) {
  trace::EncodedTrace tr = small_trace("mcf", 1500);
  AnalyticPredictor pred;
  device::Device dev;
  GpuSimOptions o;
  o.context_length = 16;
  GpuSimulator sim(pred, dev, o);
  const SimOutput out = sim.run(tr);
  EXPECT_GT(out.avg_context_occupancy, 0.0);
  EXPECT_LE(out.avg_context_occupancy, 1.0);
}

TEST(GpuSim, EmptyRangeReturnsZero) {
  trace::EncodedTrace tr = small_trace("xz", 50);
  AnalyticPredictor pred;
  device::Device dev;
  GpuSimulator sim(pred, dev, {});
  const SimOutput out = sim.run(tr, 10, 10);
  EXPECT_EQ(out.instructions, 0u);
  EXPECT_EQ(out.cycles, 0u);
}

// ------------------------------------------------------------- facade --

TEST(MLSimulator, EndToEndAnalytic) {
  trace::EncodedTrace tr = labeled_trace("xz", 3000, {}, 1, /*use_cache=*/false);
  MLSimulator sim;
  const SimOutput out = sim.simulate(tr);
  EXPECT_EQ(out.instructions, tr.size());
  const double err = sim.cpi_error_percent(tr, out.cpi());
  // The analytic predictor tracks the OoO ground truth reasonably (paper's
  // trained model reaches ~2%; we only require the same order).
  EXPECT_LT(std::abs(err), 30.0);
}

TEST(MLSimulator, OptimizedFasterThanSequentialBaseline) {
  trace::EncodedTrace tr = labeled_trace("xz", 2000, {}, 1, false);
  MLSimulator sim;
  const SimOutput fast = sim.simulate(tr);
  const SimOutput slow = sim.simulate_sequential(tr);
  EXPECT_EQ(fast.cycles, slow.cycles);  // same functional result
  EXPECT_GT(fast.mips(), slow.mips() * 5);
}

TEST(MLSimulator, LabeledTraceCacheRoundTrip) {
  const auto t1 = labeled_trace("spei", 500, {}, 3, true);
  const auto t2 = labeled_trace("spei", 500, {}, 3, true);  // from cache
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); i += 37) {
    EXPECT_EQ(t1.targets(i)[0], t2.targets(i)[0]);
  }
}

}  // namespace
}  // namespace mlsim::core
