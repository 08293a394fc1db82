// Lockstep batched parallel simulator: bit-exact equivalence with the
// sub-trace-at-a-time ParallelSimulator across recovery configurations and
// predictors, plus batching behaviour.
#include <gtest/gtest.h>

#include "core/analytic_predictor.h"
#include "core/cnn_predictor.h"
#include "core/lockstep_sim.h"
#include "core/simulator.h"

namespace mlsim::core {
namespace {

trace::EncodedTrace make_trace(const std::string& abbr, std::size_t n) {
  return uarch::make_encoded_trace(trace::find_workload(abbr), n, {}, 1);
}

void expect_identical(const ParallelSimResult& a, const ParallelSimResult& b) {
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.corrected_instructions, b.corrected_instructions);
  EXPECT_EQ(a.warmup_instructions, b.warmup_instructions);
  ASSERT_EQ(a.boundaries, b.boundaries);
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    ASSERT_EQ(a.predictions[i], b.predictions[i]) << "prediction " << i;
  }
  ASSERT_EQ(a.context_counts, b.context_counts);
}

struct Config {
  std::size_t parts;
  std::size_t gpus;
  std::size_t warmup;
  bool correction;
};

// Without this gtest names each case after the raw bytes of Config, padding
// included, so the names would change from build to build.
void PrintTo(const Config& c, std::ostream* os) {
  *os << c.parts << 'x' << c.gpus << "_warmup" << c.warmup
      << (c.correction ? "_correction" : "");
}

class LockstepEquivalence : public ::testing::TestWithParam<Config> {};

TEST_P(LockstepEquivalence, MatchesParallelSimulatorExactly) {
  const Config c = GetParam();
  trace::EncodedTrace tr = make_trace("mcf", 8000);
  AnalyticPredictor pred;
  ParallelSimOptions o;
  o.num_subtraces = c.parts;
  o.num_gpus = c.gpus;
  o.context_length = 32;
  o.warmup = c.warmup;
  o.post_error_correction = c.correction;
  o.record_predictions = true;
  o.record_context_counts = true;

  const auto seq = ParallelSimulator(pred, o).run(tr);
  LockstepParallelSimulator lockstep(pred, o);
  const auto par = lockstep.run(tr);
  expect_identical(seq, par);
  EXPECT_GT(lockstep.peak_batch(), 0u);
  EXPECT_LE(lockstep.peak_batch(), c.parts);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LockstepEquivalence,
    ::testing::Values(Config{1, 1, 0, false}, Config{4, 1, 0, false},
                      Config{4, 1, 32, false}, Config{4, 1, 32, true},
                      Config{16, 4, 32, true}, Config{64, 8, 32, true},
                      Config{7, 3, 16, true}));

TEST(Lockstep, PeakBatchEqualsPartitionsWhenBalanced) {
  trace::EncodedTrace tr = make_trace("xz", 4000);
  AnalyticPredictor pred;
  ParallelSimOptions o;
  o.num_subtraces = 8;
  o.context_length = 16;
  LockstepParallelSimulator sim(pred, o);
  sim.run(tr);
  EXPECT_EQ(sim.peak_batch(), 8u);
}

TEST(Lockstep, OracleZeroErrorUnderLockstep) {
  trace::EncodedTrace tr = make_trace("xz", 4000);
  OraclePredictor oracle(tr);
  ParallelSimOptions seq_o;
  seq_o.num_subtraces = 1;
  seq_o.context_length = 16;
  const double ref = ParallelSimulator(oracle, seq_o).run(tr).cpi();
  ParallelSimOptions o = seq_o;
  o.num_subtraces = 32;
  LockstepParallelSimulator sim(oracle, o);
  EXPECT_DOUBLE_EQ(sim.run(tr).cpi(), ref);
}

TEST(Lockstep, CnnBatchPathMatchesScalarPath) {
  // The lockstep engine drives CnnPredictor::predict_batch; results must
  // match the scalar-prediction ParallelSimulator exactly.
  trace::EncodedTrace tr = make_trace("xz", 600);
  tensor::SimNetModelConfig mcfg;
  mcfg.in_features = trace::kNumFeatures;
  mcfg.window = 17;
  mcfg.channels = 4;
  mcfg.hidden = 8;
  tensor::SimNetModel model(mcfg, 5);
  SimNetBundle b1{std::move(model), std::vector<float>(trace::kNumFeatures, 0.05f)};
  CnnPredictor cnn(std::move(b1));

  ParallelSimOptions o;
  o.num_subtraces = 6;
  o.context_length = 16;
  o.warmup = 16;
  o.record_predictions = true;
  o.record_context_counts = true;

  const auto a = ParallelSimulator(cnn, o).run(tr);
  const auto b = LockstepParallelSimulator(cnn, o).run(tr);
  expect_identical(a, b);
}

TEST(Lockstep, TimeModelAgreesWithParallelSimulator) {
  trace::EncodedTrace tr = make_trace("xz", 20000);
  AnalyticPredictor pred;
  ParallelSimOptions o;
  o.num_subtraces = 64;
  o.num_gpus = 4;
  o.context_length = 32;
  o.warmup = 32;
  o.assumed_flops_per_window = 1'000'000;
  const double t1 = ParallelSimulator(pred, o).run(tr).sim_time_us;
  const double t2 = LockstepParallelSimulator(pred, o).run(tr).sim_time_us;
  // Same model, same inputs — only occupancy sampling order can differ.
  EXPECT_NEAR(t1, t2, t1 * 0.01);
}

TEST(Lockstep, EmptyTrace) {
  trace::EncodedTrace tr("empty");
  AnalyticPredictor pred;
  ParallelSimOptions o;
  LockstepParallelSimulator sim(pred, o);
  const auto res = sim.run(tr);
  EXPECT_EQ(res.instructions, 0u);
  EXPECT_EQ(res.total_cycles, 0u);
}

}  // namespace
}  // namespace mlsim::core
