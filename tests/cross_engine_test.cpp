// Cross-engine consistency: every simulation engine (sequential reference,
// GPU-optimised, partition-order parallel, lockstep batched, streaming) must
// produce the same predictions for the same predictor — including the CNN,
// whose batch path exercises different code than its scalar path.
#include <gtest/gtest.h>

#include "core/analytic_predictor.h"
#include "core/cnn_predictor.h"
#include "core/gpu_sim.h"
#include "core/lockstep_sim.h"
#include "core/sequential_sim.h"
#include "core/simulator.h"
#include "core/streaming.h"
#include "core/suite.h"
#include "uarch/ground_truth.h"

namespace mlsim::core {
namespace {

SimNetBundle tiny_bundle(std::size_t window) {
  tensor::SimNetModelConfig cfg;
  cfg.in_features = trace::kNumFeatures;
  cfg.window = window;
  cfg.channels = 4;
  cfg.hidden = 8;
  tensor::SimNetModel model(cfg, 77);
  return SimNetBundle{std::move(model),
                      std::vector<float>(trace::kNumFeatures, 0.04f)};
}

TEST(CrossEngine, AllEnginesAgreeWithCnnPredictor) {
  const std::size_t ctx = 12;
  const auto tr = uarch::make_encoded_trace(trace::find_workload("perl"), 400,
                                            {}, 9);
  CnnPredictor cnn(tiny_bundle(ctx + 1));

  // Sequential reference.
  SequentialSimOptions so;
  so.context_length = ctx;
  so.record_predictions = true;
  const auto seq = SequentialSimulator(cnn, so).run(tr);

  // GPU-optimised engine.
  device::Device dev;
  GpuSimOptions go;
  go.context_length = ctx;
  go.record_predictions = true;
  const auto gpu = GpuSimulator(cnn, dev, go).run(tr);
  ASSERT_EQ(gpu.predictions.size(), seq.predictions.size());
  for (std::size_t i = 0; i < seq.predictions.size(); ++i) {
    ASSERT_EQ(gpu.predictions[i], seq.predictions[i]) << i;
  }

  // Parallel engines with a single partition.
  ParallelSimOptions po;
  po.num_subtraces = 1;
  po.context_length = ctx;
  po.record_predictions = true;
  const auto par = ParallelSimulator(cnn, po).run(tr);
  const auto lock = LockstepParallelSimulator(cnn, po).run(tr);
  for (std::size_t i = 0; i < seq.predictions.size(); ++i) {
    ASSERT_EQ(par.predictions[i], seq.predictions[i]) << i;
    ASSERT_EQ(lock.predictions[i], seq.predictions[i]) << i;
  }
}

TEST(CrossEngine, StreamingAgreesWithParallelAnalytic) {
  const std::size_t ctx = 24;
  const auto& wl = trace::find_workload("x264");
  const auto tr = uarch::make_encoded_trace(wl, 3000, {}, 13);
  AnalyticPredictor pred;

  ParallelSimOptions po;
  po.num_subtraces = 1;
  po.context_length = ctx;
  const auto par = ParallelSimulator(pred, po).run(tr);

  uarch::LabeledTraceStream stream(wl, {}, 13);
  const auto str = simulate_stream(pred, stream, 3000, ctx, 113);
  EXPECT_EQ(str.predicted_cycles, par.total_cycles);
}

TEST(CrossEngine, FacadeCnnPathRunsAllEngines) {
  const auto tr = labeled_trace("nab", 1200, {}, 1, false);
  MLSimulator sim;
  sim.use_cnn(tiny_bundle(17));
  EXPECT_EQ(sim.options().context_length, 16u);

  const auto single = sim.simulate(tr);
  const auto par = sim.simulate_parallel(tr, 4, 2);
  EXPECT_EQ(single.instructions, tr.size());
  EXPECT_EQ(par.instructions, tr.size());
  EXPECT_GT(par.mips(), 0.0);
}

TEST(CrossEngine, SuiteMatchesIndividualRuns) {
  const auto a = labeled_trace("xz", 1500, {}, 1, false);
  const auto b = labeled_trace("exch", 1500, {}, 1, false);
  AnalyticPredictor pred;
  GpuSimOptions opts;
  opts.context_length = 16;

  device::Device d1, d2;
  const auto ra = GpuSimulator(pred, d1, opts).run(a);
  const auto rb = GpuSimulator(pred, d2, opts).run(b);

  const auto report = run_suite(pred, {{&a, "xz"}, {&b, "exch"}}, 2, opts);
  for (const auto& j : report.jobs) {
    if (j.name == "xz") {
      EXPECT_DOUBLE_EQ(j.cpi, ra.cpi());
    }
    if (j.name == "exch") {
      EXPECT_DOUBLE_EQ(j.cpi, rb.cpi());
    }
  }
}

}  // namespace
}  // namespace mlsim::core
