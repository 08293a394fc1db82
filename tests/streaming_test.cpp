// Tests for the scale features: streaming trace generation + streaming
// simulation (bounded memory), compressed trace files, machine presets.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/analytic_predictor.h"
#include "core/metrics.h"
#include "core/parallel_sim.h"
#include "core/simulator.h"
#include "core/streaming.h"
#include "uarch/ground_truth.h"
#include "uarch/presets.h"

namespace mlsim {
namespace {

// --------------------------------------------------------- trace stream ---

TEST(TraceStream, MatchesBatchGeneration) {
  const auto& wl = trace::find_workload("xz");
  const auto batch = uarch::make_encoded_trace(wl, 5000, {}, 7);

  uarch::LabeledTraceStream stream(wl, {}, 7);
  trace::EncodedTrace streamed("xz");
  // Uneven chunk sizes must not change anything.
  for (const std::size_t chunk : {1000u, 1u, 999u, 3000u}) {
    stream.fill(streamed, chunk);
  }
  ASSERT_EQ(streamed.size(), 5000u);
  EXPECT_EQ(streamed.raw_features(), batch.raw_features());
  EXPECT_EQ(streamed.raw_targets(), batch.raw_targets());
  EXPECT_EQ(stream.generated(), 5000u);
}

TEST(TraceStream, UnboundedAndDeterministic) {
  const auto& wl = trace::find_workload("perl");
  uarch::LabeledTraceStream a(wl, {}, 3), b(wl, {}, 3);
  trace::EncodedTrace ta("p"), tb("p");
  a.fill(ta, 2000);
  b.fill(tb, 2000);
  EXPECT_EQ(ta.raw_features(), tb.raw_features());
}

// ------------------------------------------------- streaming simulation ---

TEST(StreamingSim, MatchesMaterializedSimulationExactly) {
  const auto& wl = trace::find_workload("mcf");
  const std::size_t n = 6000, ctx = 32;

  // Reference: materialise everything, simulate sequentially.
  const auto tr = uarch::make_encoded_trace(wl, n, {}, 5);
  core::AnalyticPredictor pred;
  core::ParallelSimOptions o;
  o.num_subtraces = 1;
  o.context_length = ctx;
  const auto ref = core::ParallelSimulator(pred, o).run(tr);

  // Streaming with a tiny chunk: bounded memory, same result.
  uarch::LabeledTraceStream stream(wl, {}, 5);
  const auto res = core::simulate_stream(pred, stream, n, ctx, /*chunk=*/257);
  EXPECT_EQ(res.instructions, n);
  EXPECT_EQ(res.predicted_cycles, ref.total_cycles);
  EXPECT_EQ(res.truth_cycles, core::total_cycles_from_targets(tr));
}

TEST(StreamingSim, ChunkSizeInvariant) {
  const auto& wl = trace::find_workload("xz");
  core::AnalyticPredictor pred;
  std::uint64_t first = 0;
  for (const std::size_t chunk : {64u, 1000u, 4096u}) {
    uarch::LabeledTraceStream stream(wl, {}, 11);
    const auto res = core::simulate_stream(pred, stream, 3000, 16, chunk);
    if (first == 0) {
      first = res.predicted_cycles;
    } else {
      EXPECT_EQ(res.predicted_cycles, first) << "chunk " << chunk;
    }
  }
}

// The oracle replays labels by the window's trace-global index, so it only
// reproduces the truth if that index survives the buffer's compactions.
TEST(StreamingSim, OracleReplaysLabelsAcrossCompactions) {
  const std::size_t n = 5000;
  const auto labels = core::labeled_trace("xz", n, {}, 1, /*use_cache=*/false);
  core::OraclePredictor oracle(labels);
  for (const std::size_t chunk : {500u, 1000u, 5000u}) {
    uarch::LabeledTraceStream stream(trace::find_workload("xz"), {}, 1);
    const auto res = core::simulate_stream(oracle, stream, n, 16, chunk);
    EXPECT_EQ(res.truth_cycles, core::total_cycles_from_targets(labels));
    EXPECT_EQ(res.predicted_cycles, res.truth_cycles) << "chunk " << chunk;
  }
}

TEST(StreamingSim, ZeroInstructionsIsEmpty) {
  const auto& wl = trace::find_workload("xz");
  uarch::LabeledTraceStream stream(wl);
  core::AnalyticPredictor pred;
  const auto res = core::simulate_stream(pred, stream, 0, 16);
  EXPECT_EQ(res.instructions, 0u);
  EXPECT_EQ(res.cpi(), 0.0);
}

// ----------------------------------------------------------- compression ---

TEST(TraceCompression, RoundTripAndSmaller) {
  const auto tr = uarch::make_encoded_trace(trace::find_workload("mcf"), 5000);
  const auto packed_path = std::filesystem::temp_directory_path() / "mlsim_packed.bin";
  tr.save(packed_path);

  const std::size_t raw_size = tr.raw_features().size() * sizeof(std::int32_t) +
                               tr.raw_targets().size() * sizeof(std::uint32_t);
  const auto packed_size = std::filesystem::file_size(packed_path);
  EXPECT_LT(packed_size, raw_size / 3);  // typically 5-8x smaller

  const auto back = trace::EncodedTrace::load(packed_path);
  ASSERT_EQ(back.size(), tr.size());
  EXPECT_EQ(back.raw_features(), tr.raw_features());
  EXPECT_EQ(back.raw_targets(), tr.raw_targets());
  EXPECT_EQ(back.benchmark(), tr.benchmark());
  EXPECT_EQ(back.labeled(), tr.labeled());

  std::filesystem::remove(packed_path);
}

TEST(TraceCompression, HandlesNegativeAndLargeValues) {
  trace::EncodedTrace tr("edge");
  trace::FeatureVector f{};
  f[0] = -123;
  f[10] = 1'000'000;
  f[trace::kNumFeatures - 1] = -1;
  tr.append(f, 4'000'000'000u, 7, 0);
  const auto path = std::filesystem::temp_directory_path() / "mlsim_edge.bin";
  tr.save(path);
  const auto back = trace::EncodedTrace::load(path);
  EXPECT_EQ(back.features(0)[0], -123);
  EXPECT_EQ(back.features(0)[10], 1'000'000);
  EXPECT_EQ(back.features(0)[trace::kNumFeatures - 1], -1);
  EXPECT_EQ(back.targets(0)[0], 4'000'000'000u);
  std::filesystem::remove(path);
}

// --------------------------------------------------------------- presets ---

TEST(Presets, CoreOrderingByCpi) {
  // The same workload runs slower on the little core and faster on the big
  // core than on Table II.
  const auto& wl = trace::find_workload("xz");
  const double little =
      uarch::generate_labeled_trace(wl, 30000, uarch::little_core()).cpi();
  const double table2 =
      uarch::generate_labeled_trace(wl, 30000, uarch::table2()).cpi();
  const double big =
      uarch::generate_labeled_trace(wl, 30000, uarch::big_core()).cpi();
  EXPECT_GT(little, table2);
  EXPECT_LT(big, table2);
}

TEST(Presets, AllPresetsSimulateEndToEnd) {
  for (const auto& m : {uarch::table2(), uarch::little_core(), uarch::big_core(),
                        uarch::a64fx_like()}) {
    const auto tr = core::labeled_trace("perl", 5000, m, 1, false);
    core::MLSimulator::Options opts;
    opts.machine = m;
    core::MLSimulator sim(opts);
    const auto out = sim.simulate(tr);
    EXPECT_EQ(out.instructions, tr.size());
    EXPECT_GT(out.cycles, 0u);
  }
}

}  // namespace
}  // namespace mlsim
