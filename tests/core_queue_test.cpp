// Equivalence and invariant tests for the window implementations — the
// reference InstructionQueue and the zero-copy LazyWindow, including the
// windows GpuSimulator builds from it — plus bit-exactness of the custom
// convolution layer against the dense reference convolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "core/analytic_predictor.h"
#include "core/custom_conv.h"
#include "core/gpu_sim.h"
#include "core/instruction_queue.h"
#include "core/predictor.h"
#include "core/simulator.h"
#include "device/device.h"
#include "tensor/model.h"
#include "tensor/quant.h"

namespace mlsim::core {
namespace {

trace::EncodedTrace small_trace(const std::string& abbr = "xz",
                                std::size_t n = 3000) {
  return uarch::make_encoded_trace(trace::find_workload(abbr), n, {}, 1);
}

// ------------------------------------------------------- instruction queue --

TEST(InstructionQueue, FirstWindowHasOnlyCurrentRow) {
  InstructionQueue q(4);
  trace::EncodedTrace tr = small_trace("xz", 10);
  std::vector<std::int32_t> w;
  q.push_and_build(tr.features(0), w);
  ASSERT_EQ(w.size(), 5 * trace::kNumFeatures);
  for (std::size_t c = 0; c < trace::kNumFeatures; ++c) {
    EXPECT_EQ(w[c], tr.features(0)[c]);
  }
  for (std::size_t i = trace::kNumFeatures; i < w.size(); ++i) EXPECT_EQ(w[i], 0);
  EXPECT_EQ(q.context_count(), 0u);
}

TEST(InstructionQueue, ClockAndRetireSemantics) {
  InstructionQueue q(4);
  trace::EncodedTrace tr = small_trace("xz", 10);
  std::vector<std::int32_t> w;
  q.push_and_build(tr.features(0), w);
  q.apply_prediction({13, 1, 0});  // paper Fig. 1 example values
  EXPECT_EQ(q.clock(), 13u);
  EXPECT_EQ(q.last_retire_clock(), 14u);

  // Second instruction: the first is still in flight (retire 14 > clock 13)
  // with remaining latency 1.
  q.push_and_build(tr.features(1), w);
  EXPECT_EQ(w[trace::kNumFeatures + kCtxLatFeature], 1);
  q.apply_prediction({2, 1, 0});
  // Clock 15 >= retire 14: instruction 0 retires (paper iteration 2).
  q.push_and_build(tr.features(2), w);
  // Row 2 (instruction 0) must be zeroed.
  for (std::size_t c = 0; c < trace::kNumFeatures; ++c) {
    EXPECT_EQ(w[2 * trace::kNumFeatures + c], 0);
  }
}

TEST(InstructionQueue, PendingProtocolEnforced) {
  InstructionQueue q(4);
  trace::EncodedTrace tr = small_trace("xz", 4);
  std::vector<std::int32_t> w;
  EXPECT_THROW(q.apply_prediction({1, 1, 0}), CheckError);
  q.push_and_build(tr.features(0), w);
  EXPECT_THROW(q.push_and_build(tr.features(1), w), CheckError);
}

TEST(InstructionQueue, RemainingLatencyClamped) {
  InstructionQueue q(2);
  trace::EncodedTrace tr = small_trace("xz", 4);
  std::vector<std::int32_t> w;
  q.push_and_build(tr.features(0), w);
  q.apply_prediction({0, 100000, 0});
  q.push_and_build(tr.features(1), w);
  EXPECT_EQ(w[trace::kNumFeatures + kCtxLatFeature], kMaxLatencyEntry);
}

TEST(InstructionQueue, ResetRestoresInitialState) {
  InstructionQueue q(4);
  trace::EncodedTrace tr = small_trace("xz", 4);
  std::vector<std::int32_t> w;
  q.push_and_build(tr.features(0), w);
  q.apply_prediction({5, 5, 0});
  q.reset();
  EXPECT_EQ(q.clock(), 0u);
  EXPECT_EQ(q.context_count(), 0u);
  EXPECT_EQ(q.total_cycles_with_drain(), 0u);
}

// ---------------------------------------- sliding window equivalence (key) --

// Checks every window GpuSimulator hands its predictor against the reference
// queue fed the same instructions and predictions.
class ReferenceCheckedPredictor final : public LatencyPredictor {
 public:
  ReferenceCheckedPredictor(const trace::EncodedTrace& tr, std::size_t ctx_len)
      : trace_(tr), ref_(ctx_len) {}

  LatencyPrediction predict(const WindowView& w, std::uint64_t i) override {
    // Counted before the push admits the instruction, like the engines do.
    ref_counts.push_back(static_cast<std::uint16_t>(ref_.context_count()));
    ref_.push_and_build(trace_.features(i), want_);
    if (first_mismatch == kNone &&
        (w.rows * trace::kNumFeatures != want_.size() ||
         !std::equal(want_.begin(), want_.end(), w.data))) {
      first_mismatch = i;
    }
    const LatencyPrediction p = analytic_.predict(w, i);
    ref_.apply_prediction(p);
    return p;
  }
  std::size_t flops_per_window(std::size_t) const override { return 0; }

  static constexpr std::uint64_t kNone = ~std::uint64_t{0};
  std::uint64_t first_mismatch = kNone;
  std::vector<std::uint16_t> ref_counts;
  const InstructionQueue& reference() const { return ref_; }

 private:
  const trace::EncodedTrace& trace_;
  InstructionQueue ref_;
  AnalyticPredictor analytic_;
  std::vector<std::int32_t> want_;
};

class QueueEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t, std::size_t>> {
};

TEST_P(QueueEquivalence, SlidingWindowMatchesReferenceExactly) {
  const auto [abbr, ctx_len, batch_n] = GetParam();
  trace::EncodedTrace tr = small_trace(abbr, 2500);
  ReferenceCheckedPredictor pred(tr, ctx_len);

  device::Device dev;
  GpuSimOptions o;  // the full §IV stack: GIC + SWIQ + CC + PS
  o.context_length = ctx_len;
  o.batch_n = batch_n;
  o.record_context_counts = true;
  const SimOutput out = GpuSimulator(pred, dev, o).run(tr);

  EXPECT_EQ(pred.first_mismatch, ReferenceCheckedPredictor::kNone)
      << "window mismatch at instruction " << pred.first_mismatch;
  EXPECT_EQ(out.context_counts, pred.ref_counts);
  EXPECT_EQ(out.cycles, pred.reference().total_cycles_with_drain());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueueEquivalence,
    ::testing::Combine(::testing::Values("xz", "mcf", "lbm"),
                       ::testing::Values(std::size_t{8}, std::size_t{32}),
                       ::testing::Values(std::size_t{1}, std::size_t{5},
                                         std::size_t{16})));

TEST(LazyWindowEquivalence, MatchesReferenceQueueWindows) {
  const std::size_t ctx = 16;
  trace::EncodedTrace tr = small_trace("xz", 2000);
  AnalyticPredictor pred;

  InstructionQueue ref(ctx);
  std::vector<std::uint64_t> ring(ctx, 0);
  std::uint64_t clock = 0;

  std::vector<std::int32_t> wr, wl;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    const std::size_t ref_count_before = ref.context_count();
    ref.push_and_build(tr.features(i), wr);
    const LazyWindow lw(tr, i, 0, ring.data(), ring.size(), clock, ctx + 1);
    lw.materialize(wl);
    ASSERT_EQ(wr, wl) << "lazy window mismatch at " << i;
    ASSERT_EQ(lw.context_count(), ref_count_before);

    const LatencyPrediction p = pred.predict(WindowView{wr.data(), ctx + 1}, i);
    // Lazy predictions agree with dense predictions on identical windows.
    ASSERT_EQ(pred.predict_lazy(lw), p) << "prediction mismatch at " << i;

    ref.apply_prediction(p);
    ring[i % ring.size()] = clock + p.fetch + p.exec + p.store;
    clock += p.fetch;
    ASSERT_EQ(ref.clock(), clock);
  }
}

// The per-row definition LazyWindow's scan must reproduce: row r is live iff
// 0 < r < rows, trace row current - r is within the history (>= oldest) and
// its retire clock, at ring slot (current - r) % cap, is past the clock.
std::int32_t reference_remaining(std::uint64_t current, std::uint64_t oldest,
                                 const std::vector<std::uint64_t>& ring,
                                 std::uint64_t clock, std::size_t rows,
                                 std::size_t r) {
  if (r == 0 || r >= rows || current < oldest + r) return 0;
  const std::uint64_t retire = ring[(current - r) % ring.size()];
  if (retire <= clock) return 0;
  return static_cast<std::int32_t>(
      std::min<std::uint64_t>(retire - clock, kMaxLatencyEntry));
}

TEST(LazyWindowScan, MatchesModuloReference) {
  const trace::EncodedTrace tr = small_trace("xz", 3200);
  const std::size_t F = trace::kNumFeatures;
  const std::uint64_t clock = 1'000'000;
  // Retired, just retired, 1 cycle left, the 255 cap, just over it, far off.
  const std::uint64_t retire_values[] = {clock - 1,   clock,
                                         clock + 1,   clock + 255,
                                         clock + 256, clock + 1'000'000};
  Rng rng(18);
  std::vector<std::uint64_t> ring;
  std::vector<std::int32_t> got, want;
  for (const std::size_t rows : {1u, 2u, 17u, 65u}) {
    // rows - 1 is the smallest legal ring; the trainer passes a whole trace.
    for (const std::size_t cap :
         {std::max<std::size_t>(rows - 1, 1), rows + 5, std::size_t{1000}}) {
      // Every index below rows, then both sides of three ring wraps.
      std::set<std::uint64_t> currents;
      for (std::uint64_t c = 0; c <= rows; ++c) currents.insert(c);
      for (std::uint64_t k = 1; k <= 3; ++k) {
        for (std::uint64_t c = k * cap - 1; c <= k * cap + rows; ++c) {
          currents.insert(c);
        }
      }
      for (const std::uint64_t current : currents) {
        ring.resize(cap);
        for (auto& v : ring) {
          v = retire_values[rng.next_below(std::size(retire_values))];
        }
        std::vector<std::uint64_t> oldests{0, current};
        for (std::size_t r = 1; r <= rows && r <= current; ++r) {
          oldests.push_back(current - r);
        }
        for (const std::uint64_t oldest : oldests) {
          SCOPED_TRACE(::testing::Message()
                       << "rows " << rows << " cap " << cap << " current "
                       << current << " oldest " << oldest);
          const LazyWindow lw(tr, current, oldest, ring.data(), cap, clock,
                              rows);
          std::size_t count = 0;
          want.assign(rows * F, 0);
          std::copy_n(tr.features(current).data(), F, want.data());
          for (std::size_t r = 0; r <= rows + 1; ++r) {
            const std::int32_t rem =
                reference_remaining(current, oldest, ring, clock, rows, r);
            ASSERT_EQ(lw.remaining(r), rem) << "row " << r;
            if (rem > 0) {
              ++count;
              std::copy_n(tr.features(current - r).data(), F,
                          want.data() + r * F);
              want[r * F + kCtxLatFeature] = rem;
            }
          }
          ASSERT_EQ(lw.context_count(), count);
          got.assign(rows * F, -1);
          lw.materialize_to(got.data());
          ASSERT_EQ(got, want);
        }
      }
    }
  }
}

// -------------------------------------------------- custom conv bit-exact --

// conv1 of the dense model on the transposed, materialised window `w`.
tensor::Tensor dense_conv1(tensor::SimNetModel& model,
                           const std::vector<std::int32_t>& w, std::size_t rows) {
  tensor::Tensor x({1, trace::kNumFeatures, rows});
  for (std::size_t l = 0; l < rows; ++l) {
    for (std::size_t c = 0; c < trace::kNumFeatures; ++c) {
      x(0, c, l) = static_cast<float>(w[l * trace::kNumFeatures + c]);
    }
  }
  return model.conv1().forward(x);
}

class CustomConvBitExact : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CustomConvBitExact, MatchesDenseConvOnTransposedWindow) {
  const std::size_t ctx = GetParam();
  trace::EncodedTrace tr = small_trace("xz", 600);
  AnalyticPredictor pred;

  tensor::SimNetModelConfig mcfg;
  mcfg.in_features = trace::kNumFeatures;
  mcfg.window = ctx + 1;
  mcfg.channels = 8;
  mcfg.hidden = 8;
  tensor::SimNetModel model(mcfg, 11);
  CustomConvLayer custom(model.conv1());

  std::vector<std::uint64_t> ring(ctx, 0);
  std::uint64_t clock = 0;
  std::vector<std::int32_t> w;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    const LazyWindow lw(tr, i, 0, ring.data(), ring.size(), clock, ctx + 1);
    lw.materialize(w);

    const tensor::Tensor dense = dense_conv1(model, w, ctx + 1);
    const tensor::Tensor fast = custom.forward(lw);
    ASSERT_EQ(dense.shape(), fast.shape());
    for (std::size_t k = 0; k < dense.numel(); ++k) {
      ASSERT_EQ(dense.at(k), fast.at(k))
          << "element " << k << " differs at instruction " << i;
    }
    ++checked;

    const LatencyPrediction p = pred.predict(WindowView{w.data(), ctx + 1}, i);
    ring[i % ring.size()] = clock + p.fetch + p.exec + p.store;
    clock += p.fetch;
  }
  EXPECT_EQ(checked, tr.size());
}

INSTANTIATE_TEST_SUITE_P(ContextLengths, CustomConvBitExact,
                         ::testing::Values(std::size_t{7}, std::size_t{15},
                                           std::size_t{31}));

TEST(CustomConv, SkipsPaddingColumns) {
  const std::size_t ctx = 31;
  trace::EncodedTrace tr = small_trace("xz", 50);
  tensor::SimNetModelConfig mcfg;
  mcfg.in_features = trace::kNumFeatures;
  mcfg.window = ctx + 1;
  mcfg.channels = 4;
  tensor::SimNetModel model(mcfg, 3);
  CustomConvLayer custom(model.conv1());

  const std::vector<std::uint64_t> ring(ctx, 0);
  custom.forward(LazyWindow(tr, 0, 0, ring.data(), ring.size(), 0, ctx + 1));
  // First instruction: only row 0 valid -> only a couple of columns computed.
  EXPECT_LE(custom.last_computed_columns(), 2u);
  EXPECT_LT(custom.last_computed_columns(), ctx + 1);
}

TEST(CustomConv, WorksWithPrunedWeights) {
  const std::size_t ctx = 7;
  trace::EncodedTrace tr = small_trace("xz", 30);
  tensor::SimNetModelConfig mcfg;
  mcfg.in_features = trace::kNumFeatures;
  mcfg.window = ctx + 1;
  mcfg.channels = 4;
  tensor::SimNetModel model(mcfg, 5);
  // Prune first: the custom layer must match the dense layer with zeros.
  tensor::prune_2to4_inplace(model.conv1().weight());
  CustomConvLayer custom(model.conv1());

  const std::vector<std::uint64_t> ring(ctx, 0);
  const LazyWindow lw(tr, 0, 0, ring.data(), ring.size(), 0, ctx + 1);
  std::vector<std::int32_t> w;
  lw.materialize(w);
  const tensor::Tensor dense = dense_conv1(model, w, ctx + 1);
  const tensor::Tensor fast = custom.forward(lw);
  for (std::size_t k = 0; k < dense.numel(); ++k) {
    ASSERT_EQ(dense.at(k), fast.at(k));
  }
}

}  // namespace
}  // namespace mlsim::core
