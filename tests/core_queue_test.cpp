// Equivalence and invariant tests for the three window/queue
// implementations — the reference InstructionQueue, the device-resident
// SlidingWindowQueue, and the zero-copy LazyWindow — plus bit-exactness of
// the custom convolution layer against the dense reference convolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "core/analytic_predictor.h"
#include "core/custom_conv.h"
#include "core/instruction_queue.h"
#include "core/predictor.h"
#include "core/sliding_window.h"
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

class QueueEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t, std::size_t>> {
};

TEST_P(QueueEquivalence, SlidingWindowMatchesReferenceExactly) {
  const auto [abbr, ctx_len, batch_n] = GetParam();
  trace::EncodedTrace tr = small_trace(abbr, 2500);
  AnalyticPredictor pred;

  InstructionQueue ref(ctx_len);
  device::Device dev;
  SlidingWindowQueue swq(ctx_len, batch_n, dev, 0);

  std::vector<std::int32_t> wr, ws;
  std::size_t next = 0;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    if (swq.needs_refill()) {
      next += swq.refill(tr.raw_features().data() + next * trace::kNumFeatures,
                         tr.size() - next);
    }
    // Context counts compared at the same protocol point: candidates of the
    // instruction about to be simulated (before the reference push admits it).
    const std::size_t ref_count_before = ref.context_count();
    ASSERT_EQ(ref_count_before, swq.context_count()) << "at " << i;
    ref.push_and_build(tr.features(i), wr);
    swq.build_window(ws);
    ASSERT_EQ(wr, ws) << "window mismatch at instruction " << i;

    const LatencyPrediction p =
        pred.predict(WindowView{wr.data(), ctx_len + 1}, i);
    ref.apply_prediction(p);
    swq.apply_prediction(p);
    ASSERT_EQ(ref.clock(), swq.clock()) << "clock diverged at " << i;
  }
  EXPECT_EQ(ref.total_cycles_with_drain(), swq.total_cycles_with_drain());
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

TEST(SlidingWindow, RefillProtocolChecks) {
  device::Device dev;
  SlidingWindowQueue q(4, 2, dev, 0);
  trace::EncodedTrace tr = small_trace("xz", 10);
  std::vector<std::int32_t> scratch;
  EXPECT_THROW(q.build_window(scratch), CheckError);
  const std::size_t staged =
      q.refill(tr.raw_features().data(), tr.size());
  EXPECT_EQ(staged, 3u);  // N + 1
  EXPECT_THROW(q.refill(tr.raw_features().data(), 1), CheckError);
}

TEST(SlidingWindow, AccountsH2DOnRefill) {
  device::Device dev;
  SlidingWindowQueue q(4, 2, dev, 0, /*account_costs=*/true);
  trace::EncodedTrace tr = small_trace("xz", 10);
  q.refill(tr.raw_features().data(), tr.size());
  EXPECT_GT(dev.record(0), 0.0);

  device::Device dev2;
  SlidingWindowQueue q2(4, 2, dev2, 0, /*account_costs=*/false);
  q2.refill(tr.raw_features().data(), tr.size());
  EXPECT_DOUBLE_EQ(dev2.record(0), 0.0);
}

// -------------------------------------------------- custom conv bit-exact --

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

  device::Device dev;
  SlidingWindowQueue q(ctx, 4, dev, 0);
  std::vector<std::int32_t> w;
  std::size_t next = 0;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    if (q.needs_refill()) {
      next += q.refill(tr.raw_features().data() + next * trace::kNumFeatures,
                       tr.size() - next);
    }
    q.build_window(w);

    // Dense reference: transpose the materialised window, run conv1.
    tensor::Tensor x({1, trace::kNumFeatures, ctx + 1});
    for (std::size_t l = 0; l <= ctx; ++l) {
      for (std::size_t c = 0; c < trace::kNumFeatures; ++c) {
        x(0, c, l) = static_cast<float>(w[l * trace::kNumFeatures + c]);
      }
    }
    const tensor::Tensor dense = model.conv1().forward(x);
    const tensor::Tensor fast = custom.forward(q);
    ASSERT_EQ(dense.shape(), fast.shape());
    for (std::size_t k = 0; k < dense.numel(); ++k) {
      ASSERT_EQ(dense.at(k), fast.at(k))
          << "element " << k << " differs at instruction " << i;
    }
    ++checked;

    const LatencyPrediction p = pred.predict(WindowView{w.data(), ctx + 1}, i);
    q.apply_prediction(p);
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

  device::Device dev;
  SlidingWindowQueue q(ctx, 4, dev, 0);
  q.refill(tr.raw_features().data(), tr.size());
  std::vector<std::int32_t> w;
  q.build_window(w);
  custom.forward(q);
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

  device::Device dev;
  SlidingWindowQueue q(ctx, 2, dev, 0);
  q.refill(tr.raw_features().data(), tr.size());
  std::vector<std::int32_t> w;
  q.build_window(w);

  tensor::Tensor x({1, trace::kNumFeatures, ctx + 1});
  for (std::size_t l = 0; l <= ctx; ++l) {
    for (std::size_t c = 0; c < trace::kNumFeatures; ++c) {
      x(0, c, l) = static_cast<float>(w[l * trace::kNumFeatures + c]);
    }
  }
  const tensor::Tensor dense = model.conv1().forward(x);
  const tensor::Tensor fast = custom.forward(q);
  for (std::size_t k = 0; k < dense.numel(); ++k) {
    ASSERT_EQ(dense.at(k), fast.at(k));
  }
}

}  // namespace
}  // namespace mlsim::core
