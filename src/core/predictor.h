// Latency-predictor interface plus the oracle reference implementation.
//
// Implementations:
//   - AnalyticPredictor (analytic_predictor.h): deterministic, context-
//     sensitive model mirroring the OoO machine's latency algebra; fast
//     enough for multi-million-instruction parallel-error studies.
//   - CnnPredictor (cnn_predictor.h): the trained SimNet 3C+2F network.
//   - OraclePredictor (below): replays ground-truth labels by instruction
//     index; context-independent by construction, so it is the negative
//     control for parallel-simulation error (partitioning must produce
//     exactly zero error with it).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/window.h"
#include "device/gpu_spec.h"
#include "trace/trace.h"

namespace mlsim::core {

/// Zero-copy window view over a trace plus a ring of retire clocks.
///
/// Context row r of instruction i is trace row i-r; a row is in flight iff
/// its retire clock (ring) is > Clock and i-r is within the available
/// history (>= oldest). materialize() produces exactly the window
/// InstructionQueue::push_and_build builds, so predictors without a lazy
/// fast path see identical inputs.
///
/// The constructor resolves instruction i's ring slot once; a row lookup is
/// then an inline compare and subtraction (docs/INTERNALS.md, "Window
/// semantics").
class LazyWindow {
 public:
  /// `first_index` is the trace-global index of `tr`'s row 0: nonzero only
  /// for a buffer that has dropped rows from its front (streaming).
  LazyWindow(const trace::EncodedTrace& tr, std::uint64_t current,
             std::uint64_t oldest, const std::uint64_t* retire_ring,
             std::size_t ring_capacity, std::uint64_t clock, std::size_t rows,
             std::uint64_t first_index = 0);

  std::size_t rows() const { return rows_; }
  /// Trace-global index of the current instruction.
  std::uint64_t current_index() const { return first_index_ + current_; }

  /// Remaining latency of context row r (>=1); 0 if padding or retired.
  std::int32_t remaining(std::size_t r) const {
    // r - 1 wraps for r == 0, so one compare rejects row 0, rows past the
    // window and rows past the history.
    if (r - 1 >= history_) return 0;
    // r <= history_ <= ring_cap_, so at most one wrap below slot 0.
    std::size_t slot = slot_ - r;
    if (slot >= ring_cap_) slot += ring_cap_;
    const std::uint64_t retire = ring_[slot];
    if (retire <= clock_) return 0;  // retired
    return static_cast<std::int32_t>(
        std::min<std::uint64_t>(retire - clock_, kMaxLatencyEntry));
  }

  /// Static features of row r (r = 0 is the current instruction). Only
  /// valid for r == 0 or rows with remaining(r) > 0.
  std::span<const std::int32_t> features(std::size_t r) const {
    return trace_.features(current_ - r);
  }

  /// Build the dense window (rows x kNumFeatures, zero-padded, latency
  /// entries injected).
  void materialize(std::vector<std::int32_t>& out) const;

  /// Same, into caller-provided storage of rows()*kNumFeatures entries
  /// (used by the lockstep engine to fill batch buffers in place).
  void materialize_to(std::int32_t* out) const;

  /// In-flight population among the context rows.
  std::size_t context_count() const;

 private:
  const trace::EncodedTrace& trace_;
  std::uint64_t current_;      // row of `trace_` being predicted
  std::uint64_t first_index_;
  const std::uint64_t* ring_;
  std::size_t ring_cap_;
  std::size_t slot_;     // current_ % ring_cap_
  std::size_t history_;  // context rows with history: min(rows-1, current-oldest)
  std::uint64_t clock_;
  std::size_t rows_;
};

class LatencyPredictor {
 public:
  virtual ~LatencyPredictor() = default;

  /// Predict the three latencies of the instruction in window row 0.
  /// `global_index` is the instruction's index in the full trace (used only
  /// by the oracle; ML predictors ignore it).
  virtual LatencyPrediction predict(const WindowView& window,
                                    std::uint64_t global_index) = 0;

  /// Batched prediction (default: loop). Batch layout: `batch` consecutive
  /// windows of `rows` rows each.
  virtual void predict_batch(const std::int32_t* windows, std::size_t batch,
                             std::size_t rows, const std::uint64_t* global_indices,
                             LatencyPrediction* out);

  /// Lazy-window prediction. The default materialises the window into a
  /// buffer of its own and calls predict(), so it is as safe to call
  /// concurrently as predict() is; predictors that can read the queue in
  /// place (the analytic model — and, on real hardware, the custom
  /// convolution path) override this to skip the copy.
  virtual LatencyPrediction predict_lazy(const LazyWindow& window);

  /// FLOPs per single-window inference (drives the device cost model;
  /// 0 for non-neural predictors).
  virtual std::size_t flops_per_window(std::size_t rows) const = 0;

  /// Which device inference engine this predictor models.
  virtual device::Engine engine() const { return device::Engine::kTensorRT; }
};

/// Replays ground-truth labels from a labeled trace.
class OraclePredictor final : public LatencyPredictor {
 public:
  explicit OraclePredictor(const trace::EncodedTrace& labeled);

  LatencyPrediction predict(const WindowView& window,
                            std::uint64_t global_index) override;
  LatencyPrediction predict_lazy(const LazyWindow& window) override {
    return predict(WindowView{}, window.current_index());
  }
  std::size_t flops_per_window(std::size_t /*rows*/) const override { return 0; }

 private:
  const trace::EncodedTrace& trace_;
};

}  // namespace mlsim::core
