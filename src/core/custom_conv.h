// Custom first convolution layer (paper §IV-A/B, Fig. 4c).
//
// Replaces the model's first Conv1D when running on the sliding-window
// queue. Instead of materialising + transposing the inference window, it
// reads the window's rows in place (instruction-major, strided) through a
// LazyWindow, injects the remaining-latency entries from the retire-clock
// ring, masks retired rows, and skips all output columns whose receptive
// field is entirely padding (on average >68% of the window, Fig. 14).
//
// The output is bit-exact with tensor::Conv1D applied to the materialised,
// transposed window (same accumulation order), which the tests assert.
#pragma once

#include "core/predictor.h"
#include "tensor/ops.h"

namespace mlsim::core {

class CustomConvLayer {
 public:
  /// Borrows the dense layer's weights (the model stays the single source
  /// of truth; pruning/quantisation apply to both paths automatically).
  explicit CustomConvLayer(const tensor::Conv1D& conv);

  /// Compute the first-layer pre-activation (1, C_out, window.rows())
  /// directly from the window's rows.
  tensor::Tensor forward(const LazyWindow& window);

  /// Output columns actually computed by the last forward (the rest were
  /// bias-only padding columns) — the Fig. 14 padding-avoidance statistic.
  std::size_t last_computed_columns() const { return computed_cols_; }

 private:
  const tensor::Conv1D& conv_;
  std::size_t computed_cols_ = 0;
};

}  // namespace mlsim::core
