#include "core/custom_conv.h"

#include <algorithm>

#include "common/check.h"

namespace mlsim::core {

CustomConvLayer::CustomConvLayer(const tensor::Conv1D& conv) : conv_(conv) {
  check(conv.in_channels() == trace::kNumFeatures,
        "custom conv expects kNumFeatures input channels");
}

tensor::Tensor CustomConvLayer::forward(const LazyWindow& window) {
  const std::size_t W = window.rows();
  const std::size_t c_out = conv_.out_channels();
  const std::size_t c_in = conv_.in_channels();
  const std::size_t k = conv_.kernel();
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(k / 2);

  check(W >= 2, "window must contain at least one context row");

  // Per-window-row latency entry, resolved once (the paper's shared-memory
  // latency vector); a context row with no entry is retired or padding.
  std::vector<std::int32_t> lat(W, 0);
  std::size_t v_last = 0;
  for (std::size_t r = 1; r < W; ++r) {
    lat[r] = window.remaining(r);
    if (lat[r] > 0) v_last = r;
  }
  // Columns whose receptive field is entirely beyond the last valid row are
  // bias-only; skip their compute.
  const std::size_t last_col =
      std::min(W - 1, v_last + static_cast<std::size_t>(pad));
  computed_cols_ = last_col + 1;

  tensor::Tensor y({1, c_out, W});
  const auto& w = conv_.weight();
  const auto& b = conv_.bias();
  float* yd = y.data();

  // Reads feature `ci` of window row `l` without materialising the window:
  // instruction-major strided access into the trace rows.
  auto value = [&](std::size_t ci, std::size_t l) -> float {
    if (l > 0 && lat[l] == 0) return 0.0f;
    if (ci == kCtxLatFeature) return static_cast<float>(lat[l]);
    return static_cast<float>(window.features(l)[ci]);
  };

  for (std::size_t co = 0; co < c_out; ++co) {
    float* yrow = yd + co * W;
    for (std::size_t l = 0; l < W; ++l) yrow[l] = b[co];
    const float* wrow = w.data() + co * c_in * k;
    for (std::size_t ci = 0; ci < c_in; ++ci) {
      const float* wk = wrow + ci * k;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float wv = wk[kk];
        if (wv == 0.0f) continue;
        const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(kk) - pad;
        const std::size_t lo = off < 0 ? static_cast<std::size_t>(-off) : 0;
        const std::size_t hi_full = off > 0 ? W - static_cast<std::size_t>(off) : W;
        // Padding avoidance: input rows beyond v_last are zero, so outputs
        // beyond last_col never receive contributions.
        const std::size_t hi = std::min(hi_full, last_col + 1);
        for (std::size_t l = lo; l < hi; ++l) {
          const std::size_t row =
              static_cast<std::size_t>(static_cast<std::ptrdiff_t>(l) + off);
          const float xv = value(ci, row);
          if (xv != 0.0f) yrow[l] += wv * xv;  // Conv1D's zero-input rule
        }
      }
    }
  }
  return y;
}

}  // namespace mlsim::core
