#include "core/cnn_predictor.h"

#include <cmath>

#include "common/check.h"
#include "common/wire.h"

namespace mlsim::core {

namespace {
// File format: the shared wire envelope (src/common/wire.h) around the
// model (tensor::put_model) and the feature scales.
constexpr std::uint32_t kBundleMagic = 0x4d4c5342u;  // "MLSB"
}  // namespace

void SimNetBundle::save(const std::filesystem::path& path) const {
  wire::Writer w;
  tensor::put_model(w, model);
  w.vec(feature_scale);
  wire::write_envelope_file(path, kBundleMagic, w.bytes());
}

SimNetBundle SimNetBundle::load(const std::filesystem::path& path) {
  std::string payload;
  if (!wire::read_envelope_file(path, kBundleMagic, payload)) {
    throw IoError("cannot open bundle: " + path.string());
  }
  wire::Reader r(payload, path.string());
  SimNetBundle b{tensor::get_model(r), r.vec<float>()};
  check(b.feature_scale.size() == trace::kNumFeatures,
        "bundle scale count mismatch: " + path.string());
  r.finish();
  return b;
}

CnnPredictor::CnnPredictor(SimNetBundle bundle, device::Engine engine)
    : net_(bundle.model), feature_scale_(std::move(bundle.feature_scale)), engine_(engine) {
  check(feature_scale_.size() == trace::kNumFeatures, "feature scale width mismatch");
}

std::uint32_t CnnPredictor::decode(float y) {
  // A NaN weight or activation must never become a plausible latency (the
  // int conversion of a NaN is garbage); report a sentinel the anomaly
  // guard is guaranteed to trip on instead.
  if (!std::isfinite(y)) [[unlikely]] return kNonFiniteLatency;
  const float v = std::expm1(std::max(y, 0.0f));
  if (!(v < 2147483648.0f)) [[unlikely]] return kNonFiniteLatency;
  return static_cast<std::uint32_t>(std::lround(std::max(v, 0.0f)));
}

void CnnPredictor::fill_input(tensor::Tensor& x, std::size_t sample,
                              const std::int32_t* window, std::size_t rows) const {
  const std::size_t W = net_.config().window;
  const std::size_t F = trace::kNumFeatures;
  check(rows == W, "window rows must match the model's window");
  float* xd = x.data() + sample * F * W;
  // Transpose instruction-major window rows into (feature, instruction).
  for (std::size_t l = 0; l < W; ++l) {
    const std::int32_t* row = window + l * F;
    for (std::size_t ci = 0; ci < F; ++ci) {
      xd[ci * W + l] = static_cast<float>(row[ci]) * feature_scale_[ci];
    }
  }
}

LatencyPrediction CnnPredictor::predict(const WindowView& window,
                                        std::uint64_t /*global_index*/) {
  tensor::Tensor x({1, trace::kNumFeatures, net_.config().window});
  fill_input(x, 0, window.data, window.rows);
  const tensor::Tensor y = net_.infer(x);
  return {decode(y.at(0)), decode(y.at(1)), decode(y.at(2))};
}

void CnnPredictor::predict_batch(const std::int32_t* windows, std::size_t batch,
                                 std::size_t rows,
                                 const std::uint64_t* /*global_indices*/,
                                 LatencyPrediction* out) {
  tensor::Tensor x({batch, trace::kNumFeatures, net_.config().window});
  for (std::size_t b = 0; b < batch; ++b) {
    fill_input(x, b, windows + b * rows * trace::kNumFeatures, rows);
  }
  const tensor::Tensor y = net_.infer(x);
  for (std::size_t b = 0; b < batch; ++b) {
    out[b] = {decode(y(b, 0)), decode(y(b, 1)), decode(y(b, 2))};
  }
}

}  // namespace mlsim::core
