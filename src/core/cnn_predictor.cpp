#include "core/cnn_predictor.h"

#include <cmath>
#include <fstream>

#include "common/check.h"

namespace mlsim::core {

namespace {
constexpr std::uint32_t kBundleMagic = 0x4d4c424eu;  // "MLBN"
}

void SimNetBundle::save(const std::filesystem::path& path) const {
  model.save(path);
  std::ofstream os(path, std::ios::binary | std::ios::app);
  check(os.is_open(), "cannot append scales to bundle: " + path.string());
  os.write(reinterpret_cast<const char*>(&kBundleMagic), sizeof(kBundleMagic));
  const auto n = static_cast<std::uint64_t>(feature_scale.size());
  os.write(reinterpret_cast<const char*>(&n), sizeof(n));
  os.write(reinterpret_cast<const char*>(feature_scale.data()),
           static_cast<std::streamsize>(feature_scale.size() * sizeof(float)));
  check(static_cast<bool>(os), "bundle write failed");
}

SimNetBundle SimNetBundle::load(const std::filesystem::path& path) {
  tensor::SimNetModel model = tensor::SimNetModel::load(path);
  // The scales trailer sits after the model payload; re-open and seek by
  // re-reading the model region is fragile, so we scan from the end: the
  // trailer is magic + count + floats.
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  check(is.is_open(), "cannot open bundle: " + path.string());
  const auto file_size = static_cast<std::uint64_t>(is.tellg());
  const std::uint64_t n_features = trace::kNumFeatures;
  const std::uint64_t trailer =
      sizeof(kBundleMagic) + sizeof(std::uint64_t) + n_features * sizeof(float);
  check(file_size > trailer, "bundle file too small");
  is.seekg(static_cast<std::streamoff>(file_size - trailer));
  std::uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  check(magic == kBundleMagic, "bad bundle trailer magic");
  std::uint64_t n = 0;
  is.read(reinterpret_cast<char*>(&n), sizeof(n));
  check(n == n_features, "bundle scale count mismatch");
  SimNetBundle b{std::move(model), std::vector<float>(n_features, 1.0f)};
  is.read(reinterpret_cast<char*>(b.feature_scale.data()),
          static_cast<std::streamsize>(n_features * sizeof(float)));
  check(static_cast<bool>(is), "bundle trailer truncated");
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
