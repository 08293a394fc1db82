// CNN latency predictor: the trained SimNet 3C+2F model behind the
// LatencyPredictor interface.
//
// Features are normalised per-slot with scales computed from the training
// set; outputs are trained in log1p space and rounded back to integer
// cycles. The engine flavour only affects the simulated-time model (and,
// for fp16/2:4, the quantised weights used for real inference). The
// predictor keeps only the model's weights, packed once for the inference
// kernels (tensor::PackedSimNet). Prediction is const and writes no state,
// so one predictor can serve concurrent callers.
#pragma once

#include <filesystem>
#include <vector>

#include "core/predictor.h"
#include "tensor/model.h"

namespace mlsim::core {

/// Trained model plus its feature normalisation — the deployable artifact.
struct SimNetBundle {
  tensor::SimNetModel model;
  std::vector<float> feature_scale;  // kNumFeatures entries

  void save(const std::filesystem::path& path) const;
  static SimNetBundle load(const std::filesystem::path& path);
};

class CnnPredictor final : public LatencyPredictor {
 public:
  CnnPredictor(SimNetBundle bundle,
               device::Engine engine = device::Engine::kTensorRTSparse);

  LatencyPrediction predict(const WindowView& window,
                            std::uint64_t global_index) override;
  void predict_batch(const std::int32_t* windows, std::size_t batch,
                     std::size_t rows, const std::uint64_t* global_indices,
                     LatencyPrediction* out) override;

  std::size_t flops_per_window(std::size_t /*rows*/) const override {
    return net_.flops_per_window();
  }
  device::Engine engine() const override { return engine_; }

  const tensor::SimNetModelConfig& config() const { return net_.config(); }

  /// Latency substituted for a non-finite (NaN/Inf) or overflowing model
  /// output. Chosen above ParallelSimOptions::anomaly_latency_limit's
  /// default, so a poisoned model routes through the existing anomaly /
  /// graceful-degradation path instead of silently corrupting the Clock.
  static constexpr std::uint32_t kNonFiniteLatency = 1u << 24;

  /// Convert a raw model output (log1p space) to integer cycles. NaN, Inf,
  /// and values that overflow 31 bits decode to kNonFiniteLatency.
  static std::uint32_t decode(float y);

 private:
  void fill_input(tensor::Tensor& x, std::size_t sample, const std::int32_t* window,
                  std::size_t rows) const;

  tensor::PackedSimNet net_;
  std::vector<float> feature_scale_;
  device::Engine engine_;
};

}  // namespace mlsim::core
