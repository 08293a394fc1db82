// SimNet "3C+2F" latency-prediction model: three Conv1D layers followed by
// two fully-connected layers. Input is a (batch, features, window) tensor —
// window = context_length + 1 instructions, the first position being the
// to-be-predicted instruction. Output is (batch, 3): the fetch / execute /
// store latencies (trained in log1p space for the heavy-tailed targets).
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace mlsim::wire {
class Reader;
class Writer;
}  // namespace mlsim::wire

namespace mlsim::tensor {

struct SimNetModelConfig {
  std::size_t in_features = 50;
  std::size_t window = 112;  // context_length + 1 (paper: 111 + 1)
  std::size_t channels = 64; // first-layer channels (paper: 64)
  std::size_t hidden = 128;
  std::size_t kernel = 3;
  std::size_t outputs = 3;

  bool operator==(const SimNetModelConfig&) const = default;
};

class SimNetModel {
 public:
  explicit SimNetModel(const SimNetModelConfig& cfg, std::uint64_t seed = 42);

  const SimNetModelConfig& config() const { return cfg_; }

  /// Full forward pass: (B, F, W) -> (B, outputs). Training path: every
  /// layer caches its input for backward().
  Tensor forward(const Tensor& x);

  /// Inference: bit-identical outputs to forward(), but const — no layer
  /// state is written, so concurrent callers may share one model. Packs the
  /// weights on every call; PackedSimNet packs them once.
  Tensor infer(const Tensor& x) const;

  /// Tail of the network given the *pre-activation* output of conv1
  /// (B, channels, W). Used to splice in the custom convolution layer that
  /// replaces conv1 on the device (paper §IV-A/§IV-B).
  Tensor forward_tail(const Tensor& conv1_preact);

  /// Backward pass for training; `grad_out` is d(loss)/d(output).
  void backward(const Tensor& grad_out);

  std::vector<Param> params();
  void zero_grad();

  Conv1D& conv1() { return *conv1_; }
  Conv1D& conv2() { return *conv2_; }
  Conv1D& conv3() { return *conv3_; }
  Linear& fc1() { return *fc1_; }
  Linear& fc2() { return *fc2_; }
  const Conv1D& conv1() const { return *conv1_; }
  const Conv1D& conv2() const { return *conv2_; }
  const Conv1D& conv3() const { return *conv3_; }
  const Linear& fc1() const { return *fc1_; }
  const Linear& fc2() const { return *fc2_; }

  /// FLOPs of one forward pass for a batch of `batch` windows.
  std::size_t flops_per_batch(std::size_t batch) const;

 private:
  SimNetModelConfig cfg_;
  std::unique_ptr<Conv1D> conv1_, conv2_, conv3_;
  std::unique_ptr<ReLU> relu1_, relu2_, relu3_, relu4_;
  std::unique_ptr<Linear> fc1_, fc2_;
};

/// Append `m` to a payload: its config's six dimensions, then the ten
/// parameter vectors (weight and bias of conv1..conv3, fc1, fc2).
void put_model(wire::Writer& w, const SimNetModel& m);
/// Read a put_model payload. Throws CheckError for one that is not a
/// well-formed model, before allocating anything sized by its config.
SimNetModel get_model(wire::Reader& r);

/// A SimNet's inference path with every layer's weights packed once into
/// the forward kernels' layout (ops.h): what a deployed predictor keeps in
/// place of the trainable model. infer() fuses each ReLU into the store of
/// the layer before it.
class PackedSimNet {
 public:
  explicit PackedSimNet(const SimNetModel& model);

  const SimNetModelConfig& config() const { return cfg_; }

  /// (B, F, W) -> (B, outputs), bit-identical to SimNetModel::infer.
  Tensor infer(const Tensor& x) const;

  /// Dense FLOPs of one window (SimNetModel::flops_per_batch(1)): the
  /// modeled device runs the dense network whatever the host skips.
  std::size_t flops_per_window() const { return flops_per_window_; }

 private:
  SimNetModelConfig cfg_;
  ConvWeights conv1_, conv2_, conv3_;
  LinearWeights fc1_, fc2_;
  std::size_t flops_per_window_;
};

}  // namespace mlsim::tensor
