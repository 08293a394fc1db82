// Trainable layers: Conv1D ("same" zero padding), Linear, ReLU.
//
// Hand-written forward/backward (no autograd): each layer caches its last
// input and exposes parameter/gradient buffers to the optimiser. Layers
// operate on batched tensors:
//   Conv1D : (B, C_in, L)  -> (B, C_out, L)
//   Linear : (B, N_in)     -> (B, N_out)
//   ReLU   : elementwise.
//
// Forward runs one zero-skipping kernel per layer type on the layer's
// weights packed with output channels contiguous (ConvWeights,
// LinearWeights). Conv1D and Linear pack them on every forward()/infer()
// call; a deployed model packs them once (PackedSimNet in model.h). The
// kernels can apply ReLU as they store, so inference needs no separate
// activation pass.
//
// Kernel contract (docs/INTERNALS.md): every output element accumulates in
// a fixed order — bias, then input channel ascending, then tap ascending —
// one rounded product at a time. A zero input adds nothing (multiplying it
// would differ only where a sum is exactly -0.0 or a weight is not
// finite); in Conv1D a zero weight adds nothing either, and a tap outside
// the row is never visited. The build never fuses a*b+c into one
// multiply-add. Results are bit-identical for every batch size, vector
// width and target.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace mlsim::tensor {

/// A Conv1D's parameters in its forward kernel's layout: weights
/// (C_in, K, C_out) row-major, so one (input channel, tap) pair's output
/// channels are contiguous. Each C_out row and the bias are padded with
/// zeros to a multiple of 4; padded lanes are never stored.
struct ConvWeights {
  std::size_t c_in = 0, c_out = 0, k = 0;
  std::vector<float> w, b;
  bool has_zero = false;  // some weight is +-0: the kernel masks its lanes

  /// (B, C_in, L) -> (B, C_out, L); applies ReLU as it stores if `relu`.
  /// Needs L > K / 2.
  Tensor forward(const Tensor& x, bool relu) const;
};

/// A Linear's parameters in its forward kernel's layout: weights
/// (N_in, N_out) row-major, rows and bias padded with zeros to a multiple
/// of 4.
struct LinearWeights {
  std::size_t n_in = 0, n_out = 0;
  std::vector<float> w, b;

  /// (B, N_in) -> (B, N_out); applies ReLU as it stores if `relu`.
  Tensor forward(const Tensor& x, bool relu) const;
};

/// Parameter block registered with the optimiser.
struct Param {
  std::vector<float>* value = nullptr;
  std::vector<float>* grad = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;
  virtual Tensor forward(const Tensor& x) = 0;
  virtual Tensor backward(const Tensor& grad_out) = 0;
  virtual void collect_params(std::vector<Param>& /*out*/) {}
  virtual void zero_grad() {}
};

class Conv1D final : public Layer {
 public:
  /// Kaiming-uniform initialisation from `rng`; all zero when it is null
  /// (for a decoder that sets every parameter).
  Conv1D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         Rng* rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param>& out) override;
  void zero_grad() override;

  /// forward() without caching the input; needs L > kernel / 2.
  Tensor infer(const Tensor& x) const;

  /// Copy of the parameters in the forward kernel's layout.
  ConvWeights packed() const;

  std::size_t in_channels() const { return c_in_; }
  std::size_t out_channels() const { return c_out_; }
  std::size_t kernel() const { return k_; }

  /// weight layout: (C_out, C_in, K) row-major; bias: (C_out).
  std::vector<float>& weight() { return w_; }
  const std::vector<float>& weight() const { return w_; }
  std::vector<float>& bias() { return b_; }
  const std::vector<float>& bias() const { return b_; }

  /// FLOPs for one forward pass over a batch of `batch` windows of length L.
  std::size_t flops(std::size_t batch, std::size_t length) const;

 private:
  std::size_t c_in_, c_out_, k_;
  std::vector<float> w_, b_, gw_, gb_;
  Tensor cached_input_;
};

class Linear final : public Layer {
 public:
  /// Initialised as Conv1D is.
  Linear(std::size_t in_features, std::size_t out_features, Rng* rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param>& out) override;
  void zero_grad() override;

  /// forward() without caching the input.
  Tensor infer(const Tensor& x) const;

  /// Copy of the parameters in the forward kernel's layout.
  LinearWeights packed() const;

  std::size_t in_features() const { return n_in_; }
  std::size_t out_features() const { return n_out_; }
  std::vector<float>& weight() { return w_; }  // (N_out, N_in)
  const std::vector<float>& weight() const { return w_; }
  std::vector<float>& bias() { return b_; }
  const std::vector<float>& bias() const { return b_; }

  std::size_t flops(std::size_t batch) const { return 2 * batch * n_in_ * n_out_; }

 private:
  std::size_t n_in_, n_out_;
  std::vector<float> w_, b_, gw_, gb_;
  Tensor cached_input_;
};

/// Training-path activation: its own pass, since backward() needs the
/// input. forward() uses the same select as the kernels' fused store.
class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  Tensor cached_input_;
};

/// Mean-squared-error loss; returns loss and writes d(loss)/d(pred) to grad.
float mse_loss(const Tensor& pred, const Tensor& target, Tensor& grad);

}  // namespace mlsim::tensor
