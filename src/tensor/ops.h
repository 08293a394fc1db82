// Trainable layers: Conv1D ("same" zero padding), Linear, ReLU.
//
// Hand-written forward/backward (no autograd): each layer caches its last
// input and exposes parameter/gradient buffers to the optimiser. Layers
// operate on batched tensors:
//   Conv1D : (B, C_in, L)  -> (B, C_out, L)
//   Linear : (B, N_in)     -> (B, N_out)
//   ReLU   : elementwise.
//
// Conv1D and Linear also have a const infer(): the same kernel as forward()
// without caching the input, so one layer can serve concurrent callers.
// Kernel contract (docs/INTERNALS.md): every output element accumulates in
// a fixed order — bias, then input channel ascending, then tap ascending —
// one rounded product at a time; in Conv1D a zero weight adds nothing and a
// tap outside the row is never multiplied; the build never fuses a*b+c into
// one multiply-add. Results are bit-identical for every batch size, vector
// width and target.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"

namespace mlsim::tensor {

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
  /// Kaiming-uniform initialisation from `rng`.
  Conv1D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param>& out) override;
  void zero_grad() override;

  /// forward() without caching the input; needs L > kernel / 2.
  Tensor infer(const Tensor& x) const;

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
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param>& out) override;
  void zero_grad() override;

  /// forward() without caching the input.
  Tensor infer(const Tensor& x) const;

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

class ReLU final : public Layer {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  Tensor cached_input_;
};

/// ReLU applied in place (the inference path's activation).
void relu_inplace(Tensor& t);

/// Mean-squared-error loss; returns loss and writes d(loss)/d(pred) to grad.
float mse_loss(const Tensor& pred, const Tensor& target, Tensor& grad);

}  // namespace mlsim::tensor
