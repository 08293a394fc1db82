// Minimal dense float tensor (row-major, up to 4 dimensions).
//
// This is the substrate under the SimNet 3C+2F CNN and the Ithemal LSTM —
// the paper's models run on PyTorch/TensorRT, which are unavailable here, so
// training and inference are implemented from scratch. The layout choices
// mirror the paper's discussion: inference inputs are (batch, channels,
// length) with channels = instruction features and length = context window.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace mlsim::tensor {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::initializer_list<std::size_t> shape);

  static Tensor zeros(std::initializer_list<std::size_t> shape);

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t dim(std::size_t i) const;
  std::size_t numel() const { return data_.size(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return data_; }
  std::span<const float> flat() const { return data_; }

  float& at(std::size_t i) { return data_[i]; }
  float at(std::size_t i) const { return data_[i]; }

  // Indexed accessors for the common ranks (no stride arithmetic at call
  // sites). Bounds are checked in debug-style via check() only on the slow
  // path constructors; hot loops index flat().
  float& operator()(std::size_t i, std::size_t j) {
    return data_[i * shape_[1] + j];
  }
  float operator()(std::size_t i, std::size_t j) const {
    return data_[i * shape_[1] + j];
  }
  float& operator()(std::size_t i, std::size_t j, std::size_t k) {
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  float operator()(std::size_t i, std::size_t j, std::size_t k) const {
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }

  void fill(float v);
  void resize(std::vector<std::size_t> shape);

  /// Same data under a new shape; total element count must match. The
  /// rvalue overload moves the data instead of copying it.
  Tensor reshaped(std::vector<std::size_t> shape) const&;
  Tensor reshaped(std::vector<std::size_t> shape) &&;

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

}  // namespace mlsim::tensor
