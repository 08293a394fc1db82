#include "tensor/tensor.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace mlsim::tensor {

namespace {
std::size_t product(const std::vector<std::size_t>& shape) {
  return std::accumulate(shape.begin(), shape.end(), std::size_t{1},
                         std::multiplies<>());
}
}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(product(shape_), 0.0f) {
  check(!shape_.empty() && shape_.size() <= 4, "tensor rank must be 1..4");
}

Tensor::Tensor(std::initializer_list<std::size_t> shape)
    : Tensor(std::vector<std::size_t>(shape)) {}

std::size_t Tensor::dim(std::size_t i) const {
  check_index(i, shape_.size(), "tensor dim");
  return shape_[i];
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

void Tensor::resize(std::vector<std::size_t> shape) {
  shape_ = std::move(shape);
  data_.assign(product(shape_), 0.0f);
}

Tensor Tensor::reshaped(std::vector<std::size_t> shape) const& {
  return Tensor(*this).reshaped(std::move(shape));
}

Tensor Tensor::reshaped(std::vector<std::size_t> shape) && {
  check(product(shape) == numel(), "reshape must preserve element count");
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_ = std::move(data_);
  return t;
}

}  // namespace mlsim::tensor
