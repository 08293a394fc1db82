#include "tensor/optim.h"

#include <cmath>

#include "common/check.h"

namespace mlsim::tensor {

Adam::Adam(std::vector<Param> params, const AdamConfig& cfg)
    : params_(std::move(params)), cfg_(cfg) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    check(p.value != nullptr && p.grad != nullptr, "null parameter block");
    check(p.value->size() == p.grad->size(), "param/grad size mismatch");
    m_.emplace_back(p.value->size(), 0.0f);
    v_.emplace_back(p.value->size(), 0.0f);
  }
}

std::size_t Adam::num_parameters() const {
  std::size_t n = 0;
  for (const auto& p : params_) n += p.value->size();
  return n;
}

void Adam::step() {
  ++t_;
  float clip_scale = 1.0f;
  if (cfg_.grad_clip > 0.0f) {
    double norm2 = 0.0;
    for (const auto& p : params_) {
      for (float g : *p.grad) {
        norm2 += static_cast<double>(g) * static_cast<double>(g);
      }
    }
    const double norm = std::sqrt(norm2);
    const double clip = static_cast<double>(cfg_.grad_clip);
    if (norm > clip) {
      clip_scale = static_cast<float>(clip / norm);
    }
  }
  const float bc1 = 1.0f - std::pow(cfg_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(cfg_.beta2, static_cast<float>(t_));
  for (std::size_t p = 0; p < params_.size(); ++p) {
    auto& w = *params_[p].value;
    auto& g = *params_[p].grad;
    auto& m = m_[p];
    auto& v = v_[p];
    for (std::size_t i = 0; i < w.size(); ++i) {
      float gi = g[i] * clip_scale + cfg_.weight_decay * w[i];
      m[i] = cfg_.beta1 * m[i] + (1.0f - cfg_.beta1) * gi;
      v[i] = cfg_.beta2 * v[i] + (1.0f - cfg_.beta2) * gi * gi;
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      w[i] -= cfg_.lr * mhat / (std::sqrt(vhat) + cfg_.eps);
    }
  }
}

}  // namespace mlsim::tensor
