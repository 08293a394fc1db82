#include "tensor/model.h"

#include <array>

#include "common/check.h"
#include "common/wire.h"

namespace mlsim::tensor {

SimNetModel::SimNetModel(const SimNetModelConfig& cfg, std::uint64_t seed) : cfg_(cfg) {
  Rng rng(seed);
  conv1_ = std::make_unique<Conv1D>(cfg.in_features, cfg.channels, cfg.kernel, rng);
  conv2_ = std::make_unique<Conv1D>(cfg.channels, cfg.channels, cfg.kernel, rng);
  conv3_ = std::make_unique<Conv1D>(cfg.channels, cfg.channels, cfg.kernel, rng);
  relu1_ = std::make_unique<ReLU>();
  relu2_ = std::make_unique<ReLU>();
  relu3_ = std::make_unique<ReLU>();
  relu4_ = std::make_unique<ReLU>();
  fc1_ = std::make_unique<Linear>(cfg.channels * cfg.window, cfg.hidden, rng);
  fc2_ = std::make_unique<Linear>(cfg.hidden, cfg.outputs, rng);
}

namespace {
void check_input(const SimNetModelConfig& cfg, const Tensor& x) {
  check(x.rank() == 3 && x.dim(1) == cfg.in_features && x.dim(2) == cfg.window,
        "SimNetModel input must be (B, in_features, window)");
}
}  // namespace

Tensor SimNetModel::forward(const Tensor& x) {
  check_input(cfg_, x);
  return forward_tail(conv1_->forward(x));
}

Tensor SimNetModel::forward_tail(const Tensor& conv1_preact) {
  Tensor h = relu1_->forward(conv1_preact);
  h = relu2_->forward(conv2_->forward(h));
  h = relu3_->forward(conv3_->forward(h));
  const std::size_t B = h.dim(0);
  h = std::move(h).reshaped({B, cfg_.channels * cfg_.window});
  h = relu4_->forward(fc1_->forward(h));
  return fc2_->forward(h);
}

Tensor SimNetModel::infer(const Tensor& x) const { return PackedSimNet(*this).infer(x); }

PackedSimNet::PackedSimNet(const SimNetModel& model)
    : cfg_(model.config()),
      conv1_(model.conv1().packed()),
      conv2_(model.conv2().packed()),
      conv3_(model.conv3().packed()),
      fc1_(model.fc1().packed()),
      fc2_(model.fc2().packed()),
      flops_per_window_(model.flops_per_batch(1)) {}

Tensor PackedSimNet::infer(const Tensor& x) const {
  check_input(cfg_, x);
  Tensor h = conv1_.forward(x, true);
  h = conv2_.forward(h, true);
  h = conv3_.forward(h, true);
  const std::size_t B = h.dim(0);
  h = fc1_.forward(std::move(h).reshaped({B, cfg_.channels * cfg_.window}), true);
  return fc2_.forward(h, false);
}

void SimNetModel::backward(const Tensor& grad_out) {
  Tensor g = fc2_->backward(grad_out);
  g = fc1_->backward(relu4_->backward(g));
  const std::size_t B = g.dim(0);
  g = std::move(g).reshaped({B, cfg_.channels, cfg_.window});
  g = conv3_->backward(relu3_->backward(g));
  g = conv2_->backward(relu2_->backward(g));
  conv1_->backward(relu1_->backward(g));
}

std::vector<Param> SimNetModel::params() {
  std::vector<Param> out;
  conv1_->collect_params(out);
  conv2_->collect_params(out);
  conv3_->collect_params(out);
  fc1_->collect_params(out);
  fc2_->collect_params(out);
  return out;
}

void SimNetModel::zero_grad() {
  conv1_->zero_grad();
  conv2_->zero_grad();
  conv3_->zero_grad();
  fc1_->zero_grad();
  fc2_->zero_grad();
}

std::size_t SimNetModel::flops_per_batch(std::size_t batch) const {
  return conv1_->flops(batch, cfg_.window) + conv2_->flops(batch, cfg_.window) +
         conv3_->flops(batch, cfg_.window) + fc1_->flops(batch) + fc2_->flops(batch);
}

namespace {
std::uint64_t checked_mul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  check(!__builtin_mul_overflow(a, b, &r), "model dimensions overflow");
  return r;
}

std::uint64_t checked_add(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = 0;
  check(!__builtin_add_overflow(a, b, &r), "model dimensions overflow");
  return r;
}

// Bytes the ten (count, floats) parameter blocks of a `cfg` model occupy,
// after checking that every dimension is usable.
std::uint64_t payload_bytes(const SimNetModelConfig& cfg) {
  check(cfg.in_features > 0 && cfg.window > 0 && cfg.channels > 0 && cfg.hidden > 0 &&
            cfg.kernel > 0 && cfg.outputs > 0,
        "model dimensions must be positive");
  check(cfg.kernel % 2 == 1, "model kernel must be odd");
  check(cfg.window > cfg.kernel / 2, "model window must exceed half the kernel width");
  const std::uint64_t conv1 = checked_mul(checked_mul(cfg.channels, cfg.in_features), cfg.kernel);
  const std::uint64_t conv23 = checked_mul(checked_mul(cfg.channels, cfg.channels), cfg.kernel);
  const std::uint64_t fc1 = checked_mul(checked_mul(cfg.channels, cfg.window), cfg.hidden);
  const std::uint64_t fc2 = checked_mul(cfg.hidden, cfg.outputs);
  std::uint64_t bytes = 0;
  for (const std::uint64_t n : {conv1, cfg.channels, conv23, cfg.channels, conv23, cfg.channels,
                                fc1, cfg.hidden, fc2, cfg.outputs}) {
    bytes = checked_add(checked_add(bytes, sizeof(std::uint64_t)), checked_mul(n, sizeof(float)));
  }
  return bytes;
}

// The ten parameter vectors in payload order (const or mutable, as `m` is).
template <typename Model>
auto param_vectors(Model& m) {
  return std::array{&m.conv1().weight(), &m.conv1().bias(), &m.conv2().weight(),
                    &m.conv2().bias(),   &m.conv3().weight(), &m.conv3().bias(),
                    &m.fc1().weight(),   &m.fc1().bias(),   &m.fc2().weight(),
                    &m.fc2().bias()};
}
}  // namespace

void put_model(wire::Writer& w, const SimNetModel& m) {
  const SimNetModelConfig& c = m.config();
  for (const std::uint64_t dim :
       {c.in_features, c.window, c.channels, c.hidden, c.kernel, c.outputs}) {
    w.pod(dim);
  }
  for (const std::vector<float>* v : param_vectors(m)) w.vec(*v);
}

SimNetModel get_model(wire::Reader& r) {
  SimNetModelConfig cfg;
  for (std::size_t* dim : {&cfg.in_features, &cfg.window, &cfg.channels, &cfg.hidden,
                           &cfg.kernel, &cfg.outputs}) {
    *dim = r.pod<std::uint64_t>();
  }
  check(payload_bytes(cfg) <= r.remaining(), "model payload shorter than its config declares");
  SimNetModel m(cfg);
  for (std::vector<float>* v : param_vectors(m)) {
    std::vector<float> got = r.vec<float>();
    check(got.size() == v->size(), "model parameter size mismatch");
    *v = std::move(got);
  }
  return m;
}

}  // namespace mlsim::tensor
