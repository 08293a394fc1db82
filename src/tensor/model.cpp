#include "tensor/model.h"

#include <cstring>
#include <fstream>

#include "common/check.h"

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
constexpr std::uint32_t kModelMagic = 0x4d4c4d44;  // "MLMD"

void write_vec(std::ofstream& os, const std::vector<float>& v) {
  const auto n = static_cast<std::uint64_t>(v.size());
  os.write(reinterpret_cast<const char*>(&n), sizeof(n));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(float)));
}

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

void read_vec(std::ifstream& is, std::vector<float>& v) {
  std::uint64_t n = 0;
  is.read(reinterpret_cast<char*>(&n), sizeof(n));
  check(static_cast<bool>(is), "model file truncated");
  check(n == v.size(), "model parameter size mismatch");
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(float)));
  check(static_cast<bool>(is), "model file truncated");
}
}  // namespace

void SimNetModel::save(const std::filesystem::path& path) const {
  std::ofstream os(path, std::ios::binary);
  check(os.is_open(), "cannot open model file for writing: " + path.string());
  os.write(reinterpret_cast<const char*>(&kModelMagic), sizeof(kModelMagic));
  os.write(reinterpret_cast<const char*>(&cfg_), sizeof(cfg_));
  write_vec(os, conv1_->weight());
  write_vec(os, conv1_->bias());
  write_vec(os, conv2_->weight());
  write_vec(os, conv2_->bias());
  write_vec(os, conv3_->weight());
  write_vec(os, conv3_->bias());
  write_vec(os, fc1_->weight());
  write_vec(os, fc1_->bias());
  write_vec(os, fc2_->weight());
  write_vec(os, fc2_->bias());
  check(static_cast<bool>(os), "model write failed");
}

SimNetModel SimNetModel::load(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  check(is.is_open(), "cannot open model file: " + path.string());
  const auto file_size = static_cast<std::uint64_t>(is.tellg());
  is.seekg(0);
  std::uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  check(magic == kModelMagic, "bad model magic");
  SimNetModelConfig cfg;
  is.read(reinterpret_cast<char*>(&cfg), sizeof(cfg));
  check(static_cast<bool>(is), "model file truncated");
  check(payload_bytes(cfg) <= file_size - sizeof(magic) - sizeof(cfg),
        "model file shorter than its header declares");
  SimNetModel m(cfg);
  read_vec(is, m.conv1_->weight());
  read_vec(is, m.conv1_->bias());
  read_vec(is, m.conv2_->weight());
  read_vec(is, m.conv2_->bias());
  read_vec(is, m.conv3_->weight());
  read_vec(is, m.conv3_->bias());
  read_vec(is, m.fc1_->weight());
  read_vec(is, m.fc1_->bias());
  read_vec(is, m.fc2_->weight());
  read_vec(is, m.fc2_->bias());
  return m;
}

}  // namespace mlsim::tensor
