#include "core/ithemal.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/simnet_trainer.h"
#include "core/window.h"
#include "tensor/optim.h"

namespace mlsim::core {

using trace::Feat;

std::vector<BasicBlock> extract_basic_blocks(const trace::EncodedTrace& labeled,
                                             std::size_t max_len) {
  check(labeled.labeled(), "basic-block extraction needs targets");
  std::vector<BasicBlock> blocks;
  std::size_t begin = 0;
  std::uint32_t cycles = 0;
  std::size_t len = 0;
  auto flush = [&](std::size_t next_begin) {
    if (len > 0) blocks.push_back({begin, len, cycles});
    begin = next_begin;
    cycles = 0;
    len = 0;
  };
  for (std::size_t i = 0; i < labeled.size(); ++i) {
    const bool entry = labeled.features(i)[Feat::kBlockEntry] != 0;
    if ((entry && len > 0) || len >= max_len) flush(i);
    cycles += labeled.targets(i)[0];
    ++len;
  }
  flush(labeled.size());
  return blocks;
}

IthemalModel::IthemalModel(const IthemalConfig& cfg, std::uint64_t seed)
    : cfg_(cfg) {
  Rng rng(seed);
  embed_ = std::make_unique<tensor::Linear>(trace::kNumFeatures, cfg.embed, &rng);
  relu_ = std::make_unique<tensor::ReLU>();
  lstm_ = std::make_unique<tensor::Lstm>(cfg.embed, cfg.hidden, rng);
  head_ = std::make_unique<tensor::Linear>(cfg.hidden, 1, &rng);
  std::vector<tensor::Param> params;
  embed_->collect_params(params);
  lstm_->collect_params(params);
  head_->collect_params(params);
  optim_ = std::make_unique<tensor::Adam>(params,
                                          tensor::AdamConfig{.lr = cfg.lr,
                                                             .grad_clip = 5.0f});
}

tensor::Tensor IthemalModel::embed_blocks(const trace::EncodedTrace& tr,
                                          const std::vector<BasicBlock>& blocks,
                                          const std::vector<float>& scales,
                                          std::size_t max_len) {
  const std::size_t B = blocks.size();
  const std::size_t F = trace::kNumFeatures;
  tensor::Tensor x({B * max_len, F});
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t t = 0; t < blocks[b].length; ++t) {
      const auto row = tr.features(blocks[b].begin + t);
      float* dst = x.data() + (b * max_len + t) * F;
      for (std::size_t c = 0; c < F; ++c) {
        dst[c] = static_cast<float>(row[c]) * scales[c];
      }
    }
  }
  return x;
}

std::vector<double> IthemalModel::predict(const trace::EncodedTrace& tr,
                                          const std::vector<BasicBlock>& blocks,
                                          const std::vector<float>& scales) {
  check(!blocks.empty(), "predict needs at least one block");
  std::size_t max_len = 1;
  for (const auto& b : blocks) max_len = std::max(max_len, b.length);
  const std::size_t B = blocks.size();

  tensor::Tensor x = embed_blocks(tr, blocks, scales, max_len);
  tensor::Tensor e = relu_->forward(embed_->forward(x));
  e = e.reshaped({B, max_len, cfg_.embed});
  const tensor::Tensor h = lstm_->forward(e);

  tensor::Tensor block_h({B, cfg_.hidden});
  for (std::size_t b = 0; b < B; ++b) {
    const std::size_t t = blocks[b].length - 1;
    const float* src = h.data() + (b * max_len + t) * cfg_.hidden;
    std::copy(src, src + cfg_.hidden, block_h.data() + b * cfg_.hidden);
  }
  const tensor::Tensor y = head_->forward(block_h);
  std::vector<double> out(B);
  for (std::size_t b = 0; b < B; ++b) {
    out[b] = std::expm1(std::max(0.0, static_cast<double>(y.at(b))));
  }
  return out;
}

float IthemalModel::train_step(const trace::EncodedTrace& tr,
                               const std::vector<BasicBlock>& blocks,
                               const std::vector<float>& scales, float /*lr*/) {
  check(!blocks.empty(), "train_step needs a batch");
  std::size_t max_len = 1;
  for (const auto& b : blocks) max_len = std::max(max_len, b.length);
  const std::size_t B = blocks.size();

  embed_->zero_grad();
  lstm_->zero_grad();
  head_->zero_grad();

  tensor::Tensor x = embed_blocks(tr, blocks, scales, max_len);
  tensor::Tensor e = relu_->forward(embed_->forward(x));
  e = e.reshaped({B, max_len, cfg_.embed});
  const tensor::Tensor h = lstm_->forward(e);

  tensor::Tensor block_h({B, cfg_.hidden});
  for (std::size_t b = 0; b < B; ++b) {
    const std::size_t t = blocks[b].length - 1;
    const float* src = h.data() + (b * max_len + t) * cfg_.hidden;
    std::copy(src, src + cfg_.hidden, block_h.data() + b * cfg_.hidden);
  }
  const tensor::Tensor y = head_->forward(block_h);

  tensor::Tensor target({B, 1});
  for (std::size_t b = 0; b < B; ++b) {
    target.at(b) = std::log1p(static_cast<float>(blocks[b].cycles));
  }
  tensor::Tensor grad;
  const float loss = tensor::mse_loss(y, target, grad);

  tensor::Tensor gh = head_->backward(grad);  // (B, hidden)
  tensor::Tensor gseq({B, max_len, cfg_.hidden});
  for (std::size_t b = 0; b < B; ++b) {
    const std::size_t t = blocks[b].length - 1;
    float* dst = gseq.data() + (b * max_len + t) * cfg_.hidden;
    std::copy(gh.data() + b * cfg_.hidden, gh.data() + (b + 1) * cfg_.hidden, dst);
  }
  tensor::Tensor ge = lstm_->backward(gseq);
  ge = ge.reshaped({B * max_len, cfg_.embed});
  embed_->backward(relu_->backward(ge));
  optim_->step();
  return loss;
}

std::size_t IthemalModel::flops_per_block(std::size_t len) const {
  return 2 * len * trace::kNumFeatures * cfg_.embed +
         lstm_->flops(1, len) + 2 * cfg_.hidden;
}

IthemalModel train_ithemal(const std::vector<const trace::EncodedTrace*>& traces,
                           const IthemalConfig& cfg, std::vector<float>* scales_out,
                           IthemalTrainReport* report) {
  check(!traces.empty(), "ithemal training needs traces");
  const std::vector<float> scales = compute_feature_scales(traces);
  if (scales_out != nullptr) *scales_out = scales;

  struct Item {
    const trace::EncodedTrace* tr;
    BasicBlock block;
  };
  std::vector<Item> items;
  for (const auto* tr : traces) {
    for (const auto& b : extract_basic_blocks(*tr, cfg.max_block_len)) {
      items.push_back({tr, b});
    }
  }
  check(!items.empty(), "no basic blocks extracted");

  const std::size_t holdout_begin = items.size() * 9 / 10;
  IthemalModel model(cfg, cfg.seed);
  Rng rng(cfg.seed ^ 0xb10cull);

  float last_loss = 0.0f;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    for (std::size_t i = holdout_begin; i > 1; --i) {
      std::swap(items[i - 1], items[rng.next_below(i)]);
    }
    double acc = 0.0;
    std::size_t batches = 0;
    for (std::size_t off = 0; off + cfg.batch_size <= holdout_begin;
         off += cfg.batch_size) {
      // Batches must share one trace (blocks index into it); group by the
      // first item's trace and take same-trace neighbours.
      const trace::EncodedTrace* tr = items[off].tr;
      std::vector<BasicBlock> batch;
      for (std::size_t j = off; j < off + cfg.batch_size; ++j) {
        if (items[j].tr == tr) batch.push_back(items[j].block);
      }
      if (batch.empty()) continue;
      acc += static_cast<double>(model.train_step(*tr, batch, scales, cfg.lr));
      ++batches;
    }
    last_loss = batches ? static_cast<float>(acc / static_cast<double>(batches)) : 0.0f;
  }

  if (report != nullptr) {
    report->final_loss = last_loss;
    report->blocks = items.size();
    double err = 0.0;
    std::size_t cnt = 0;
    for (std::size_t i = holdout_begin; i < items.size(); ++i) {
      const std::vector<double> pred =
          model.predict(*items[i].tr, {items[i].block}, scales);
      const double truth = static_cast<double>(items[i].block.cycles) + 1.0;
      err += std::abs(pred[0] + 1.0 - truth) / truth * 100.0;
      ++cnt;
    }
    report->mape_percent = cnt ? err / static_cast<double>(cnt) : 0.0;
  }
  return model;
}

IthemalThroughput model_ithemal_throughput(const IthemalModel& model,
                                           const device::GpuSpec& gpu,
                                           std::size_t avg_block_len,
                                           std::size_t batch_blocks) {
  IthemalThroughput out;
  const double block_bytes =
      static_cast<double>(avg_block_len * trace::kNumFeatures * sizeof(float));
  const std::size_t flops = model.flops_per_block(avg_block_len);

  // Original offload: per block, one padded copy (1), one H2D (2), then one
  // framework-dispatched kernel per hierarchy step — token layer, one LSTM
  // step per instruction, concatenation, block layer, prediction (3-7).
  const double steps = static_cast<double>(avg_block_len) + 3.0;
  const double seq_block_us = gpu.h2d_time_us(static_cast<std::size_t>(block_bytes)) +
                              steps * gpu.libtorch_overhead_us +
                              gpu.inference_time_us(device::Engine::kLibTorch, flops);
  out.sequential_us_per_inst = seq_block_us / static_cast<double>(avg_block_len);

  // Optimised: blocks batched (sliding-window staging), custom token layer
  // avoids padding, TensorRT engine, pipelined copies.
  const double opt_batch_us =
      gpu.h2d_time_us(static_cast<std::size_t>(block_bytes) * batch_blocks) * 0.5 +
      gpu.inference_time_us(device::Engine::kTensorRTHalf, flops * batch_blocks);
  out.optimized_us_per_inst =
      opt_batch_us / static_cast<double>(batch_blocks * avg_block_len);
  return out;
}

}  // namespace mlsim::core
