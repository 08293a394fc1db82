// SimNet training pipeline: ground-truth window dataset construction,
// feature-scale computation, Adam training of the 3C+2F model, and
// evaluation (per-instruction error + end-to-end CPI error).
//
// Paper protocol: train on {perl, gcc, bwav, namd}, evaluate on the other
// 17 benchmarks. The default model here is a scaled-down 3C+2F (context 32,
// 32 channels) so training fits this machine's single-core budget; the
// paper-scale (context 111, 64 channels) configuration is a constructor
// argument away.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cnn_predictor.h"
#include "trace/trace.h"
#include "uarch/config.h"

namespace mlsim::core {

struct SimNetTrainConfig {
  tensor::SimNetModelConfig model{.in_features = trace::kNumFeatures,
                                  .window = 33,
                                  .channels = 32,
                                  .hidden = 64,
                                  .kernel = 3,
                                  .outputs = trace::kNumTargets};
  std::size_t epochs = 3;
  std::size_t batch_size = 32;
  float lr = 1.5e-3f;
  float grad_clip = 5.0f;
  std::uint64_t seed = 42;
  double holdout_fraction = 0.1;  // tail of each trace held out for eval
};

struct SimNetTrainReport {
  float final_loss = 0.0f;
  double holdout_mape_fetch = 0.0;  // +1-smoothed MAPE, holdout windows
  double holdout_mape_exec = 0.0;
  std::size_t samples = 0;
};

/// Ground-truth inference windows derived from a labeled trace: the retire
/// clocks that drive context membership come from the *true* latencies,
/// exactly the windows a perfectly-converged simulator would build.
class WindowDataset {
 public:
  WindowDataset(const trace::EncodedTrace& labeled, std::size_t window_rows);

  std::size_t size() const { return trace_.size(); }
  std::size_t rows() const { return rows_; }
  const trace::EncodedTrace& trace() const { return trace_; }

  /// Materialise window `i` (rows x kNumFeatures int32) into `out`.
  void window(std::size_t i, std::vector<std::int32_t>& out) const;

  /// Ground-truth targets of instruction i.
  std::span<const std::uint32_t> targets(std::size_t i) const {
    return trace_.targets(i);
  }

 private:
  const trace::EncodedTrace& trace_;
  std::size_t rows_;
  std::vector<std::uint64_t> retire_;  // per instruction, absolute cycles
  std::vector<std::uint64_t> clock_;   // Clock when instruction i is predicted
};

/// Per-feature normalisation: 1 / max observed value (>= 1) per slot.
std::vector<float> compute_feature_scales(
    const std::vector<const trace::EncodedTrace*>& traces);

/// Train a SimNet bundle on labeled traces (paper: the 4 training
/// benchmarks).
SimNetBundle train_simnet(const std::vector<const trace::EncodedTrace*>& traces,
                          const SimNetTrainConfig& cfg,
                          SimNetTrainReport* report = nullptr);

/// Fine-tune an already-trained bundle under the 2:4 sparsity mask:
/// projected training re-prunes the weight matrices after every optimiser
/// step, so the model adapts to (and maintains) the structured-sparse
/// pattern — the recipe that makes the paper's "2:4 with negligible
/// accuracy loss" claim hold.
void finetune_2to4(SimNetBundle& bundle,
                   const std::vector<const trace::EncodedTrace*>& traces,
                   std::size_t epochs = 1, float lr = 4e-4f,
                   std::uint64_t seed = 99);

/// Mean log1p-space MSE of a bundle over the first `max_samples`
/// ground-truth windows of a labeled trace (the training objective).
float evaluate_loss(const SimNetBundle& bundle, const trace::EncodedTrace& labeled,
                    std::size_t max_samples = 2000);

/// Evaluate a bundle on a labeled test trace: runs the full sequential
/// simulation with the CNN predictor and reports CPI error vs ground truth.
struct SimNetEvalReport {
  double cpi_error_percent = 0.0;  // |seq CPI - truth CPI| / truth * 100
  double mape_exec = 0.0;          // per-instruction execute-latency error
  double predicted_cpi = 0.0;
  double truth_cpi = 0.0;
};
SimNetEvalReport evaluate_simnet(CnnPredictor& predictor,
                                 const trace::EncodedTrace& labeled,
                                 std::size_t max_instructions = 0);

}  // namespace mlsim::core
