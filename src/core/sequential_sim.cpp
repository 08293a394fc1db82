#include "core/sequential_sim.h"

#include "common/check.h"

namespace mlsim::core {

SequentialSimulator::SequentialSimulator(LatencyPredictor& predictor,
                                         SequentialSimOptions opts)
    : predictor_(predictor), opts_(std::move(opts)) {}

SimOutput SequentialSimulator::run(const trace::EncodedTrace& trace,
                                   std::size_t begin, std::size_t end) {
  if (end == 0) end = trace.size();
  check(begin <= end && end <= trace.size(), "simulation range out of bounds");

  const std::size_t rows = opts_.context_length + 1;
  const CostModel& cm = opts_.costs;
  InstructionQueue queue(opts_.context_length);
  std::vector<std::int32_t> window;

  SimOutput out;
  out.instructions = end - begin;
  if (opts_.record_predictions) out.predictions.reserve(out.instructions);
  if (opts_.record_context_counts) out.context_counts.reserve(out.instructions);

  std::size_t flops = predictor_.flops_per_window(rows);
  if (flops == 0) flops = simnet3c2f_flops(rows);  // analytic/oracle stand-ins
  StepProfile acc;

  for (std::size_t i = begin; i < end; ++i) {
    if (opts_.cancel != nullptr) opts_.cancel->check();
    if (opts_.record_context_counts) {
      out.context_counts.push_back(static_cast<std::uint16_t>(queue.context_count()));
    }
    // Copies 1+2 (host).
    queue.push_and_build(trace.features(i), window);
    acc.queue_push += cm.host_queue_push_us;
    acc.input_construct += cm.cpu_construct_us(rows);
    // Copy 3: full window H2D.
    acc.h2d += cm.h2d_full_window_us(rows);
    // Copy 4: transpose kernel.
    acc.transpose += cm.transpose_us(rows);
    // Inference.
    acc.inference +=
        cm.inference_us(opts_.engine, flops, 1, /*custom_conv=*/false, 1.0);
    const LatencyPrediction p =
        predictor_.predict(WindowView{window.data(), rows}, i);
    // Update + retire (host in the baseline flow).
    queue.apply_prediction(p);
    acc.update_retire += cm.host_update_retire_us;

    if (opts_.record_predictions) out.predictions.push_back(p);
  }

  out.cycles = queue.total_cycles_with_drain();
  out.sim_time_us = acc.total();
  const double n = static_cast<double>(out.instructions ? out.instructions : 1);
  out.profile = {acc.queue_push / n, acc.input_construct / n, acc.h2d / n,
                 acc.transpose / n,  acc.inference / n,       acc.update_retire / n};
  return out;
}

}  // namespace mlsim::core
