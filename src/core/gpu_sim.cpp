#include "core/gpu_sim.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "obs/obs.h"

namespace mlsim::core {

namespace {
constexpr std::size_t kRowBytes = trace::kNumFeatures * sizeof(std::int32_t);
}

GpuSimulator::GpuSimulator(LatencyPredictor& predictor, device::Device& dev,
                           GpuSimOptions opts)
    : predictor_(predictor), dev_(dev), opts_(std::move(opts)) {}

SimOutput GpuSimulator::run(const trace::EncodedTrace& trace, std::size_t begin,
                            std::size_t end) {
  if (end == 0) end = trace.size();
  check(begin <= end && end <= trace.size(), "simulation range out of bounds");

  SimOutput out;
  out.instructions = end - begin;
  if (out.instructions == 0) return out;

  MLSIM_TRACE_SPAN("gpu_sim/run");

  const std::size_t rows = opts_.context_length + 1;
  const CostModel& cm = opts_.costs;
  std::size_t flops = predictor_.flops_per_window(rows);
  if (flops == 0) flops = simnet3c2f_flops(rows);  // analytic/oracle stand-ins

  // Two simulated streams: copies and compute.
  const device::StreamId sim_stream = 0;
  const device::StreamId copy_stream = dev_.create_stream();

  // The batched H2D + compaction costs apply only when the data path is the
  // device-resident sliding window; other ablation modes charge their own.
  const bool swiq_path = opts_.gpu_input_construction && opts_.sliding_window;
  check(opts_.context_length > 0, "context length must be positive");
  check(opts_.batch_n > 0, "batch size must be positive");
  // Retire clocks of the last context_length instructions: the paper's
  // latency vector. Each window is a LazyWindow view over the trace and this
  // ring, exactly the window the device-resident queue holds.
  std::vector<std::uint64_t> ring(opts_.context_length, 0);
  std::uint64_t clock = 0;
  std::uint64_t last_retire = 0;
  std::vector<std::int32_t> window;

  if (opts_.record_predictions) out.predictions.reserve(out.instructions);
  if (opts_.record_context_counts) out.context_counts.reserve(out.instructions);

  StepProfile acc;
  double occupancy_sum = 0.0;
  const double t0 = dev_.synchronize();

  std::size_t next = begin;  // next trace row to stage
  for (std::size_t cur = begin; cur < end; ++cur) {
    const LazyWindow lw(trace, cur, begin, ring.data(), ring.size(), clock, rows);
    const std::size_t ctx = lw.context_count();
    if (cur == next) {
      // Every staged instruction is simulated: stage the next N+1 rows.
      MLSIM_TRACE_SPAN("gpu_sim/copy");
      MLSIM_COUNTER_ADD(obs::names::kGpuSimBatches, 1);
      const std::size_t m = std::min(end - next, opts_.batch_n + 1);
      if (swiq_path) {
        if (!opts_.pipelined) {
          // Serial flow: the copy starts only after compute is done.
          dev_.wait(copy_stream, dev_.record(sim_stream));
        }
        const double copy_start = dev_.record(copy_stream);
        if (cur != begin) {
          // Compaction kernel: moves this instruction's live context rows
          // to the queue's tail (the paper skips retired ones).
          dev_.launch(copy_stream, 2 * ctx * kRowBytes, 0);
        }
        // One H2D transfer for the whole batch (the amortisation the design
        // buys).
        dev_.copy_h2d(m * kRowBytes, copy_stream);
        const double copy_end = dev_.record(copy_stream);
        acc.h2d += copy_end - copy_start;
        // Compute consumes the batch only once it has arrived. When
        // pipelined, the copy was issued during the previous batch's
        // simulation, so this wait is usually free.
        if (obs::enabled()) {
          // Simulated time compute will spend stalled on the in-flight copy.
          const double compute_front = dev_.record(sim_stream);
          if (copy_end > compute_front) {
            MLSIM_COUNTER_ADD(
                obs::names::kGpuSimPipelineStallNs,
                static_cast<std::uint64_t>((copy_end - compute_front) * 1000.0));
          }
        }
        dev_.wait(sim_stream, copy_end);
      }
      next += m;
    }

    occupancy_sum += static_cast<double>(ctx) / static_cast<double>(rows - 1);
    if (opts_.record_context_counts) {
      out.context_counts.push_back(static_cast<std::uint16_t>(ctx));
    }

    // --- Input construction (+ per-mode data movement) -----------------------
    {
    MLSIM_TRACE_SPAN("gpu_sim/input_construction");
    if (!opts_.gpu_input_construction) {
      // Baseline data path: host queue push + concat/pad + full-window H2D.
      acc.queue_push += cm.host_queue_push_us;
      acc.input_construct += cm.cpu_construct_us(rows);
      acc.h2d += cm.h2d_full_window_us(rows);
      dev_.advance(sim_stream, cm.host_queue_push_us + cm.cpu_construct_us(rows) +
                                   cm.h2d_full_window_us(rows));
    } else if (!opts_.sliding_window) {
      // GIC only: just the new rows cross the link (staged in batches of N,
      // independent of the sliding window); a gather kernel assembles the
      // window from device-resident context rows.
      acc.h2d += cm.h2d_batched_row_us(opts_.batch_n);
      acc.input_construct += cm.gpu_construct_us(rows);
      dev_.advance(sim_stream, cm.h2d_batched_row_us(opts_.batch_n) +
                                   cm.gpu_construct_us(rows));
    } else if (!opts_.custom_conv) {
      acc.input_construct += cm.swiq_construct_us(opts_.batch_n);
      dev_.advance(sim_stream, cm.swiq_construct_us(opts_.batch_n));
    } else {
      acc.input_construct += cm.custom_conv_construct_us(opts_.batch_n);
      dev_.advance(sim_stream, cm.custom_conv_construct_us(opts_.batch_n));
    }

    // --- Transpose (eliminated by the custom convolution) --------------------
    if (!opts_.custom_conv) {
      acc.transpose += cm.transpose_us(rows);
      dev_.advance(sim_stream, cm.transpose_us(rows));
    }
    lw.materialize(window);
    }

    // --- Inference ------------------------------------------------------------
    LatencyPrediction p;
    {
    MLSIM_TRACE_SPAN("gpu_sim/inference");
    const double valid_fraction =
        (static_cast<double>(ctx) + 1.0) / static_cast<double>(rows);
    const double inf_us = cm.inference_us(opts_.engine, flops, 1,
                                          opts_.custom_conv, valid_fraction);
    acc.inference += inf_us;
    dev_.advance(sim_stream, inf_us);

    // Functional prediction — real computation, identical across all cost
    // toggles (the toggles change only where/so-how-fast steps run).
    p = predictor_.predict(WindowView{window.data(), rows}, cur);
    }
    const std::uint64_t retire = clock + p.fetch + p.exec + p.store;
    ring[cur % ring.size()] = retire;
    last_retire = std::max(last_retire, retire);
    clock += p.fetch;
    if (opts_.record_predictions) out.predictions.push_back(p);

    // --- Update + retire --------------------------------------------------------
    const double upd = opts_.gpu_input_construction ? cm.gpu_update_retire_us
                                                    : cm.host_update_retire_us;
    acc.update_retire += upd;
    dev_.advance(sim_stream, upd);
  }

  out.cycles = std::max(clock, last_retire);
  out.sim_time_us = dev_.synchronize() - t0;
  const double n = static_cast<double>(out.instructions);
  out.profile = {acc.queue_push / n, acc.input_construct / n, acc.h2d / n,
                 acc.transpose / n,  acc.inference / n,       acc.update_retire / n};
  out.avg_context_occupancy = occupancy_sum / n;
  if (obs::enabled()) {
    const auto to_ns = [](double us) {
      return static_cast<std::uint64_t>(us * 1000.0);
    };
    MLSIM_COUNTER_ADD(obs::names::kGpuSimInstructions, out.instructions);
    MLSIM_COUNTER_ADD(obs::names::kGpuSimInputConstructNs,
                      to_ns(acc.queue_push + acc.input_construct + acc.transpose));
    MLSIM_COUNTER_ADD(obs::names::kGpuSimInferenceNs, to_ns(acc.inference));
    MLSIM_COUNTER_ADD(obs::names::kGpuSimCopyNs, to_ns(acc.h2d));
    MLSIM_GAUGE_SET(obs::names::kGpuSimContextOccupancy,
                    out.avg_context_occupancy);
  }
  return out;
}

}  // namespace mlsim::core
