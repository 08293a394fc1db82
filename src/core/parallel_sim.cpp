#include "core/parallel_sim.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stats.h"
#include "core/checkpoint.h"
#include "core/shard.h"
#include "obs/obs.h"

namespace mlsim::core {

ParallelSimulator::ParallelSimulator(LatencyPredictor& predictor,
                                     ParallelSimOptions opts)
    : predictor_(predictor), opts_(std::move(opts)) {
  check(opts_.retry_backoff_us >= 0.0, "retry backoff must be non-negative");
  check(!opts_.resume || !opts_.checkpoint_path.empty(),
        "resume requires a checkpoint path");
}

double ParallelSimulator::cpi_error_percent(double sequential_cpi,
                                            double parallel_cpi) {
  return signed_percent_error(sequential_cpi, parallel_cpi);
}

std::vector<std::size_t> partition_boundaries(std::size_t n, std::size_t parts) {
  check(parts > 0 && parts <= n, "invalid partition count");
  std::vector<std::size_t> out(parts + 1);
  const std::size_t base = n / parts, rem = n % parts;
  std::size_t pos = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    out[p] = pos;
    pos += base + (p < rem ? 1 : 0);
  }
  out[parts] = pos;
  return out;
}

double model_parallel_time_us(const ParallelSimOptions& opts,
                              const std::vector<std::size_t>& partition_steps,
                              std::size_t flops_per_window,
                              double avg_context_occupancy,
                              const ParallelTimePenalties& penalties) {
  const CostModel& cm = opts.costs;
  const std::size_t P = partition_steps.size();
  // Killed device slots drop out of the pool; their partitions requeue onto
  // the survivors, so the per-GPU resident-batch and step counts grow.
  const std::size_t G_full = std::min(opts.num_gpus, P);
  const std::size_t G =
      G_full - std::min(penalties.lost_devices, G_full - 1);
  const std::size_t per_gpu = (P + G - 1) / G;
  const std::size_t rows = opts.context_length + 1;

  double slowest = 0.0;
  for (std::size_t g = 0; g < G; ++g) {
    const std::size_t p_lo = g * per_gpu;
    const std::size_t p_hi = std::min(P, p_lo + per_gpu);
    if (p_lo >= p_hi) continue;
    const std::size_t batch = p_hi - p_lo;
    std::size_t steps = 0;
    for (std::size_t p = p_lo; p < p_hi; ++p) {
      steps = std::max(steps, partition_steps[p]);
    }
    // One fused kernel set per step covers all resident sub-traces, so the
    // launch overheads amortise across the batch; the per-window work
    // (strided gather, H2D row staging, update/retire) stays per-partition.
    const double launches = 3.0 * cm.gpu.launch_us;
    const double per_window =
        cm.custom_conv_gather_us +
        (cm.h2d_batched_row_us(opts.batch_n) -
         cm.gpu.h2d_lat_us / static_cast<double>(opts.batch_n)) +
        cm.gpu_update_retire_us;
    const double per_step_us =
        launches + static_cast<double>(batch) * per_window +
        cm.inference_us(opts.engine, flops_per_window, batch,
                        /*custom_conv=*/true,
                        avg_context_occupancy + 1.0 / static_cast<double>(rows));
    slowest = std::max(slowest, static_cast<double>(steps) * per_step_us);
  }
  return slowest + penalties.backoff_us +
         device::allreduce_time_us(G, per_gpu * sizeof(std::uint64_t));
}

ParallelSimResult ParallelSimulator::run(const trace::EncodedTrace& trace) {
  if (trace.size() == 0) return {};

  MLSIM_TRACE_SPAN("parallel_sim/run");

  const ShardPlan plan = ShardPlan::make(trace.size(), opts_);
  ShardEngine engine(predictor_, trace, opts_, plan);
  const bool checkpointing = !opts_.checkpoint_path.empty();
  // The fingerprint keys the checkpoint only; it costs a pass over the trace.
  const std::uint64_t fp =
      checkpointing ? run_fingerprint(trace, opts_, plan.parts) : 0;
  std::size_t start_p = 0;
  std::string resume_error;

  // Resume is load, validate, absorb: a checkpoint that fails any check
  // leaves the engine untouched, so lenient mode starts clean.
  if (checkpointing && opts_.resume) {
    try {
      RunCheckpoint ck;
      if (load_checkpoint(opts_.checkpoint_path, ck)) {
        check(ck.fingerprint == fp,
              "checkpoint was written by a different trace/options: " +
                  opts_.checkpoint_path.string());
        engine.resume(ck.snapshot, ck.ledger);
        start_p = ck.ledger.part_hi;
      }
    } catch (const CheckError& e) {
      if (!opts_.resume_lenient) throw;
      resume_error = e.what();
    }
  }

  const device::FaultInjector* faults =
      (opts_.faults != nullptr && opts_.faults->enabled()) ? opts_.faults
                                                           : nullptr;
  for (std::size_t p = start_p; p < plan.parts; ++p) {
    engine.run_partition(p);
    if (checkpointing) {
      save_checkpoint(opts_.checkpoint_path,
                      {fp, engine.snapshot(), engine.block_outcome(0, p + 1)});
      MLSIM_COUNTER_ADD(obs::names::kParSimCheckpointWrites, 1);
    }
    if (faults != nullptr && faults->dies_after(p + 1)) {
      throw device::InjectedCrash("injected process death after partition " +
                                  std::to_string(p));
    }
  }

  ParallelSimResult res =
      finalize(opts_, plan, engine.ledger(),
               predictor_.flops_per_window(opts_.context_length + 1));
  res.resumed = start_p > 0;
  res.resume_error = std::move(resume_error);

  // The run completed: a stale checkpoint must not hijack a future run.
  if (checkpointing) {
    std::error_code ec;
    std::filesystem::remove(opts_.checkpoint_path, ec);
  }
  return res;
}

}  // namespace mlsim::core
