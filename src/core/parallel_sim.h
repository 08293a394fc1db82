// Parallel simulation with accuracy recovery (paper §V).
//
// The trace is partitioned into disjoint sub-traces simulated independently
// and sequentially within themselves; batching the i-th instruction of all
// resident sub-traces gives each GPU large inference batches, and sub-traces
// are distributed across GPUs with zero communication until the final Clock
// gather. Context loss at partition boundaries causes prediction error;
// two recovery mechanisms reduce it:
//   warmup            — re-simulate W = context_length instructions before
//                       each partition to pre-fill the context space;
//   post-error correction — after a partition finishes, its owner
//                       re-simulates the head of the *next* partition from
//                       the accurate end-of-partition state, replacing the
//                       inaccurate head predictions; re-simulation stops
//                       when the context-instruction count matches the
//                       initial simulation's count, or at a fixed limit.
//                       The first partition of each GPU is never corrected
//                       (keeps inter-GPU communication at zero).
//
// Fault tolerance (docs/RESILIENCE.md): with a FaultInjector attached, the
// engine tolerates device kills (failed partitions are requeued with
// re-warmup under a retry budget with exponential backoff in modeled time),
// stragglers (modeled slowdown), and corrupted inference outputs (per-batch
// anomaly guard with graceful degradation to a fallback predictor). With
// checkpointing enabled, a killed run resumes bit-identically.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "core/cost_model.h"
#include "core/predictor.h"
#include "core/sim_output.h"
#include "device/fault.h"
#include "trace/trace.h"

namespace mlsim::core {

struct ParallelSimOptions {
  std::size_t num_subtraces = 4;
  std::size_t num_gpus = 1;
  std::size_t context_length = kDefaultContextLength;
  std::size_t warmup = 0;            // instructions; paper uses context_length
  bool post_error_correction = false;
  std::size_t correction_limit = 100;  // paper's threshold (§VI-C)
  std::size_t batch_n = 10;
  device::Engine engine = device::Engine::kTensorRTSparse;
  /// FLOPs per inference window for the time model when the predictor
  /// itself reports 0 (analytic/oracle) — set to the 3C+2F model's FLOPs to
  /// model production throughput while using a fast functional predictor.
  std::size_t assumed_flops_per_window = 0;
  bool record_predictions = false;     // keep per-instruction predictions
  bool record_context_counts = false;  // keep all context counts
  CostModel costs;

  // ---- Fault tolerance (docs/RESILIENCE.md) --------------------------------
  /// Fault injector; nullptr or an inert injector means fault-free, and the
  /// engine is then bit-identical to a build without this layer.
  const device::FaultInjector* faults = nullptr;
  /// Predictor substituted for a partition whose inference outputs trip the
  /// anomaly guard (graceful degradation). Required for corruption recovery.
  LatencyPredictor* fallback = nullptr;
  /// Per-latency upper bound accepted from the predictor; any latency above
  /// it is an anomaly (NaN/garbage after int conversion). 0 disables the
  /// guard. The default is orders of magnitude above any genuine latency,
  /// so fault-free predictions are untouched.
  std::uint32_t anomaly_latency_limit = 1u << 20;
  /// Re-runs a single partition may consume (kills + anomaly degradations)
  /// before the run fails with CheckError.
  std::size_t max_retries_per_partition = 3;
  /// Modeled backoff before the first retry of a partition; doubles on each
  /// subsequent retry (exponential backoff in modeled time).
  double retry_backoff_us = 50.0;

  // ---- Checkpoint/restart --------------------------------------------------
  /// When non-empty, the run's progress is serialized here after every
  /// partition (atomic rename + checksum); removed once the run completes.
  std::filesystem::path checkpoint_path;
  /// Resume from checkpoint_path if a valid checkpoint exists (fresh run
  /// otherwise). The checkpoint fingerprint must match this trace + options.
  bool resume = false;
  /// With resume: a corrupt, truncated, or mismatched checkpoint normally
  /// throws CheckError. Lenient mode records the error in
  /// ParallelSimResult::resume_error and falls back to a clean start instead
  /// — the mode for unattended services where a torn checkpoint must never
  /// wedge the run.
  bool resume_lenient = false;

  /// Cooperative cancellation: polled once per instruction; a cancelled or
  /// past-deadline run throws CancelledError. nullptr = never cancelled.
  const CancelToken* cancel = nullptr;
};

struct ParallelSimResult {
  std::uint64_t total_cycles = 0;  // sum of per-partition Clocks
  std::size_t instructions = 0;
  double sim_time_us = 0.0;  // modeled: slowest GPU + final gather
  std::size_t corrected_instructions = 0;  // re-simulated by correction
  std::size_t warmup_instructions = 0;     // extra work spent on warmup

  double cpi() const {
    return instructions
               ? static_cast<double>(total_cycles) / static_cast<double>(instructions)
               : 0.0;
  }
  double mips() const {
    return sim_time_us > 0.0 ? static_cast<double>(instructions) / sim_time_us : 0.0;
  }

  /// Per-instruction final predictions / context counts (when recorded).
  std::vector<LatencyPrediction> predictions;
  std::vector<std::uint16_t> context_counts;
  /// Partition boundaries (begin index of each partition, plus end sentinel).
  std::vector<std::size_t> boundaries;

  // ---- Fault-recovery outcome (empty/zero on a fault-free run) -------------
  /// Partitions whose device slot was killed at least once (requeued).
  std::vector<std::size_t> failed_partitions;
  /// Partitions that finished on the fallback predictor (degraded mode).
  std::vector<std::size_t> degraded_partitions;
  std::size_t retries = 0;       // total partition re-runs
  std::size_t lost_devices = 0;  // device slots lost to kills
  double retry_backoff_us = 0.0; // modeled backoff folded into sim_time_us
  bool resumed = false;          // run continued from a checkpoint
  /// Lenient resume only: why the checkpoint was rejected (empty = it was
  /// fine or there was none); the run started clean.
  std::string resume_error;
};

class ParallelSimulator {
 public:
  ParallelSimulator(LatencyPredictor& predictor, ParallelSimOptions opts);

  ParallelSimResult run(const trace::EncodedTrace& trace);

  /// Paper §V-B error definition between a sequential reference CPI and a
  /// parallel CPI: (seq - par) / seq * 100.
  static double cpi_error_percent(double sequential_cpi, double parallel_cpi);

 private:
  LatencyPredictor& predictor_;
  ParallelSimOptions opts_;
};

/// Block partition boundaries for `n` instructions into P parts (remainder
/// spread left). Returned vector has P+1 entries, [0] = 0, [P] = n.
std::vector<std::size_t> partition_boundaries(std::size_t n, std::size_t parts);

/// Extra modeled-time terms contributed by fault recovery.
struct ParallelTimePenalties {
  std::size_t lost_devices = 0;  // device slots killed mid-run
  double backoff_us = 0.0;       // accumulated retry backoff
};

/// Simulated-time model shared by the parallel engines: per-GPU lockstep
/// batched stepping plus the final Clock gather. `partition_steps[p]` is
/// the number of inference steps partition p consumed (body + warmup +
/// corrections it performed, plus any steps burnt by failed attempts).
/// Lost devices shrink the surviving pool (requeued partitions pack onto
/// fewer GPUs) and backoff adds directly to the critical path.
double model_parallel_time_us(const ParallelSimOptions& opts,
                              const std::vector<std::size_t>& partition_steps,
                              std::size_t flops_per_window,
                              double avg_context_occupancy,
                              const ParallelTimePenalties& penalties = {});

}  // namespace mlsim::core
