// Shard layer of the parallel engine (paper §V; docs/DISTRIBUTED.md).
//
// A *shard* is the contiguous block of sub-trace partitions owned by one
// modeled GPU — the natural unit of distribution, because the paper's
// post-error correction never crosses a GPU boundary (zero inter-GPU
// communication), so a shard is simulatable with no state from any other
// shard. Every executor of a partitioned run is built from these pieces:
//
//   ShardPlan    — partition boundaries + the block layout (who owns what);
//   ShardOutcome — the run ledger over a partition range: per-partition
//                  accounting, fault bookkeeping, occupancy counts, and the
//                  recorded outputs. It is the only record of a partitioned
//                  run. The engine keeps its state in a full-plan ledger, a
//                  distributed worker ships a slice of it in its Result
//                  frame, the in-process checkpoint stores its completed
//                  prefix (both through put_outcome/get_outcome), and
//                  absorb() merges slices back. Every field but the backoff
//                  sum is an integer, and the backoff terms are whole
//                  microseconds at the default settings, so every merge is
//                  exact: the distributed and resumed results are
//                  bit-identical to one uninterrupted in-process run;
//   ShardEngine  — runs partitions in ascending order into its ledger,
//                  carrying the retire ring and the end-of-partition
//                  correction snapshot across calls;
//   finalize     — the one tail of every partitioned run, turning a
//                  full-plan ledger into a ParallelSimResult.
#pragma once

#include <cstdint>
#include <vector>

#include "common/wire.h"
#include "core/parallel_sim.h"

namespace mlsim::core {

/// Partition boundaries plus the per-GPU block layout of a run. Computed
/// identically by the in-process engine, the coordinator, and every worker,
/// from (trace size, options) alone.
struct ShardPlan {
  std::vector<std::size_t> boundaries;  // P+1 entries
  std::size_t instructions = 0;         // n
  std::size_t parts = 0;                // P = min(num_subtraces, n)
  std::size_t gpus = 0;                 // G = min(num_gpus, P)
  std::size_t per_gpu = 0;              // ceil(P / G): block size
  std::size_t num_shards = 0;           // ceil(P / per_gpu) <= G

  /// Throws CheckError unless n, num_subtraces, num_gpus and context_length
  /// are all at least 1 — the one gate every executor passes through.
  static ShardPlan make(std::size_t n, const ParallelSimOptions& opts);

  std::size_t gpu_of(std::size_t p) const { return p / per_gpu; }
  /// Partition range [lo, hi) of shard (block) s.
  std::size_t shard_lo(std::size_t s) const { return s * per_gpu; }
  std::size_t shard_hi(std::size_t s) const {
    const std::size_t hi = (s + 1) * per_gpu;
    return hi < parts ? hi : parts;
  }
};

/// The run ledger over partitions [part_lo, part_hi) of a plan.
struct ShardOutcome {
  std::uint64_t part_lo = 0;
  std::uint64_t part_hi = 0;

  // Per-partition accounting, size part_hi - part_lo.
  std::vector<std::uint64_t> partition_cycles;
  std::vector<std::uint64_t> partition_steps;   // incl. warmup + corrections
  std::vector<std::uint64_t> partition_wasted;  // burnt by failed attempts
  std::vector<std::uint32_t> final_attempt;     // successful attempt index

  // Fault-recovery bookkeeping (absolute partition indices, completion
  // order). A GPU slot is lost exactly when one of its partitions failed.
  std::vector<std::uint64_t> failed_partitions;    // hit by a device kill
  std::vector<std::uint64_t> degraded_partitions;  // finished on the fallback
  std::uint64_t warmup_instructions = 0;
  std::uint64_t corrected_instructions = 0;
  std::uint64_t retries = 0;
  double backoff_us = 0.0;

  /// Context occupancy, sampled every 64th simulated instruction: the
  /// number of samples and the sum of their context counts.
  std::uint64_t occupancy_samples = 0;
  std::uint64_t occupancy_sum = 0;

  /// Recorded outputs for instruction range [boundaries[lo], boundaries[hi])
  /// (present only when the run records them).
  std::vector<LatencyPrediction> predictions;
  std::vector<std::uint16_t> context_counts;

  /// Zeroed ledger over every partition of `plan`, with the recorded-output
  /// arrays `opts` asks for.
  static ShardOutcome full(const ShardPlan& plan,
                           const ParallelSimOptions& opts);

  /// Merge `o`, a ledger over a sub-range of this one, into this ledger:
  /// per-partition entries and recorded outputs are copied into place, fault
  /// lists appended, counters summed. Throws CheckError, leaving this ledger
  /// untouched, unless `o` lies inside this range and is shaped for it.
  void absorb(const ShardPlan& plan, const ShardOutcome& o);
};

/// The ledger's codec, shared by the dist Result frame and the checkpoint.
/// get_outcome reads every field, bounding each count by the bytes left; it
/// checks no shape (absorb does).
void put_outcome(wire::Writer& w, const ShardOutcome& o);
ShardOutcome get_outcome(wire::Reader& r);

/// End state of the last completed partition: the retire ring, Clock, and
/// oldest in-window instruction that post-error correction of the next
/// partition starts from. `prev_ring` is empty before the first snapshot.
struct CorrectionSnapshot {
  std::uint64_t prev_clock = 0;
  std::uint64_t prev_oldest = 0;
  std::vector<std::uint64_t> prev_ring;
};

/// Executes partitions of a partitioned run in ascending order into a
/// full-plan ledger. `predictor`, `trace`, `opts`, and `plan` must outlive
/// the engine.
class ShardEngine {
 public:
  ShardEngine(LatencyPredictor& predictor, const trace::EncodedTrace& trace,
              const ParallelSimOptions& opts, const ShardPlan& plan);

  /// Run partition p: the fault-tolerant attempt loop (kills, anomaly
  /// degradation, retry budget) plus post-error correction of p's head
  /// against the previous partition's end state. Call with ascending p;
  /// skipping to the first partition of a block is valid (blocks are
  /// independent), skipping within a block is not.
  void run_partition(std::size_t p);

  /// Continue a run whose partitions [0, prefix.part_hi) completed earlier.
  /// Validates the snapshot and the prefix before touching the engine
  /// (CheckError otherwise); call on a fresh engine.
  void resume(const CorrectionSnapshot& snapshot, const ShardOutcome& prefix);

  const ShardOutcome& ledger() const { return ledger_; }
  const CorrectionSnapshot& snapshot() const { return snapshot_; }

  /// Slice [part_lo, part_hi) of the ledger. Counters and fault lists are
  /// engine-wide, so the slice is exact when the engine ran (or resumed)
  /// exactly that range: a worker's block, or a checkpoint's prefix.
  ShardOutcome block_outcome(std::size_t part_lo, std::size_t part_hi) const;

 private:
  void charge_retry(std::size_t part, std::size_t& attempt, const char* why);

  LatencyPredictor& predictor_;
  const trace::EncodedTrace& trace_;
  const ParallelSimOptions& opts_;
  const ShardPlan& plan_;
  const device::FaultInjector* faults_;  // null when disabled

  ShardOutcome ledger_;
  CorrectionSnapshot snapshot_;

  std::vector<std::uint32_t> fetch_lat_;
  std::vector<std::vector<std::uint16_t>> head_counts_;
  std::vector<std::uint64_t> ring_;
};

/// Identity of a (trace, options) pair: checkpoints may only resume into —
/// and workers may only compute shards for — the exact run that produced it.
/// `die_after_partition` is deliberately excluded (see device/fault.h): the
/// resumed run is the same run minus the process death.
std::uint64_t run_fingerprint(const trace::EncodedTrace& tr,
                              const ParallelSimOptions& o, std::size_t parts);

/// Shared tail of every partitioned run, in-process or merged from shards:
/// sums per-partition cycles, derives the lost devices from the failed
/// partitions, computes the modeled simulated time from the ledger, and
/// emits the engine-level obs gauges. `ledger` must cover the whole plan;
/// `predictor_flops` feeds the time model (0 = opts' assumed FLOPs).
ParallelSimResult finalize(const ParallelSimOptions& opts,
                           const ShardPlan& plan, const ShardOutcome& ledger,
                           std::size_t predictor_flops);

}  // namespace mlsim::core
