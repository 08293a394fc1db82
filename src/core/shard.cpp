#include "core/shard.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <type_traits>

#include "common/check.h"
#include "obs/obs.h"

namespace mlsim::core {

std::uint64_t run_fingerprint(const trace::EncodedTrace& tr,
                              const ParallelSimOptions& o, std::size_t parts) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  auto mixd = [&](double d) { mix(std::bit_cast<std::uint64_t>(d)); };
  mix(tr.size());
  for (const char c : tr.benchmark()) mix(static_cast<unsigned char>(c));
  // Hash every feature and label, not a sample. The fingerprint keys the
  // shard-result cache and the run journal: two traces over the same
  // benchmark that differ only in mid-trace hit-level features (exactly what
  // a sweep axis over cache geometry produces — first and last instructions
  // typically coincide) must not collide, or a cached result from one config
  // is silently served for another. Results depend on the labels too
  // (warmup + post-error correction read ground truth), so they are mixed in
  // as well. Cost is one pass over data the caller is about to encode or
  // simulate anyway.
  for (const std::int32_t v : tr.raw_features()) {
    mix(static_cast<std::uint32_t>(v));
  }
  for (const std::uint32_t v : tr.raw_targets()) mix(v);
  mix(parts);
  mix(o.num_gpus);
  mix(o.context_length);
  mix(o.warmup);
  mix(o.post_error_correction ? 1 : 0);
  mix(o.correction_limit);
  mix(o.record_predictions ? 1 : 0);
  mix(o.record_context_counts ? 1 : 0);
  mix(o.anomaly_latency_limit);
  mix(o.max_retries_per_partition);
  mixd(o.retry_backoff_us);
  if (o.faults != nullptr && o.faults->enabled()) {
    const device::FaultOptions& f = o.faults->options();
    mix(f.seed);
    mixd(f.device_kill_rate);
    mixd(f.straggler_rate);
    mixd(f.straggler_slowdown);
    mixd(f.output_corrupt_rate);
  }
  return h;
}

ShardPlan ShardPlan::make(std::size_t n, const ParallelSimOptions& opts) {
  check(n > 0, "partitioned run needs at least one instruction");
  check(opts.num_subtraces > 0, "need at least one sub-trace");
  check(opts.num_gpus > 0, "need at least one GPU");
  check(opts.context_length > 0, "context length must be positive");
  ShardPlan plan;
  plan.instructions = n;
  plan.parts = std::min(opts.num_subtraces, n);
  plan.gpus = std::min(opts.num_gpus, plan.parts);
  plan.per_gpu = (plan.parts + plan.gpus - 1) / plan.gpus;
  plan.num_shards = (plan.parts + plan.per_gpu - 1) / plan.per_gpu;
  plan.boundaries = partition_boundaries(n, plan.parts);
  return plan;
}

ShardOutcome ShardOutcome::full(const ShardPlan& plan,
                                const ParallelSimOptions& opts) {
  ShardOutcome o;
  o.part_hi = plan.parts;
  o.partition_cycles.assign(plan.parts, 0);
  o.partition_steps.assign(plan.parts, 0);
  o.partition_wasted.assign(plan.parts, 0);
  o.final_attempt.assign(plan.parts, 0);
  if (opts.record_predictions) o.predictions.resize(plan.instructions);
  if (opts.record_context_counts) o.context_counts.assign(plan.instructions, 0);
  return o;
}

void ShardOutcome::absorb(const ShardPlan& plan, const ShardOutcome& o) {
  const std::size_t lo = o.part_lo, hi = o.part_hi;
  check(part_lo <= lo && lo < hi && hi <= part_hi,
        "ledger range outside the ledger it is absorbed into");
  check(o.partition_cycles.size() == hi - lo &&
            o.partition_steps.size() == hi - lo &&
            o.partition_wasted.size() == hi - lo &&
            o.final_attempt.size() == hi - lo,
        "ledger per-partition arrays do not match its range");
  for (const auto* list : {&o.failed_partitions, &o.degraded_partitions}) {
    for (const std::uint64_t p : *list) {
      check(p >= lo && p < hi, "ledger fault list names a partition outside "
                               "its range");
    }
  }
  const std::size_t i_lo = plan.boundaries[lo], i_hi = plan.boundaries[hi];
  check(o.predictions.size() == (predictions.empty() ? 0 : i_hi - i_lo),
        "ledger prediction range mismatch");
  check(o.context_counts.size() == (context_counts.empty() ? 0 : i_hi - i_lo),
        "ledger context-count range mismatch");

  // Copy `src` into `dst` from index `at`; append a fault list.
  const auto place = [](auto& dst, const auto& src, std::size_t at) {
    if (!src.empty()) {
      std::copy(src.begin(), src.end(),
                dst.begin() + static_cast<std::ptrdiff_t>(at));
    }
  };
  const auto append = [](auto& dst, const auto& src) {
    dst.insert(dst.end(), src.begin(), src.end());
  };
  place(partition_cycles, o.partition_cycles, lo - part_lo);
  place(partition_steps, o.partition_steps, lo - part_lo);
  place(partition_wasted, o.partition_wasted, lo - part_lo);
  place(final_attempt, o.final_attempt, lo - part_lo);
  append(failed_partitions, o.failed_partitions);
  append(degraded_partitions, o.degraded_partitions);
  warmup_instructions += o.warmup_instructions;
  corrected_instructions += o.corrected_instructions;
  retries += o.retries;
  backoff_us += o.backoff_us;
  occupancy_samples += o.occupancy_samples;
  occupancy_sum += o.occupancy_sum;
  place(predictions, o.predictions, i_lo - plan.boundaries[part_lo]);
  place(context_counts, o.context_counts, i_lo - plan.boundaries[part_lo]);
}

void put_outcome(wire::Writer& w, const ShardOutcome& o) {
  w.pod(o.part_lo);
  w.pod(o.part_hi);
  w.vec(o.partition_cycles);
  w.vec(o.partition_steps);
  w.vec(o.partition_wasted);
  w.vec(o.final_attempt);
  w.vec(o.failed_partitions);
  w.vec(o.degraded_partitions);
  w.pod(o.warmup_instructions);
  w.pod(o.corrected_instructions);
  w.pod(o.retries);
  w.pod(o.backoff_us);
  w.pod(o.occupancy_samples);
  w.pod(o.occupancy_sum);
  w.vec(o.predictions);
  w.vec(o.context_counts);
}

ShardOutcome get_outcome(wire::Reader& r) {
  ShardOutcome o;
  o.part_lo = r.pod<std::uint64_t>();
  o.part_hi = r.pod<std::uint64_t>();
  o.partition_cycles = r.vec<std::uint64_t>();
  o.partition_steps = r.vec<std::uint64_t>();
  o.partition_wasted = r.vec<std::uint64_t>();
  o.final_attempt = r.vec<std::uint32_t>();
  o.failed_partitions = r.vec<std::uint64_t>();
  o.degraded_partitions = r.vec<std::uint64_t>();
  o.warmup_instructions = r.pod<std::uint64_t>();
  o.corrected_instructions = r.pod<std::uint64_t>();
  o.retries = r.pod<std::uint64_t>();
  o.backoff_us = r.pod<double>();
  o.occupancy_samples = r.pod<std::uint64_t>();
  o.occupancy_sum = r.pod<std::uint64_t>();
  o.predictions = r.vec<LatencyPrediction>();
  o.context_counts = r.vec<std::uint16_t>();
  return o;
}

ShardEngine::ShardEngine(LatencyPredictor& predictor,
                         const trace::EncodedTrace& trace,
                         const ParallelSimOptions& opts, const ShardPlan& plan)
    : predictor_(predictor),
      trace_(trace),
      opts_(opts),
      plan_(plan),
      ledger_(ShardOutcome::full(plan, opts)) {
  faults_ = (opts_.faults != nullptr && opts_.faults->enabled()) ? opts_.faults
                                                                 : nullptr;
  ring_.assign(opts_.context_length, 0);
  fetch_lat_.assign(plan_.instructions, 0);
  if (opts_.post_error_correction) head_counts_.resize(plan_.parts);
}

void ShardEngine::resume(const CorrectionSnapshot& snapshot,
                         const ShardOutcome& prefix) {
  check(prefix.part_lo == 0, "resumed ledger is not a prefix of the run");
  check(snapshot.prev_ring.empty() ||
            snapshot.prev_ring.size() == opts_.context_length,
        "correction snapshot ring does not match the context length");
  ledger_.absorb(plan_, prefix);
  snapshot_ = snapshot;
}

// Charge one exponential-backoff step and consume one unit of the retry
// budget; throws CheckError once the partition is out of budget.
void ShardEngine::charge_retry(std::size_t part, std::size_t& attempt,
                               const char* why) {
  check(attempt < opts_.max_retries_per_partition,
        "partition " + std::to_string(part) + " retry budget (" +
            std::to_string(opts_.max_retries_per_partition) +
            ") exhausted; last failure: " + why);
  ledger_.backoff_us +=
      opts_.retry_backoff_us * std::ldexp(1.0, static_cast<int>(attempt));
  ++ledger_.retries;
  ++attempt;
  MLSIM_COUNTER_ADD(obs::names::kParSimRetries, 1);
}

void ShardEngine::run_partition(std::size_t p) {
  MLSIM_TRACE_SPAN("parallel_sim/partition");
  MLSIM_HIST_TIMER(obs::names::kParSimPartitionNs);
  const std::size_t rows = opts_.context_length + 1;
  const std::size_t cap = opts_.context_length;  // retire-ring capacity
  const std::uint32_t limit = opts_.anomaly_latency_limit;
  const bool correcting = opts_.post_error_correction;
  const std::size_t b = plan_.boundaries[p], e = plan_.boundaries[p + 1];
  const std::size_t h_begin = b >= opts_.warmup ? b - opts_.warmup : 0;
  const std::size_t head_limit =
      correcting ? std::min(opts_.correction_limit + 1, e - b) : 0;

  std::uint64_t clock = 0;
  std::size_t attempt = 0;
  bool killed = false;    // hit by a device kill at least once
  bool degraded = false;  // running on the fallback predictor

  for (;;) {  // attempt loop: body + re-warmup until an attempt survives
    // Kill decisions are pure in (partition, attempt), so a doomed attempt
    // is known up front: its results would be discarded anyway, so only
    // the modeled cost of the partial body is charged.
    if (faults_ != nullptr) {
      if (const auto kp = faults_->kill_point(p, attempt)) {
        const std::size_t body = e - h_begin;
        const std::size_t wasted = std::min(
            body, std::max<std::size_t>(
                      1, static_cast<std::size_t>(std::llround(
                             *kp * static_cast<double>(body)))));
        ledger_.partition_wasted[p] += wasted;
        if (!killed) {
          killed = true;
          ledger_.failed_partitions.push_back(p);
        }
        MLSIM_COUNTER_ADD(obs::names::kParSimDeviceKills, 1);
        charge_retry(p, attempt, "device kill");
        continue;  // requeued: next attempt re-warms from h_begin
      }
    }

    ledger_.warmup_instructions += b - h_begin;  // re-warmup is real extra work
    if (correcting) {
      head_counts_[p].clear();
      head_counts_[p].reserve(head_limit);
    }
    clock = 0;
    std::uint64_t clock_at_body = 0;
    LatencyPredictor& active = degraded ? *opts_.fallback : predictor_;
    const bool corrupting = faults_ != nullptr && !degraded &&
                            faults_->options().output_corrupt_rate > 0.0;
    bool anomaly = false;

    for (std::size_t i = h_begin; i < e; ++i) {
      if (opts_.cancel != nullptr) opts_.cancel->check();
      if (i == b) clock_at_body = clock;
      const LazyWindow lw(trace_, i, h_begin, ring_.data(), cap, clock, rows);

      const bool want_count =
          (opts_.record_context_counts && i >= b) ||
          (correcting && i >= b && i - b < head_limit) || ((i & 63) == 0);
      std::size_t cnt = 0;
      if (want_count) {
        cnt = lw.context_count();
        if ((i & 63) == 0) {
          ++ledger_.occupancy_samples;
          ledger_.occupancy_sum += cnt;
        }
        if (opts_.record_context_counts && i >= b) {
          ledger_.context_counts[i] = static_cast<std::uint16_t>(cnt);
        }
        if (correcting && i >= b && i - b < head_limit) {
          head_counts_[p].push_back(static_cast<std::uint16_t>(cnt));
        }
      }

      LatencyPrediction pr = active.predict_lazy(lw);
      if (corrupting && faults_->corrupts(p, attempt, i)) {
        const device::CorruptLatencies g =
            faults_->corrupt_latencies(p, attempt, i);
        pr = {g.fetch, g.exec, g.store};
      }
      if (limit != 0 &&
          (pr.fetch > limit || pr.exec > limit || pr.store > limit)) {
        // Anomalous inference output (a NaN/garbage latency would poison
        // the final Clock gather). Abort the attempt and requeue the
        // partition on the fallback predictor (degraded mode).
        MLSIM_COUNTER_ADD(obs::names::kParSimAnomalies, 1);
        check(!degraded, "anomalous prediction from the fallback "
                         "predictor on partition " + std::to_string(p));
        check(opts_.fallback != nullptr,
              "anomalous prediction on partition " + std::to_string(p) +
                  " and no fallback predictor configured");
        ledger_.partition_wasted[p] += i - h_begin + 1;
        degraded = true;
        ledger_.degraded_partitions.push_back(p);
        anomaly = true;
        break;
      }
      ring_[i % cap] = clock + pr.fetch + pr.exec + pr.store;
      clock += pr.fetch;
      if (i >= b) {
        fetch_lat_[i] = pr.fetch;
        if (opts_.record_predictions) ledger_.predictions[i] = pr;
      }
    }
    if (anomaly) {
      charge_retry(p, attempt, "anomalous inference output");
      continue;
    }
    ledger_.partition_cycles[p] = clock - clock_at_body;
    break;
  }
  ledger_.final_attempt[p] = static_cast<std::uint32_t>(attempt);
  ledger_.partition_steps[p] += e - h_begin;

  // ---- Post-error correction of this partition's head -----------------------
  if (correcting && p > 0 && plan_.gpu_of(p) == plan_.gpu_of(p - 1) &&
      !snapshot_.prev_ring.empty()) {
    MLSIM_TRACE_SPAN("parallel_sim/correction");
    // Corrections belong to this partition's predictions, so a degraded
    // partition is corrected by its fallback predictor too.
    LatencyPredictor& corr_pred = degraded ? *opts_.fallback : predictor_;
    std::vector<std::uint64_t>& prev_ring = snapshot_.prev_ring;
    std::size_t corrected = 0;
    std::uint64_t cclock = snapshot_.prev_clock;
    for (std::size_t j = 0; j < head_limit && b + j < e; ++j) {
      const std::size_t i = b + j;
      const LazyWindow lw(trace_, i, snapshot_.prev_oldest, prev_ring.data(),
                          cap, cclock, rows);
      const std::size_t cnt = lw.context_count();
      if (cnt == head_counts_[p][j]) break;  // contexts converged
      const LatencyPrediction pr = corr_pred.predict_lazy(lw);
      // Replace the head prediction; keep the partition totals consistent.
      ledger_.partition_cycles[p] += pr.fetch;
      ledger_.partition_cycles[p] -= fetch_lat_[i];
      fetch_lat_[i] = pr.fetch;
      if (opts_.record_predictions) ledger_.predictions[i] = pr;
      if (opts_.record_context_counts) {
        ledger_.context_counts[i] = static_cast<std::uint16_t>(cnt);
      }
      prev_ring[i % cap] = cclock + pr.fetch + pr.exec + pr.store;
      cclock += pr.fetch;
      ++corrected;
    }
    ledger_.corrected_instructions += corrected;
    // The *previous* partition re-simulates the corrected head.
    ledger_.partition_steps[p - 1] += corrected;
  }

  // Snapshot this partition's end state for correcting the next one.
  if (opts_.post_error_correction) {
    snapshot_.prev_ring = ring_;
    snapshot_.prev_clock = clock;
    snapshot_.prev_oldest = b >= opts_.warmup ? b - opts_.warmup : 0;
  }
  MLSIM_COUNTER_ADD(obs::names::kParSimPartitionsDone, 1);
}

ShardOutcome ShardEngine::block_outcome(std::size_t part_lo,
                                        std::size_t part_hi) const {
  check(part_lo < part_hi && part_hi <= plan_.parts, "invalid block range");
  ShardOutcome o;
  o.part_lo = part_lo;
  o.part_hi = part_hi;
  const auto slice = [](const auto& v, std::size_t lo, std::size_t hi) {
    return std::decay_t<decltype(v)>(
        v.begin() + static_cast<std::ptrdiff_t>(lo),
        v.begin() + static_cast<std::ptrdiff_t>(hi));
  };
  o.partition_cycles = slice(ledger_.partition_cycles, part_lo, part_hi);
  o.partition_steps = slice(ledger_.partition_steps, part_lo, part_hi);
  o.partition_wasted = slice(ledger_.partition_wasted, part_lo, part_hi);
  o.final_attempt = slice(ledger_.final_attempt, part_lo, part_hi);
  o.failed_partitions = ledger_.failed_partitions;
  o.degraded_partitions = ledger_.degraded_partitions;
  o.warmup_instructions = ledger_.warmup_instructions;
  o.corrected_instructions = ledger_.corrected_instructions;
  o.retries = ledger_.retries;
  o.backoff_us = ledger_.backoff_us;
  o.occupancy_samples = ledger_.occupancy_samples;
  o.occupancy_sum = ledger_.occupancy_sum;
  const std::size_t i_lo = plan_.boundaries[part_lo];
  const std::size_t i_hi = plan_.boundaries[part_hi];
  if (opts_.record_predictions) {
    o.predictions = slice(ledger_.predictions, i_lo, i_hi);
  }
  if (opts_.record_context_counts) {
    o.context_counts = slice(ledger_.context_counts, i_lo, i_hi);
  }
  return o;
}

ParallelSimResult finalize(const ParallelSimOptions& opts,
                           const ShardPlan& plan, const ShardOutcome& ledger,
                           std::size_t predictor_flops) {
  check(ledger.part_lo == 0 && ledger.part_hi == plan.parts,
        "finalize needs a ledger over the whole plan");
  const std::size_t P = plan.parts;
  const std::size_t rows = opts.context_length + 1;
  const device::FaultInjector* faults =
      (opts.faults != nullptr && opts.faults->enabled()) ? opts.faults : nullptr;

  ParallelSimResult res;
  res.instructions = plan.instructions;
  res.boundaries = plan.boundaries;
  res.warmup_instructions = ledger.warmup_instructions;
  res.corrected_instructions = ledger.corrected_instructions;
  res.retries = ledger.retries;
  res.failed_partitions.assign(ledger.failed_partitions.begin(),
                               ledger.failed_partitions.end());
  res.degraded_partitions.assign(ledger.degraded_partitions.begin(),
                                 ledger.degraded_partitions.end());
  res.predictions = ledger.predictions;
  res.context_counts = ledger.context_counts;
  for (std::size_t p = 0; p < P; ++p) {
    res.total_cycles += ledger.partition_cycles[p];
  }

  // ---- Simulated-time model (lockstep batched inference per GPU) ------------
  // Stragglers stretch a partition's successful pass; steps burnt by killed
  // or anomaly-aborted attempts add on top.
  std::vector<std::size_t> modeled_steps(P);
  for (std::size_t p = 0; p < P; ++p) {
    const double f = faults != nullptr
                         ? faults->straggler_factor(p, ledger.final_attempt[p])
                         : 1.0;
    modeled_steps[p] =
        static_cast<std::size_t>(std::llround(
            static_cast<double>(ledger.partition_steps[p]) * f)) +
        ledger.partition_wasted[p];
  }
  // A device slot is lost when any partition it owns was killed.
  std::vector<std::uint8_t> lost(plan.gpus, 0);
  for (const std::uint64_t p : ledger.failed_partitions) {
    lost[plan.gpu_of(p)] = 1;
  }
  ParallelTimePenalties penalties;
  penalties.lost_devices = static_cast<std::size_t>(
      std::count(lost.begin(), lost.end(), std::uint8_t{1}));
  // At least one device always survives to drain the requeued partitions.
  penalties.lost_devices = std::min(penalties.lost_devices, plan.gpus - 1);
  penalties.backoff_us = ledger.backoff_us;
  res.lost_devices = penalties.lost_devices;
  res.retry_backoff_us = ledger.backoff_us;

  std::size_t flops = predictor_flops;
  if (flops == 0) flops = opts.assumed_flops_per_window;
  if (flops == 0) flops = simnet3c2f_flops(rows);
  // Exact integer mean: one rounding, independent of how the ledger was
  // split across shards or checkpoints.
  const double occ =
      ledger.occupancy_samples != 0
          ? static_cast<double>(ledger.occupancy_sum) /
                static_cast<double>(ledger.occupancy_samples *
                                    opts.context_length)
          : 0.3;
  res.sim_time_us =
      model_parallel_time_us(opts, modeled_steps, flops, occ, penalties);
  if (obs::enabled()) {
    MLSIM_COUNTER_ADD(obs::names::kParSimInstructions, plan.instructions);
    MLSIM_COUNTER_ADD(obs::names::kParSimWarmupInstructions,
                      res.warmup_instructions);
    MLSIM_COUNTER_ADD(obs::names::kParSimCorrectedInstructions,
                      res.corrected_instructions);
    MLSIM_COUNTER_ADD(obs::names::kParSimDegradedPartitions,
                      res.degraded_partitions.size());
    MLSIM_GAUGE_SET(obs::names::kParSimLostDevices,
                    static_cast<double>(res.lost_devices));
    for (std::size_t p = 0; p < P; ++p) {
      MLSIM_HIST_RECORD(obs::names::kParSimAttemptsPerPartition,
                        static_cast<double>(ledger.final_attempt[p]) + 1.0);
    }
    // Mean valid fraction of the lockstep batch window — what the modeled
    // per-GPU batched inference actually occupies.
    MLSIM_GAUGE_SET(obs::names::kParSimBatchOccupancy, occ);
  }
  return res;
}

}  // namespace mlsim::core
