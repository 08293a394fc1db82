#include "core/simulator.h"

#include <sstream>

#include "common/artifacts.h"
#include "common/check.h"
#include "common/stats.h"
#include "core/metrics.h"

namespace mlsim::core {

namespace {
std::uint64_t machine_fingerprint(const uarch::MachineConfig& m) {
  // Structural hash over every field that can change traces/labels. The
  // sweep subsystem keys the trace artifact cache with this, so any field a
  // sweep axis can touch MUST be mixed in — an omission makes two distinct
  // configurations share one cached trace.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(m.core.fetch_width);
  mix(m.core.issue_width);
  mix(m.core.commit_width);
  mix(m.core.iq_entries);
  mix(m.core.rob_entries);
  mix(m.core.lq_entries);
  mix(m.core.sq_entries);
  mix(m.core.frontend_depth);
  const auto mix_cache = [&](const uarch::CacheConfig& c) {
    mix(c.size_bytes);
    mix(c.assoc);
    mix(c.line_bytes);
    mix(c.mshrs);
    mix(c.latency);
    mix(static_cast<std::uint64_t>(c.replacement) |
        (static_cast<std::uint64_t>(c.next_line_prefetch) << 8));
  };
  mix_cache(m.l1i);
  mix_cache(m.l1d);
  mix_cache(m.l2);
  mix(m.tlb.l1_entries);
  mix(m.tlb.l2_entries);
  mix(m.tlb.l2_assoc);
  mix(m.tlb.mshrs);
  mix(m.tlb.l2_latency);
  mix(m.tlb.walk_latency);
  mix(m.tlb.page_bytes);
  mix(static_cast<std::uint64_t>(m.bp.kind));
  mix(m.bp.choice_bits);
  mix(m.bp.direction_bits);
  mix(m.bp.history_bits);
  mix(m.bp.local_history_entries);
  mix(m.bp.btb_entries);
  mix(m.bp.mispredict_penalty);
  mix(m.memory_latency);
  return h;
}
}  // namespace

trace::EncodedTrace labeled_trace(const std::string& abbr, std::size_t n,
                                  const uarch::MachineConfig& machine,
                                  std::uint64_t seed, bool use_cache) {
  const auto make = [&] {
    return uarch::make_encoded_trace(trace::find_workload(abbr), n, machine, seed);
  };
  if (!use_cache) return make();
  std::ostringstream name;
  name << "trace_" << abbr << '_' << n << '_' << std::hex
       << machine_fingerprint(machine) << '_' << seed << ".bin";
  return cached_artifact<trace::EncodedTrace>(name.str(), make);
}

MLSimulator::MLSimulator(Options opts)
    : opts_(std::move(opts)), analytic_(opts_.machine) {}

void MLSimulator::use_cnn(SimNetBundle bundle) {
  opts_.context_length = bundle.model.config().window - 1;
  cnn_.emplace(std::move(bundle), opts_.engine);
}

LatencyPredictor& MLSimulator::predictor() {
  if (cnn_.has_value()) return *cnn_;
  return analytic_;
}

std::size_t MLSimulator::default_flops() const {
  if (opts_.assumed_flops_per_window != 0) return opts_.assumed_flops_per_window;
  return simnet3c2f_flops(opts_.context_length + 1);
}

SimOutput MLSimulator::simulate(const trace::EncodedTrace& trace) {
  device::Device dev(opts_.gpu);
  GpuSimOptions o;
  o.context_length = opts_.context_length;
  o.batch_n = opts_.batch_n;
  o.engine = opts_.engine;
  o.costs.gpu = opts_.gpu;
  GpuSimulator sim(predictor(), dev, o);
  return sim.run(trace);
}

SimOutput MLSimulator::simulate_sequential(const trace::EncodedTrace& trace) {
  SequentialSimOptions o;
  o.context_length = opts_.context_length;
  o.costs.gpu = opts_.gpu;
  SequentialSimulator sim(predictor(), o);
  return sim.run(trace);
}

ParallelSimOptions MLSimulator::parallel_options(std::size_t num_subtraces,
                                                 std::size_t num_gpus,
                                                 bool warmup,
                                                 bool correction) const {
  ParallelSimOptions o;
  o.num_subtraces = num_subtraces;
  o.num_gpus = num_gpus;
  o.context_length = opts_.context_length;
  o.warmup = warmup ? opts_.context_length : 0;
  o.post_error_correction = correction;
  o.batch_n = opts_.batch_n;
  o.engine = opts_.engine;
  o.costs.gpu = opts_.gpu;
  o.assumed_flops_per_window = default_flops();
  return o;
}

ParallelSimResult MLSimulator::simulate_parallel(const trace::EncodedTrace& trace,
                                                 std::size_t num_subtraces,
                                                 std::size_t num_gpus, bool warmup,
                                                 bool correction) {
  return simulate_parallel(trace,
                           parallel_options(num_subtraces, num_gpus, warmup,
                                            correction));
}

ParallelSimResult MLSimulator::simulate_parallel(const trace::EncodedTrace& trace,
                                                 const ParallelSimOptions& opts) {
  ParallelSimOptions o = opts;
  if (o.fallback == nullptr) o.fallback = &analytic_;
  ParallelSimulator sim(predictor(), o);
  return sim.run(trace);
}

double MLSimulator::cpi_error_percent(const trace::EncodedTrace& labeled,
                                      double simulated_cpi) const {
  check(labeled.labeled(), "ground truth required for error computation");
  const double truth =
      static_cast<double>(total_cycles_from_targets(labeled)) /
      static_cast<double>(labeled.size());
  return signed_percent_error(truth, simulated_cpi);
}

}  // namespace mlsim::core
