// cnn_sim: one thread simulates held-out benchmarks one run at a time
// through core::MLSimulator with a SimNet bundle trained during setup,
// alternating simulate() and simulate_parallel() (warmup + correction on).
// Batch-1 CNN inference dominates host time here.
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>

#include "common/artifacts.h"
#include "core/gpu_sim.h"
#include "core/lockstep_sim.h"
#include "core/sequential_sim.h"
#include "core/shard.h"
#include "core/simnet_trainer.h"
#include "core/simulator.h"
#include "trace/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace mc = mlsim::core;

// Held-out (Table I test split) benchmarks spanning pointer-chasing,
// streaming, branchy, compute-bound and SIMD-heavy behaviour. The training
// benchmarks {perl, gcc, bwav, namd} are never simulated.
const char* const kHeldOut[] = {"mcf", "lbm", "xz", "exch", "x264", "nab", "deep", "roms"};
constexpr std::size_t kSubtraces = 4;

std::string file_bytes(const std::filesystem::path& p) {
  std::string bytes(std::filesystem::file_size(p), '\0');
  std::ifstream(p, std::ios::binary).read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

class CnnSim final : public Workload {
 public:
  explicit CnnSim(const Args& a) : a_(a) {}

  void setup(bool traced) override {
    // Reduced bundle: one epoch over a short trace of each training
    // benchmark, from fixed seeds, so every run trains the same weights.
    std::vector<mlsim::trace::EncodedTrace> train;
    std::vector<const mlsim::trace::EncodedTrace*> ptrs;
    for (const auto& abbr : mlsim::trace::train_benchmarks()) {
      train.push_back(mc::labeled_trace(abbr, scaled(2000, a_.scale), {}, 1, false));
    }
    for (const auto& t : train) ptrs.push_back(&t);
    mc::SimNetTrainConfig cfg;
    cfg.epochs = 1;
    mc::SimNetBundle bundle = mc::train_simnet(ptrs, cfg);
    bundle_path_ = mlsim::artifact_path("perfbench_cnn_sim.bundle");
    bundle.save(bundle_path_);
    const std::string bytes = file_bytes(bundle_path_);
    if (!bundle_bytes_.empty() && bytes != bundle_bytes_) {
      setup_failures.push_back("the SimNet bundle differed between setup runs");
    }
    bundle_bytes_ = bytes;

    // One trace per held-out benchmark, lengths spread over a range; a pass
    // alternates simulate and simulate_parallel over every trace in two
    // orders drawn from the workload seed.
    SeededRng rng(a_.seed);
    traces_.clear();
    for (std::size_t i = 0; i < std::size(kHeldOut); ++i) {
      const std::size_t n = scaled(spread_size(i, std::size(kHeldOut), 300, 700), a_.scale, 32);
      traces_.add(kHeldOut[i], n, corpus_seed(i), traced, spans);
    }
    std::vector<std::size_t> simple(traces_.size()), parallel(traces_.size());
    for (std::size_t i = 0; i < traces_.size(); ++i) simple[i] = parallel[i] = i;
    rng.shuffle(simple);
    rng.shuffle(parallel);
    ops_.clear();
    for (std::size_t i = 0; i < traces_.size(); ++i) {
      ops_.push_back({simple[i], false});
      ops_.push_back({parallel[i], true});
    }

    sim_ = std::make_unique<mc::MLSimulator>();
    sim_->use_cnn(std::move(bundle));
    if (traced) {
      traced_cnn_.emplace(mc::SimNetBundle::load(bundle_path_));
      timed_ = std::make_unique<TimedPredictor>(*traced_cnn_, false);
    }
  }

  std::size_t pass_length() const override { return ops_.size(); }

  OpResult run_op(std::size_t k, bool traced) override {
    const Op& op = ops_[k % ops_.size()];
    const mlsim::trace::EncodedTrace& tr = traces_[op.trace];
    if (!traced) {
      if (!op.parallel) return from_sim(sim_->simulate(tr));
      return from_par(sim_->simulate_parallel(tr, kSubtraces, 1, true, true));
    }
    // Traced: the same engines MLSimulator drives, with its options, but
    // with the predictor behind the timing decorator.
    const mc::MLSimulator::Options& o = sim_->options();
    OpResult out;
    const auto t0 = Clock::now();
    if (!op.parallel) {
      ScopedSpan s(spans, "core.MLSimulator::simulate", k);
      mlsim::device::Device dev(o.gpu);
      mc::GpuSimOptions go;
      go.context_length = o.context_length;
      go.batch_n = o.batch_n;
      go.engine = o.engine;
      go.costs.gpu = o.gpu;
      out = from_sim(mc::GpuSimulator(*timed_, dev, go).run(tr));
    } else {
      ScopedSpan s(spans, "core.MLSimulator::simulate_parallel", k);
      mc::ParallelSimOptions po = sim_->parallel_options(kSubtraces, 1, true, true);
      po.fallback = &analytic_;
      out = from_par(mc::ParallelSimulator(*timed_, po).run(tr));
    }
    engine_ns_ += ns_between(t0, Clock::now());
    engine_inst_ += tr.size();
    return out;
  }

  OpResult reference(std::size_t k) override {
    // A separate predictor loaded from the saved bundle. simulate() is
    // checked against the sequential engine, simulate_parallel() against
    // the lockstep engine (batched CNN path); tests hold both bit-identical.
    if (!ref_cnn_) ref_cnn_.emplace(mc::SimNetBundle::load(bundle_path_));
    const Op& op = ops_[k % ops_.size()];
    const mlsim::trace::EncodedTrace& tr = traces_[op.trace];
    const std::size_t ctx = sim_->options().context_length;
    OpResult ref;
    if (!op.parallel) {
      mc::SequentialSimOptions so;
      so.context_length = ctx;
      ref = from_sim(mc::SequentialSimulator(*ref_cnn_, so).run(tr));
    } else {
      mc::ParallelSimOptions po;
      po.num_subtraces = kSubtraces;
      po.context_length = ctx;
      po.warmup = ctx;
      po.post_error_correction = true;
      po.fallback = &analytic_;
      ref = from_par(mc::LockstepParallelSimulator(*ref_cnn_, po).run(tr));
    }
    ref.truth_cpi = truth_cpi_of(tr);
    return ref;
  }

  void layer_metrics(const PhaseResult& /*untraced*/, const PhaseResult& traced,
                     Report& r) override {
    traces_.report(spans, r);
    // run_fingerprint of each parallel op, timed after the traced phase so
    // the phase's wall-clock holds only the engine calls.
    std::uint64_t fingerprinted = 0;
    for (const OpRecord& rec : traced.ops) {
      const Op& op = ops_[rec.k % ops_.size()];
      if (!op.parallel) continue;
      const mlsim::trace::EncodedTrace& tr = traces_[op.trace];
      const mc::ParallelSimOptions po = sim_->parallel_options(kSubtraces, 1, true, true);
      ScopedSpan s(spans, "core.run_fingerprint", rec.k);
      mc::run_fingerprint(tr, po, std::min(kSubtraces, tr.size()));
      fingerprinted += tr.size();
    }
    const TimedPredictor::Counters c = timed_->counters();
    const double flops = static_cast<double>(timed_->flops_per_window(0));
    const double windows = static_cast<double>(std::max<std::uint64_t>(c.windows, 1));
    r.add("tensor.predict_us_per_window", static_cast<double>(c.predict_ns) / windows / 1e3, "us");
    r.add("tensor.gflops",
          c.predict_ns ? flops * static_cast<double>(c.windows) / static_cast<double>(c.predict_ns)
                       : 0.0,
          "GFLOP/s");
    r.add("tensor.flops_per_window", flops, "flop");
    add_core_metrics(c, engine_ns_, spans.total_ns("core.run_fingerprint"), fingerprinted,
                     engine_inst_, r);
    add_modeled_metric(traced, r);
  }

 private:
  struct Op {
    std::size_t trace;
    bool parallel;
  };

  static OpResult from_sim(const mc::SimOutput& o) {
    return {o.cycles, o.instructions, o.cpi(), o.sim_time_us, true, {}, 0.0};
  }
  static OpResult from_par(const mc::ParallelSimResult& o) {
    return {o.total_cycles, o.instructions, o.cpi(), o.sim_time_us, true, {}, 0.0};
  }

  Args a_;
  TraceSet traces_;
  std::vector<Op> ops_;
  std::unique_ptr<mc::MLSimulator> sim_;
  std::filesystem::path bundle_path_;
  std::string bundle_bytes_;
  mc::AnalyticPredictor analytic_;
  std::optional<mc::CnnPredictor> traced_cnn_;
  std::unique_ptr<TimedPredictor> timed_;
  std::optional<mc::CnnPredictor> ref_cnn_;
  std::uint64_t engine_ns_ = 0, engine_inst_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_cnn_sim(const Args& a) {
  return std::make_unique<CnnSim>(a);
}

}  // namespace perfbench
