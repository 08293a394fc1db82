// sweep_cold: one thread calls sweep::run_sweep over cache geometry x
// replacement-policy lattices of a pointer-chasing, a streaming and a
// branchy benchmark, with the trace cache off, so every point regenerates
// its labeled trace. Analytic predictor: trace generation and the analytic
// engine take nearly all host time.
#include <iterator>

#include "core/analytic_predictor.h"
#include "core/parallel_sim.h"
#include "core/shard.h"
#include "core/simulator.h"
#include "sweep/lattice.h"
#include "sweep/sweep.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace mc = mlsim::core;
namespace ms = mlsim::sweep;

// Working sets that sit differently against the modeled L1D/L2.
const char* const kBenchmarks[] = {"mcf", "lbm", "exch"};  // chase, stream, branchy
constexpr std::size_t kSubtraces = 4;
constexpr std::size_t kContext = 64;  // SweepOptions default

class SweepCold final : public Workload {
 public:
  explicit SweepCold(const Args& a) : a_(a) {}

  void setup(bool traced) override {
    // The lattice is fixed; the workload seed orders the benchmarks and
    // each axis's values.
    SeededRng rng(a_.seed);
    defs_.clear();
    std::vector<std::size_t> order(std::size(kBenchmarks));
    for (std::size_t b = 0; b < order.size(); ++b) order[b] = b;
    rng.shuffle(order);
    for (const std::size_t b : order) {
      Def d;
      d.spec.benchmark = kBenchmarks[b];
      d.spec.instructions = scaled(80'000, a_.scale, 256);
      d.spec.axes = {{"l1d.size_kb", {"16", "64"}},
                     {"l2.size_kb", {"256", "2048"}},
                     {"l2.replacement", {"lru", "drrip"}}};
      for (ms::SweepAxis& axis : d.spec.axes) rng.shuffle(axis.values);
      d.seed = corpus_seed(b);
      d.points = ms::expand_lattice(d.spec);
      defs_.push_back(std::move(d));
    }
    where_.clear();
    for (std::size_t s = 0; s < defs_.size(); ++s) {
      for (std::size_t p = 0; p < defs_[s].points.size(); ++p) where_.push_back({s, p});
    }
    // Warm-up: one baseline point per benchmark, so first-touch allocation
    // and lazy initialisation are paid before the timed phase.
    for (const Def& d : defs_) {
      ms::SweepSpec base;
      base.benchmark = d.spec.benchmark;
      base.instructions = d.spec.instructions / 2;
      ms::SweepOptions so;
      so.seed = d.seed;
      so.use_trace_cache = false;
      ms::run_sweep(base, so);
    }
    if (traced) timed_ = std::make_unique<TimedPredictor>(analytic_, true);
  }

  std::size_t pass_length() const override { return where_.size(); }

  PhaseResult run_phase(std::size_t k0, double seconds, std::size_t granularity,
                        std::size_t max_ops, bool traced) override {
    PhaseResult p;
    const auto t0 = Clock::now();
    std::size_t k = k0;
    while (true) {
      const std::size_t done = k - k0;
      if (max_ops != 0 ? done >= max_ops
                       : done > 0 && done % granularity == 0 &&
                             seconds_between(t0, Clock::now()) >= seconds) {
        break;
      }
      const std::size_t s = where_[k % where_.size()].first;
      const std::size_t n = defs_[s].points.size();
      if (traced) {
        run_traced(s, k, p);
      } else {
        run_untraced(s, k, t0, p);
      }
      k += n;
    }
    p.wall_s = seconds_between(t0, Clock::now());
    return p;
  }

  OpResult reference(std::size_t k) override {
    // Staged trace generation (checked byte-identical to labeled_trace in
    // the traced run) and a direct ParallelSimulator run.
    const auto [s, i] = where_[k % where_.size()];
    const Def& d = defs_[s];
    Spans off;
    const auto tr = staged_trace(d.spec.benchmark, d.spec.instructions,
                                 d.points[i].machine, d.seed, off, k, nullptr);
    mc::AnalyticPredictor pred;
    mc::ParallelSimOptions po = options();
    po.fallback = &pred;
    const mc::ParallelSimResult r = mc::ParallelSimulator(pred, po).run(tr);
    return {r.total_cycles, r.instructions, r.cpi(), r.sim_time_us, true, {},
            truth_cpi_of(tr)};
  }

  void layer_metrics(const PhaseResult& untraced, const PhaseResult& traced,
                     Report& r) override {
    add_trace_stage_metrics(spans, counts_, r);
    // The staged pipeline must reproduce core::labeled_trace byte for byte.
    // The same traces time run_fingerprint, after the traced phase so the
    // `sweep.point` spans hold only what a sweep point runs.
    std::size_t identical = 0;
    std::uint64_t fingerprinted = 0;
    Spans off;
    for (std::size_t key = 0; key < where_.size(); ++key) {
      const Def& d = defs_[where_[key].first];
      const auto& m = d.points[where_[key].second].machine;
      const auto tr =
          staged_trace(d.spec.benchmark, d.spec.instructions, m, d.seed, off, key, nullptr);
      identical += same_trace(
          tr, mc::labeled_trace(d.spec.benchmark, d.spec.instructions, m, d.seed, false));
      ScopedSpan f(spans, "core.run_fingerprint", key);
      mc::run_fingerprint(tr, options(), std::min(kSubtraces, tr.size()));
      fingerprinted += tr.size();
    }
    check_identity(r, identical, where_.size(), "staged traces vs labeled_trace");

    std::vector<double> point_ms;
    for (const OpRecord& op : untraced.ops) point_ms.push_back(op.latency_ms);
    r.add("sweep.point_ms", median(point_ms), "ms");
    std::uint64_t stage_ns = 0;
    for (const char* stage : {"trace.FunctionalSim::next", "uarch.Annotator::annotate",
                              "uarch.OooCore::process", "trace.FeatureEncoder::encode"}) {
      stage_ns += spans.total_ns(stage);
    }
    // The decorator's own time (clock reads, context counting) is taken out
    // of the point time: an untraced point does not pay it.
    const TimedPredictor::Counters c = timed_->counters();
    const double point_ns = static_cast<double>(spans.total_ns("sweep.point")) -
                            static_cast<double>(c.call_ns - c.predict_ns - c.materialize_ns);
    r.add("sweep.trace_share", point_ns > 0 ? static_cast<double>(stage_ns) / point_ns : 0.0,
          "ratio");
    add_core_metrics(c, spans.total_ns("core.ParallelSimulator::run"),
                     spans.total_ns("core.run_fingerprint"), fingerprinted,
                     traced.instructions(), r);
    add_modeled_metric(traced, r);
    r.add("tensor.flops_per_window", static_cast<double>(analytic_.flops_per_window(0)),
          "flop");
  }

 private:
  struct Def {
    ms::SweepSpec spec;
    std::uint64_t seed = 1;
    std::vector<ms::SweepPoint> points;
  };

  static mc::ParallelSimOptions options() {
    mc::MLSimulator::Options mo;
    mo.context_length = kContext;
    return mc::MLSimulator(mo).parallel_options(kSubtraces, 1, true, true);
  }

  /// One run_sweep call; each completed point is an op whose latency is the
  /// interval between progress callbacks.
  void run_untraced(std::size_t s, std::size_t k, Clock::time_point t0, PhaseResult& p) {
    const Def& d = defs_[s];
    ms::SweepOptions so;
    so.num_subtraces = kSubtraces;
    so.context_length = kContext;
    so.seed = d.seed;
    so.use_trace_cache = false;
    const std::size_t first = p.ops.size();
    auto last = Clock::now();
    so.progress = [&](std::size_t done, std::size_t /*total*/) {
      const auto now = Clock::now();
      OpRecord rec;
      rec.k = k + done - 1;
      rec.latency_ms = seconds_between(last, now) * 1e3;
      rec.end_s = seconds_between(t0, now);
      last = now;
      p.ops.push_back(rec);
    };
    try {
      const ms::SweepReport rep = ms::run_sweep(d.spec, so);
      for (std::size_t i = 0; i < rep.points.size() && first + i < p.ops.size(); ++i) {
        const ms::SweepPointResult& pr = rep.points[i];
        p.ops[first + i].out = {pr.total_cycles, pr.instructions, pr.cpi, 0.0, true, {}, 0.0};
      }
    } catch (const std::exception& e) {
      p.ops.resize(first);
      for (std::size_t i = 0; i < d.points.size(); ++i) {
        OpRecord rec;
        rec.k = k + i;
        rec.out.ok = false;
        rec.out.error = e.what();
        rec.end_s = seconds_between(t0, Clock::now());
        p.ops.push_back(rec);
      }
    }
  }

  /// The same points with every stage driven directly under spans.
  void run_traced(std::size_t s, std::size_t k, PhaseResult& p) {
    const Def& d = defs_[s];
    for (std::size_t i = 0; i < d.points.size(); ++i) {
      OpRecord rec;
      rec.k = k + i;
      const auto t0 = Clock::now();
      try {
        ScopedSpan op(spans, "sweep.point", rec.k);
        const auto tr = staged_trace(d.spec.benchmark, d.spec.instructions,
                                     d.points[i].machine, d.seed, spans, rec.k, &counts_);
        mc::ParallelSimOptions po = options();
        po.fallback = &analytic_;
        ScopedSpan e(spans, "core.ParallelSimulator::run", rec.k);
        const mc::ParallelSimResult r = mc::ParallelSimulator(*timed_, po).run(tr);
        rec.out = {r.total_cycles, r.instructions, r.cpi(), r.sim_time_us, true, {}, 0.0};
      } catch (const std::exception& e) {
        rec.out.ok = false;
        rec.out.error = e.what();
      }
      rec.latency_ms = seconds_between(t0, Clock::now()) * 1e3;
      p.ops.push_back(std::move(rec));
    }
  }

  Args a_;
  std::vector<Def> defs_;
  std::vector<std::pair<std::size_t, std::size_t>> where_;  // op key -> (sweep, point)
  mc::AnalyticPredictor analytic_;
  std::unique_ptr<TimedPredictor> timed_;
  UarchCounts counts_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep_cold(const Args& a) {
  return std::make_unique<SweepCold>(a);
}

}  // namespace perfbench
