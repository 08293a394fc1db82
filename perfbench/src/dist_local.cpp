// dist_local: one dist::DistCoordinator and 2 in-process worker threads
// over loopback perform analytic parallel runs over distinct traces. Two
// runs in five repeat an earlier (trace, options) pair and are served by the
// coordinator's result cache; the others ship the trace in Welcome and
// compute both shards.
#include <algorithm>
#include <iterator>
#include <thread>

#include "core/analytic_predictor.h"
#include "core/parallel_sim.h"
#include "core/shard.h"
#include "core/simulator.h"
#include "dist/coordinator.h"
#include "dist/protocol.h"
#include "dist/worker.h"
#include "net/socket.h"
#include "trace/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace mc = mlsim::core;
namespace md = mlsim::dist;

constexpr std::size_t kWorkers = 2;
// One trace of each per seed: pointer-chasing, streaming, compression,
// branchy, SIMD-heavy and stencil behaviour.
const char* const kBenchmarks[] = {"mcf", "lbm", "xz", "exch", "x264", "roms"};
constexpr std::size_t kPool = std::size(kBenchmarks);  // cold runs per round
constexpr std::size_t kRepeats = 4;  // cache-served runs per round (40%)
static_assert(kRepeats + 1 < kPool);

class DistLocal final : public Workload {
 public:
  explicit DistLocal(const Args& a) : a_(a) {}
  ~DistLocal() override { teardown(); }
  DistLocal(const DistLocal&) = delete;
  DistLocal& operator=(const DistLocal&) = delete;

  void setup(bool traced) override {
    SeededRng rng(a_.seed);
    traces_.clear();
    for (std::size_t i = 0; i < kPool; ++i) {
      traces_.add(kBenchmarks[i], scaled(25'000, a_.scale, 256), corpus_seed(i), traced, spans);
    }
    // One round: every trace once, cold, in a seeded order, plus one repeat
    // each of traces 1..kRepeats at a seeded position after its cold run.
    // Round r runs with correction_limit 100 + r, a new options set, so
    // each round's first runs are cold again.
    std::vector<std::size_t> order(kPool);
    for (std::size_t i = 0; i < kPool; ++i) order[i] = i;
    rng.shuffle(order);
    round_.clear();
    for (const std::size_t t : order) round_.push_back({t, false});
    for (std::size_t t = 1; t <= kRepeats; ++t) {
      std::size_t cold = 0;
      while (round_[cold].trace != t || round_[cold].repeat) ++cold;
      const std::size_t at = cold + 1 + rng.below(round_.size() - cold);
      round_.insert(round_.begin() + static_cast<std::ptrdiff_t>(at), Op{t, true});
    }
    md::CoordinatorOptions co;
    co.min_workers = kWorkers;
    co.result_cache_entries = 1 << 16;
    coord_ = std::make_unique<md::DistCoordinator>(mlsim::net::TcpListener::bind(0), co);
    for (std::size_t w = 0; w < kWorkers; ++w) {
      workers_.emplace_back([port = coord_->port()] {
        md::WorkerConfig cfg;
        cfg.port = port;
        try {
          md::run_worker(cfg);
        } catch (const std::exception&) {
          // The listener closes at teardown while a worker may reconnect.
        }
      });
    }
    // Start-up ends with a handshake run: both workers have joined before
    // the first timed run.
    const auto hello = mc::labeled_trace("xz", 2000, {}, 1, false);
    coord_->run(hello, options(0));
    if (traced) timed_ = std::make_unique<TimedPredictor>(analytic_, true);
  }

  void teardown() override {
    coord_.reset();  // Shutdown to the workers, listener closed
    for (std::thread& t : workers_) t.join();
    workers_.clear();
  }

  std::size_t pass_length() const override { return round_.size(); }

  std::size_t distinct_key(std::size_t k) const override {
    return k / round_.size() * kPool + round_[k % round_.size()].trace;
  }

  OpResult run_op(std::size_t k, bool traced) override {
    const mlsim::trace::EncodedTrace& tr = traces_[round_[k % round_.size()].trace];
    const mc::ParallelSimOptions opts = options(k / round_.size());
    if (!traced) return from_par(coord_->run(tr, opts));

    const md::CoordinatorStats before = coord_->stats();
    const auto t0 = Clock::now();
    OpResult out;
    {
      ScopedSpan s(spans, "dist.DistCoordinator::run", k);
      out = from_par(coord_->run(tr, opts));
    }
    const std::uint64_t cluster_ns = ns_between(t0, Clock::now());
    if (coord_->stats().shards_dispatched == before.shards_dispatched) {
      cached_ms_.push_back(static_cast<double>(cluster_ns) / 1e6);
    } else {
      cold_.push_back({k, cluster_ns, out.cycles});
    }
    return out;
  }

  OpResult reference(std::size_t k) override {
    const mlsim::trace::EncodedTrace& tr = traces_[round_[k % round_.size()].trace];
    mc::AnalyticPredictor pred;
    mc::ParallelSimOptions po = options(k / round_.size());
    po.fallback = &pred;
    OpResult ref = from_par(mc::ParallelSimulator(pred, po).run(tr));
    ref.truth_cpi = truth_cpi_of(tr);
    return ref;
  }

  void layer_metrics(const PhaseResult& /*untraced*/, const PhaseResult& traced,
                     Report& r) override {
    traces_.report(spans, r);

    // After the traced phase, so its wall-clock holds only cluster runs:
    // each cold run again in-process, its fingerprint, and the Welcome
    // codec over its trace, each timed on its own.
    std::vector<double> cold_ms;
    std::uint64_t cold_cluster_ns = 0, local_inst = 0, welcome_bytes = 0;
    std::size_t local_same = 0, welcome_same = 0;
    for (const Cold& c : cold_) {
      const mlsim::trace::EncodedTrace& tr = traces_[round_[c.k % round_.size()].trace];
      const mc::ParallelSimOptions opts = options(c.k / round_.size());
      cold_ms.push_back(static_cast<double>(c.cluster_ns) / 1e6);
      cold_cluster_ns += c.cluster_ns;
      mc::ParallelSimOptions local = opts;
      local.fallback = &analytic_;
      {
        ScopedSpan s(spans, "core.ParallelSimulator::run", c.k);
        local_same += mc::ParallelSimulator(*timed_, local).run(tr).total_cycles == c.cycles;
      }
      local_inst += tr.size();
      std::uint64_t fp = 0;
      {
        ScopedSpan s(spans, "core.run_fingerprint", c.k);
        fp = mc::run_fingerprint(tr, opts, std::min(opts.num_subtraces, tr.size()));
      }
      std::string payload;
      {
        ScopedSpan s(spans, "dist.encode_welcome", c.k);
        payload = md::encode_welcome(1, fp, md::RunConfig::from_options(opts), tr);
      }
      {
        ScopedSpan s(spans, "dist.decode_welcome", c.k);
        welcome_same += same_trace(md::decode_welcome(payload, "perfbench").trace, tr);
      }
      welcome_bytes += payload.size();
    }
    check_identity(r, local_same, cold_.size(), "in-process runs vs cluster runs (cycles)");
    check_identity(r, welcome_same, cold_.size(),
                   "decode_welcome(encode_welcome(trace)) vs trace");

    const md::CoordinatorStats st = coord_->stats();
    const std::size_t hits = st.cache_hits - first_.cache_hits;
    const std::size_t lookups = hits + st.cache_misses - first_.cache_misses;
    // The traced phase runs whole rounds: its shard hit share must equal
    // the rounds' repeat share, and no shard may be reassigned.
    const double hit_frac =
        lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
    const double repeat_frac = static_cast<double>(kRepeats) / static_cast<double>(round_.size());
    check_identity(r, hit_frac == repeat_frac, 1, "cache hit share vs repeat share");
    check_identity(r, st.reassignments == first_.reassignments, 1, "no shard reassigned");

    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double cold_inst = d(local_inst);
    r.add("dist.cold_run_ms", median(cold_ms), "ms");
    r.add("dist.cached_run_ms", median(cached_ms_), "ms");
    const std::uint64_t local_ns = spans.total_ns("core.ParallelSimulator::run");
    r.add("dist.compute_share", cold_cluster_ns ? d(local_ns) / d(cold_cluster_ns) : 0.0, "ratio");
    r.add("dist.welcome_bytes_per_inst", d(welcome_bytes) / cold_inst, "B");
    r.add("dist.welcome_encode_ns_per_inst", d(spans.total_ns("dist.encode_welcome")) / cold_inst,
          "ns");
    r.add("dist.welcome_decode_ns_per_inst", d(spans.total_ns("dist.decode_welcome")) / cold_inst,
          "ns");
    r.add("dist.cache_hit_frac", hit_frac, "ratio");
    r.add("dist.shards_dispatched",
          d(st.shards_dispatched - first_.shards_dispatched) / d(traced.ops.size()), "1/run");
    r.add("dist.reassignments", d(st.reassignments - first_.reassignments), "count");
    add_core_metrics(timed_->counters(), local_ns, spans.total_ns("core.run_fingerprint"),
                     local_inst, local_inst, r);
    add_modeled_metric(traced, r);
  }

  PhaseResult run_phase(std::size_t k0, double seconds, std::size_t granularity,
                        std::size_t max_ops, bool traced) override {
    if (traced) first_ = coord_->stats();
    return Workload::run_phase(k0, seconds, granularity, max_ops, traced);
  }

 private:
  struct Op {
    std::size_t trace;
    bool repeat;
  };
  /// A cold run of the traced phase.
  struct Cold {
    std::size_t k;
    std::uint64_t cluster_ns;
    std::uint64_t cycles;
  };

  static mc::ParallelSimOptions options(std::size_t round) {
    // The analytic facade's parallel options over 4 sub-traces on 2 modeled
    // GPUs: two shards, one per worker.
    mc::ParallelSimOptions o = mc::MLSimulator().parallel_options(4, kWorkers, true, true);
    o.correction_limit = 100 + round;
    return o;
  }

  static OpResult from_par(const mc::ParallelSimResult& o) {
    return {o.total_cycles, o.instructions, o.cpi(), o.sim_time_us, true, {}, 0.0};
  }

  Args a_;
  TraceSet traces_;
  std::vector<Op> round_;
  std::unique_ptr<md::DistCoordinator> coord_;
  std::vector<std::thread> workers_;
  mc::AnalyticPredictor analytic_;
  std::unique_ptr<TimedPredictor> timed_;
  md::CoordinatorStats first_;
  std::vector<Cold> cold_;
  std::vector<double> cached_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_dist_local(const Args& a) {
  return std::make_unique<DistLocal>(a);
}

}  // namespace perfbench
