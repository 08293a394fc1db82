// serve_batched: a closed loop of 3 clients, driven by one generator thread
// that keeps 3 requests outstanding against a SimulationService configured
// as `mlsim_cli serve --batch` configures it: analytic primary and fallback,
// CLI defaults for workers, queue and the batcher. Requests mix the engines
// the repo's service callers submit, come from two tenants, and have lengths
// drawn from a range.
#include <array>
#include <future>
#include <thread>

#include "core/analytic_predictor.h"
#include "core/gpu_sim.h"
#include "core/parallel_sim.h"
#include "service/service.h"
#include "trace/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace mc = mlsim::core;
namespace sv = mlsim::service;

constexpr std::size_t kClients = 3;
constexpr std::size_t kPool = 24;  // distinct requests per pass
constexpr std::size_t kSubtraces = 4;  // `serve --parallel` default

sv::ServiceOptions cli_batch_options() {
  sv::ServiceOptions so;  // `mlsim_cli serve --batch` defaults
  so.num_workers = 2;
  so.queue_capacity = 8;
  so.batching = true;
  so.batcher.max_batch = 64;
  so.batcher.max_wait = std::chrono::microseconds(100);
  return so;
}

class ServeBatched final : public Workload {
 public:
  explicit ServeBatched(const Args& a) : a_(a) {}

  void setup(bool traced) override {
    SeededRng rng(a_.seed);
    const std::vector<std::string> benches = mlsim::trace::test_benchmarks();
    traces_.clear();
    reqs_.clear();
    // A fixed corpus of requests (every held-out benchmark in turn, lengths
    // spread over a range, and two requests in three parallel, as
    // `mlsim_cli serve` and the soak submit them, one sequential, as
    // fig_batch_throughput submits it); the workload seed orders them and
    // pairs them with tenants (half each).
    std::vector<std::size_t> tenant(kPool), order(kPool);
    for (std::size_t i = 0; i < kPool; ++i) {
      tenant[i] = i % 2;
      order[i] = i;
    }
    rng.shuffle(tenant);
    rng.shuffle(order);
    for (std::size_t i = 0; i < kPool; ++i) {
      const std::string& abbr = benches[i % benches.size()];
      const std::size_t n = scaled(spread_size(i, kPool, 400, 1200), a_.scale, 32);
      traces_.add(abbr, n, corpus_seed(i), traced, spans);
    }
    for (std::size_t i = 0; i < kPool; ++i) {
      reqs_.push_back({order[i],
                       order[i] % 3 < 2 ? sv::EngineKind::kParallel : sv::EngineKind::kSequential,
                       tenant[i] ? "tenant-a" : "tenant-b"});
    }
    if (traced) timed_ = std::make_unique<TimedPredictor>(primary_, true);
    mc::LatencyPredictor& primary =
        traced ? static_cast<mc::LatencyPredictor&>(*timed_) : primary_;
    svc_ = std::make_unique<sv::SimulationService>(primary, fallback_, cli_batch_options());
  }

  void teardown() override { svc_.reset(); }

  std::size_t pass_length() const override { return reqs_.size(); }

  PhaseResult run_phase(std::size_t k0, double seconds, std::size_t granularity,
                        std::size_t max_ops, bool traced) override {
    struct Slot {
      bool busy = false;
      std::size_t k = 0;
      Clock::time_point start;
      std::future<sv::Response> future;
    };
    std::array<Slot, kClients> slots;
    PhaseResult p;
    const auto before = stats_snapshot();
    const TimedPredictor::Counters calls_before =
        traced ? timed_->counters() : TimedPredictor::Counters{};
    const auto t0 = Clock::now();
    std::size_t issued = 0;
    bool issuing = true;
    auto next_sample = t0;
    while (true) {
      for (Slot& s : slots) {
        if (s.busy || !issuing) continue;
        if (max_ops != 0 ? issued >= max_ops
                         : issued > 0 && issued % granularity == 0 &&
                               seconds_between(t0, Clock::now()) >= seconds) {
          issuing = false;
          continue;
        }
        s.k = k0 + issued++;
        s.start = Clock::now();
        s.future = svc_->submit(request(s.k)).future;
        s.busy = true;
      }
      bool any_busy = false;
      bool completed = false;
      for (Slot& s : slots) {
        if (!s.busy) continue;
        if (s.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          any_busy = true;
          continue;
        }
        const sv::Response rsp = s.future.get();
        const auto done = Clock::now();
        if (traced) spans.record("service.request", s.k, s.start, done);
        OpRecord rec;
        rec.k = s.k;
        rec.latency_ms = seconds_between(s.start, done) * 1e3;
        rec.end_s = seconds_between(t0, done);
        rec.out = {rsp.total_cycles, rsp.instructions, rsp.cpi, 0.0, rsp.ok(),
                   rsp.ok() ? "" : std::string(sv::to_string(rsp.status)) + " " + rsp.error,
                   0.0};
        p.ops.push_back(std::move(rec));
        s.busy = false;
        completed = true;
      }
      if (!any_busy && !issuing) break;
      const auto now = Clock::now();
      if (traced && now >= next_sample) {
        depth_sum_ += static_cast<double>(svc_->queue_depth());
        inflight_sum_ += static_cast<double>(svc_->inflight());
        ++samples_;
        next_sample = now + std::chrono::milliseconds(1);
      }
      if (!completed) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    p.wall_s = seconds_between(t0, Clock::now());
    if (traced) {
      traced_wall_s_ = p.wall_s;
      delta_ = diff(stats_snapshot(), before);
      // The decorated primary serves both halves of the traced run; keep
      // only the traced half's calls.
      calls_ = timed_->counters() - calls_before;
    }
    return p;
  }

  OpResult reference(std::size_t k) override {
    // The engine the request names, called directly without the service
    // or batcher: ParallelSimulator for parallel requests, and for
    // sequential ones the GPU engine, which tests hold bit-identical to the
    // sequential engine the service runs.
    const Req& q = reqs_[k % reqs_.size()];
    const mlsim::trace::EncodedTrace& tr = traces_[q.trace];
    const sv::Request rq = request(k);
    mc::AnalyticPredictor pred, fallback;
    OpResult ref;
    if (q.engine == sv::EngineKind::kParallel) {
      mc::ParallelSimOptions po;
      po.num_subtraces = rq.num_subtraces;
      po.num_gpus = rq.num_gpus;
      po.context_length = rq.context_length;
      po.warmup = rq.warmup ? rq.context_length : 0;
      po.post_error_correction = rq.correction;
      po.fallback = &fallback;
      po.max_retries_per_partition = cli_batch_options().max_retries_per_partition;
      const mc::ParallelSimResult r = mc::ParallelSimulator(pred, po).run(tr);
      ref = {r.total_cycles, r.instructions, r.cpi(), r.sim_time_us, true, {}, 0.0};
    } else {
      mlsim::device::Device dev;
      mc::GpuSimOptions go;
      go.context_length = rq.context_length;
      const mc::SimOutput o = mc::GpuSimulator(pred, dev, go).run(tr);
      ref = {o.cycles, o.instructions, o.cpi(), o.sim_time_us, true, {}, 0.0};
    }
    ref.truth_cpi = truth_cpi_of(tr);
    return ref;
  }

  void layer_metrics(const PhaseResult& /*untraced*/, const PhaseResult& traced,
                     Report& r) override {
    traces_.report(spans, r);

    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const auto& b = delta_.batch;
    r.add("service.batch_size_mean",
          ratio(static_cast<double>(b.items_predicted), static_cast<double>(b.flushes)),
          "count");
    r.add("service.flush_deadline_frac",
          ratio(static_cast<double>(b.flush_deadline), static_cast<double>(b.flushes)),
          "ratio");
    r.add("service.scheduler_busy_frac",
          ratio(static_cast<double>(calls_.predict_ns) / 1e9, traced_wall_s_), "ratio");
    r.add("service.queue_depth_mean", ratio(depth_sum_, static_cast<double>(samples_)),
          "count");
    r.add("service.inflight_mean", ratio(inflight_sum_, static_cast<double>(samples_)),
          "count");
    r.add("service.rejected", static_cast<double>(delta_.service.rejected()), "count");
    r.add("service.failed", static_cast<double>(delta_.service.failed), "count");
    r.add("core.predictions_per_inst",
          ratio(static_cast<double>(calls_.windows), static_cast<double>(traced.instructions())),
          "ratio");
    // The service's responses carry no modeled time: take it from the
    // reference engines over the traced requests.
    PhaseResult modeled;
    for (const OpRecord& op : traced.ops) {
      OpRecord rec = op;
      rec.out = reference(op.k);
      modeled.ops.push_back(std::move(rec));
    }
    add_modeled_metric(modeled, r);
  }

 private:
  struct Req {
    std::size_t trace;
    sv::EngineKind engine;
    std::string tenant;
  };
  struct Snapshot {
    sv::SimulationService::Stats service;
    sv::BatchScheduler::Stats batch;
  };

  sv::Request request(std::size_t k) const {
    const Req& q = reqs_[k % reqs_.size()];
    sv::Request rq;
    rq.trace = &traces_[q.trace];
    rq.engine = q.engine;
    rq.num_subtraces = kSubtraces;
    rq.tenant = q.tenant;
    return rq;
  }

  Snapshot stats_snapshot() const {
    return {svc_->stats(), svc_->batcher()->stats()};
  }

  static Snapshot diff(const Snapshot& a, const Snapshot& b) {
    Snapshot d = a;
    d.service.rejected_queue_full -= b.service.rejected_queue_full;
    d.service.rejected_overload -= b.service.rejected_overload;
    d.service.rejected_shedding -= b.service.rejected_shedding;
    d.service.rejected_quota -= b.service.rejected_quota;
    d.service.failed -= b.service.failed;
    d.batch.items_predicted -= b.batch.items_predicted;
    d.batch.flushes -= b.batch.flushes;
    d.batch.flush_deadline -= b.batch.flush_deadline;
    return d;
  }

  Args a_;
  TraceSet traces_;
  std::vector<Req> reqs_;
  mc::AnalyticPredictor primary_, fallback_;
  std::unique_ptr<TimedPredictor> timed_;
  std::unique_ptr<sv::SimulationService> svc_;
  Snapshot delta_{};
  TimedPredictor::Counters calls_;
  double traced_wall_s_ = 0.0;
  double depth_sum_ = 0.0, inflight_sum_ = 0.0;
  std::size_t samples_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_batched(const Args& a) {
  return std::make_unique<ServeBatched>(a);
}

}  // namespace perfbench
