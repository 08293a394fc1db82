// Resilient-service tests (docs/SERVICE.md): cancellation primitives,
// the circuit-breaker state machine, admission control and backpressure,
// deadlines, manual cancellation, the hang watchdog (driven by the fault
// injector's straggler schedule — a flagged attempt really stalls the
// worker), breaker trip-and-recover with the degraded period visible in the
// obs metrics, health snapshots, and shutdown draining. The long chaos soak
// lives in soak_test.cpp (ctest label `soak`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/check.h"
#include "core/analytic_predictor.h"
#include "core/cnn_predictor.h"
#include "core/parallel_sim.h"
#include "core/sequential_sim.h"
#include "core/simnet_trainer.h"
#include "device/fault.h"
#include "obs/metric_names.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "service/circuit_breaker.h"
#include "service/request.h"
#include "service/service.h"
#include "trace/trace.h"
#include "uarch/ground_truth.h"

namespace mlsim::service {
namespace {

using namespace std::chrono_literals;

trace::EncodedTrace make_trace(const std::string& abbr, std::size_t n) {
  return uarch::make_encoded_trace(trace::find_workload(abbr), n, {}, 1);
}

/// The fault-free reference the service's parallel requests must reproduce:
/// same options run_request() builds from a default-configured Request.
core::ParallelSimResult reference_run(core::LatencyPredictor& pred,
                                      const trace::EncodedTrace& tr) {
  core::ParallelSimOptions po;
  po.num_subtraces = 4;
  po.num_gpus = 1;
  po.context_length = 16;
  po.warmup = 16;
  po.post_error_correction = true;
  po.max_retries_per_partition = 8;
  core::ParallelSimulator sim(pred, po);
  return sim.run(tr);
}

Request parallel_request(const trace::EncodedTrace& tr) {
  Request rq;
  rq.trace = &tr;
  rq.engine = EngineKind::kParallel;
  return rq;
}

/// Primary predictor whose outputs are garbage until healed — what a
/// poisoned model or sick inference backend looks like to the anomaly
/// guard. Healthy mode delegates to the analytic model.
class PoisonedPredictor final : public core::LatencyPredictor {
 public:
  void heal() { healthy_.store(true, std::memory_order_relaxed); }

  core::LatencyPrediction predict(const core::WindowView& w,
                                  std::uint64_t gi) override {
    if (healthy_.load(std::memory_order_relaxed)) {
      return analytic_.predict(w, gi);
    }
    return {1u << 24, 1u << 24, 1u << 24};  // far above the anomaly limit
  }
  core::LatencyPrediction predict_lazy(const core::LazyWindow& w) override {
    if (healthy_.load(std::memory_order_relaxed)) {
      return analytic_.predict_lazy(w);
    }
    return {1u << 24, 1u << 24, 1u << 24};
  }
  std::size_t flops_per_window(std::size_t rows) const override {
    return analytic_.flops_per_window(rows);
  }

 private:
  std::atomic<bool> healthy_{false};
  core::AnalyticPredictor analytic_;
};

// ---------------------------------------------------------------------------
// Cancellation primitives
// ---------------------------------------------------------------------------

TEST(Cancellation, NullTokenIsInert) {
  CancelToken t;
  EXPECT_FALSE(t.valid());
  EXPECT_FALSE(t.cancelled());
  EXPECT_EQ(t.reason(), CancelReason::kNone);
  EXPECT_NO_THROW(t.check());
}

TEST(Cancellation, ManualCancelThrowsWithReason) {
  CancelSource src;
  const CancelToken t = src.token();
  EXPECT_NO_THROW(t.check());
  src.cancel(CancelReason::kManual);
  EXPECT_TRUE(t.cancelled());
  try {
    t.check();
    FAIL() << "check() should throw after cancel";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kManual);
  }
}

TEST(Cancellation, FirstCancellationWins) {
  CancelSource src;
  src.cancel(CancelReason::kHang);
  src.cancel(CancelReason::kManual);  // ignored
  EXPECT_EQ(src.reason(), CancelReason::kHang);
  EXPECT_EQ(src.token().reason(), CancelReason::kHang);
}

TEST(Cancellation, ExpiredDeadlineFiresOnFirstPoll) {
  CancelSource src;
  src.set_deadline_after(0ns);
  const CancelToken t = src.token();
  try {
    t.check();  // the very first poll evaluates the deadline
    FAIL() << "expired deadline should throw";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
  }
  // The expiry latched: reason is stable from here on.
  EXPECT_EQ(src.reason(), CancelReason::kDeadline);
}

TEST(Cancellation, CancelledLatchesExpiredDeadline) {
  CancelSource src;
  src.set_deadline_after(0ns);
  const CancelToken t = src.token();
  EXPECT_TRUE(t.cancelled());
  EXPECT_EQ(t.reason(), CancelReason::kDeadline);
}

// The worker re-arms a request's remaining budget at pickup; a budget the
// clock cannot represent from now never expires instead of wrapping.
TEST(Cancellation, DeadlineBeyondClockRangeNeverExpires) {
  CancelSource src;
  src.set_deadline_after(std::chrono::nanoseconds::max());
  const CancelToken t = src.token();
  EXPECT_FALSE(t.cancelled());
  EXPECT_NO_THROW(t.check());
}

TEST(Cancellation, HeartbeatCountsPolls) {
  CancelSource src;
  const CancelToken t = src.token();
  EXPECT_EQ(src.heartbeat(), 0u);
  for (int i = 0; i < 10; ++i) t.check();
  EXPECT_EQ(src.heartbeat(), 10u);
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

CircuitBreakerOptions breaker_opts(std::size_t threshold, std::size_t cooldown) {
  CircuitBreakerOptions o;
  o.failure_threshold = threshold;
  o.open_cooldown = cooldown;
  return o;
}

TEST(CircuitBreaker, TripsAfterConsecutiveFailures) {
  CircuitBreaker br(breaker_opts(3, 2));
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(br.allow_primary());
    br.record_failure();
    EXPECT_EQ(br.state(), BreakerState::kClosed);
  }
  EXPECT_TRUE(br.allow_primary());
  br.record_failure();
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  EXPECT_EQ(br.trips(), 1u);
}

TEST(CircuitBreaker, SuccessResetsTheFailureStreak) {
  CircuitBreaker br(breaker_opts(2, 2));
  br.record_failure();
  br.record_success();
  br.record_failure();
  EXPECT_EQ(br.state(), BreakerState::kClosed) << "streak should have reset";
}

TEST(CircuitBreaker, CooldownAdmitsOneProbe) {
  CircuitBreaker br(breaker_opts(1, 2));
  br.record_failure();
  ASSERT_EQ(br.state(), BreakerState::kOpen);
  // Two fallback-served requests burn the cooldown.
  EXPECT_FALSE(br.allow_primary());
  EXPECT_FALSE(br.allow_primary());
  // Next request is the half-open probe; a concurrent one is denied.
  EXPECT_TRUE(br.allow_primary());
  EXPECT_EQ(br.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(br.allow_primary());
  EXPECT_EQ(br.probes(), 1u);
}

TEST(CircuitBreaker, ProbeSuccessCloses) {
  CircuitBreaker br(breaker_opts(1, 1));
  br.record_failure();
  EXPECT_FALSE(br.allow_primary());
  ASSERT_TRUE(br.allow_primary());
  br.record_success();
  EXPECT_EQ(br.state(), BreakerState::kClosed);
}

TEST(CircuitBreaker, ProbeFailureReopensWithFreshCooldown) {
  CircuitBreaker br(breaker_opts(1, 1));
  br.record_failure();
  EXPECT_FALSE(br.allow_primary());
  ASSERT_TRUE(br.allow_primary());
  br.record_failure();
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  EXPECT_EQ(br.trips(), 2u);
}

TEST(CircuitBreaker, NoVerdictReleasesTheProbeSlot) {
  CircuitBreaker br(breaker_opts(1, 1));
  br.record_failure();
  EXPECT_FALSE(br.allow_primary());
  ASSERT_TRUE(br.allow_primary());
  br.record_no_verdict();  // probe cancelled: no state change
  EXPECT_EQ(br.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(br.allow_primary()) << "slot must be free for the next probe";
}

// ---------------------------------------------------------------------------
// Service: happy path
// ---------------------------------------------------------------------------

TEST(Service, CompletesBothRequestKindsAndMatchesSequentialEngine) {
  const trace::EncodedTrace tr = make_trace("mcf", 3000);
  core::AnalyticPredictor primary, fallback;
  SimulationService svc(primary, fallback, {});

  Request par = parallel_request(tr);
  Request seq = parallel_request(tr);
  seq.engine = EngineKind::kSequential;

  auto tp = svc.submit(std::move(par));
  auto ts = svc.submit(seq);
  const Response rp = tp.future.get();
  const Response rs = ts.future.get();

  for (const Response* r : {&rp, &rs}) {
    EXPECT_EQ(r->status, ResponseStatus::kCompleted) << r->error;
    EXPECT_GT(r->total_cycles, 0u);
    EXPECT_GT(r->instructions, 0u);
    EXPECT_FALSE(r->degraded);
  }
  // A sequential request is the sequential engine run directly on the same
  // trace and context length.
  core::SequentialSimOptions so;
  so.context_length = seq.context_length;
  const auto direct = core::SequentialSimulator(primary, so).run(tr);
  EXPECT_EQ(rs.total_cycles, direct.cycles);
  EXPECT_EQ(rs.instructions, direct.instructions);

  const auto st = svc.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.accepted, 2u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.rejected(), 0u);
}

TEST(Service, ParallelRequestMatchesDirectEngineRun) {
  const trace::EncodedTrace tr = make_trace("mcf", 6000);
  core::AnalyticPredictor primary, fallback;
  const auto want = reference_run(primary, tr);

  SimulationService svc(primary, fallback, {});
  auto t = svc.submit(parallel_request(tr));
  const Response r = t.future.get();
  ASSERT_EQ(r.status, ResponseStatus::kCompleted) << r.error;
  EXPECT_EQ(r.total_cycles, want.total_cycles);
  EXPECT_EQ(r.instructions, want.instructions);
  EXPECT_DOUBLE_EQ(r.cpi, want.cpi());
}

TEST(Service, SharedCnnPrimaryMatchesStandaloneRunsWithBatchingOff) {
  // With batching off every worker calls the one primary directly, so the
  // CNN's inference path must not write shared state. A trained model: with
  // random weights the outputs barely react to the input, and a clobbered
  // window would go unnoticed.
  const trace::EncodedTrace train = make_trace("perl", 2000);
  core::SimNetTrainConfig cfg;
  cfg.model.window = 17;  // a default Request's context length + 1
  cfg.model.channels = 8;
  cfg.model.hidden = 16;
  cfg.epochs = 1;
  core::CnnPredictor cnn(core::train_simnet({&train}, cfg));
  core::AnalyticPredictor fallback;

  const char* const benchmarks[] = {"mcf", "lbm", "xz", "exch", "x264", "deep"};
  std::vector<trace::EncodedTrace> traces;
  std::vector<core::ParallelSimResult> want;
  for (std::size_t i = 0; i < std::size(benchmarks); ++i) {
    traces.push_back(make_trace(benchmarks[i], 800 + 140 * i));
    want.push_back(reference_run(cnn, traces.back()));
  }

  ServiceOptions opts;
  opts.num_workers = 3;
  SimulationService svc(cnn, fallback, opts);
  for (int round = 0; round < 2; ++round) {
    std::vector<SimulationService::Ticket> tickets;
    for (const auto& tr : traces) tickets.push_back(svc.submit(parallel_request(tr)));
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const Response r = tickets[i].future.get();
      ASSERT_EQ(r.status, ResponseStatus::kCompleted) << r.error;
      EXPECT_FALSE(r.degraded);
      EXPECT_EQ(r.total_cycles, want[i].total_cycles) << benchmarks[i] << " round " << round;
      EXPECT_EQ(r.instructions, want[i].instructions);
    }
  }
}

TEST(Service, InvalidRequestFailsTyped) {
  core::AnalyticPredictor primary, fallback;
  SimulationService svc(primary, fallback, {});
  Request rq;  // parallel engine but no trace
  auto t = svc.submit(std::move(rq));
  const Response r = t.future.get();
  EXPECT_EQ(r.status, ResponseStatus::kFailed);
  EXPECT_NE(r.error.find("trace"), std::string::npos) << r.error;
}

// ---------------------------------------------------------------------------
// Admission control / backpressure
// ---------------------------------------------------------------------------

/// Occupy the (single) worker with an attempt the injector flags as a
/// straggler: with straggler_rate = 1 every attempt stalls, and the stall
/// is real wall-clock time with no heartbeats.
Request stalling_request(const trace::EncodedTrace& tr,
                         const device::FaultInjector& inj,
                         std::chrono::milliseconds stall) {
  Request rq = parallel_request(tr);
  rq.faults = &inj;
  rq.straggler_stall = stall;
  return rq;
}

device::FaultInjector always_straggles() {
  device::FaultOptions fo;
  fo.seed = 7;
  fo.straggler_rate = 1.0;
  return device::FaultInjector(fo);
}

ServiceOptions tiny_service(std::size_t workers, std::size_t queue) {
  ServiceOptions so;
  so.num_workers = workers;
  so.queue_capacity = queue;
  so.hang_timeout = 10s;  // watchdog must not interfere with stall tests
  return so;
}

TEST(Service, AdmissionControlRejectsTyped) {
  const trace::EncodedTrace tr = make_trace("mcf", 2000);
  core::AnalyticPredictor primary, fallback;
  const device::FaultInjector inj = always_straggles();

  ServiceOptions so = tiny_service(1, 4);
  so.shed_fraction = 0.5;  // low priority shed from 2 queued onward
  SimulationService svc(primary, fallback, so);

  // Occupy the worker, then bring the queue to the shed limit (2 of 4).
  auto blocker = svc.submit(stalling_request(tr, inj, 400ms));
  std::vector<SimulationService::Ticket> queued;
  while (svc.inflight() == 0) std::this_thread::sleep_for(1ms);
  for (int i = 0; i < 2; ++i) queued.push_back(svc.submit(parallel_request(tr)));

  // Low priority is shed well before the queue is full (2 >= shed limit 2);
  // normal priority is still admitted at this occupancy.
  Request low = parallel_request(tr);
  low.priority = Priority::kLow;
  auto shed = svc.submit(std::move(low));
  ASSERT_EQ(shed.future.wait_for(0s), std::future_status::ready);
  const Response sr = shed.future.get();
  EXPECT_EQ(sr.status, ResponseStatus::kRejectedShedding);

  // Fill the rest of the queue: typed QueueFull rejection for everyone.
  for (int i = 0; i < 2; ++i) queued.push_back(svc.submit(parallel_request(tr)));
  auto rejected = svc.submit(parallel_request(tr));
  ASSERT_EQ(rejected.future.wait_for(0s), std::future_status::ready);
  const Response rr = rejected.future.get();
  EXPECT_EQ(rr.status, ResponseStatus::kRejectedQueueFull);
  EXPECT_NE(rr.error.find("capacity"), std::string::npos);

  // Everything accepted completes once the stall clears.
  EXPECT_EQ(blocker.future.get().status, ResponseStatus::kCompleted);
  for (auto& t : queued) {
    EXPECT_EQ(t.future.get().status, ResponseStatus::kCompleted);
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.rejected_queue_full, 1u);
  EXPECT_EQ(st.rejected_shedding, 1u);
  EXPECT_EQ(st.accepted + st.rejected(), st.submitted);
}

TEST(Service, OverloadBoundsOutstandingRequests) {
  const trace::EncodedTrace tr = make_trace("mcf", 2000);
  core::AnalyticPredictor primary, fallback;
  const device::FaultInjector inj = always_straggles();

  ServiceOptions so = tiny_service(1, 8);
  so.max_outstanding = 3;  // 1 running + 2 queued
  SimulationService svc(primary, fallback, so);

  auto blocker = svc.submit(stalling_request(tr, inj, 400ms));
  while (svc.inflight() == 0) std::this_thread::sleep_for(1ms);
  auto a = svc.submit(parallel_request(tr));
  auto b = svc.submit(parallel_request(tr));
  auto over = svc.submit(parallel_request(tr));
  const Response r = over.future.get();
  EXPECT_EQ(r.status, ResponseStatus::kRejectedOverload);

  EXPECT_EQ(blocker.future.get().status, ResponseStatus::kCompleted);
  EXPECT_EQ(a.future.get().status, ResponseStatus::kCompleted);
  EXPECT_EQ(b.future.get().status, ResponseStatus::kCompleted);
}

TEST(Service, HighPriorityDrainsBeforeLow) {
  const trace::EncodedTrace tr = make_trace("mcf", 6000);
  core::AnalyticPredictor primary, fallback;
  const device::FaultInjector inj = always_straggles();

  SimulationService svc(primary, fallback, tiny_service(1, 8));
  auto blocker = svc.submit(stalling_request(tr, inj, 300ms));
  while (svc.inflight() == 0) std::this_thread::sleep_for(1ms);

  // The low request also carries a long injected stall: once the worker
  // picks it up it stays visibly unresolved, so the ordering probe below
  // has a wide window instead of racing a fast simulation.
  Request low = stalling_request(tr, inj, 800ms);
  low.priority = Priority::kLow;
  auto tl = svc.submit(std::move(low));  // submitted first...
  Request high = parallel_request(tr);
  high.priority = Priority::kHigh;
  auto th = svc.submit(std::move(high));  // ...but high runs first

  th.future.wait();
  EXPECT_NE(tl.future.wait_for(0s), std::future_status::ready)
      << "low-priority request finished before the high-priority one";
  EXPECT_EQ(tl.future.get().status, ResponseStatus::kCompleted);
  (void)blocker.future.get();
}

TEST(Service, TenantQuotaRejectsTyped) {
  const trace::EncodedTrace tr = make_trace("mcf", 2000);
  core::AnalyticPredictor primary, fallback;
  const device::FaultInjector inj = always_straggles();

  ServiceOptions so = tiny_service(1, 8);
  so.tenant_quota = 2;  // per-tenant outstanding (queued + running) bound
  SimulationService svc(primary, fallback, so);

  auto tenant_request = [&](const std::string& tenant) {
    Request rq = stalling_request(tr, inj, 200ms);
    rq.tenant = tenant;
    return rq;
  };
  // Tenant a saturates its quota: one running, one queued.
  auto a1 = svc.submit(tenant_request("a"));
  while (svc.inflight() == 0) std::this_thread::sleep_for(1ms);
  auto a2 = svc.submit(tenant_request("a"));
  auto a3 = svc.submit(tenant_request("a"));
  ASSERT_EQ(a3.future.wait_for(0s), std::future_status::ready);
  const Response r = a3.future.get();
  EXPECT_EQ(r.status, ResponseStatus::kRejectedQuota);
  EXPECT_NE(r.error.find("quota"), std::string::npos) << r.error;

  // Other tenants (including the anonymous one) are still admitted: the
  // queue has room, only tenant a is at its bound.
  auto b1 = svc.submit(tenant_request("b"));
  auto anon = svc.submit(stalling_request(tr, inj, 200ms));
  EXPECT_NE(b1.future.wait_for(0s), std::future_status::ready);

  EXPECT_EQ(a1.future.get().status, ResponseStatus::kCompleted);
  EXPECT_EQ(a2.future.get().status, ResponseStatus::kCompleted);
  EXPECT_EQ(b1.future.get().status, ResponseStatus::kCompleted);
  EXPECT_EQ(anon.future.get().status, ResponseStatus::kCompleted);
  const auto st = svc.stats();
  EXPECT_EQ(st.rejected_quota, 1u);
  EXPECT_EQ(st.accepted + st.rejected(), st.submitted);
}

TEST(Service, FairShareDrainInterleavesTenants) {
  const trace::EncodedTrace tr = make_trace("mcf", 2000);
  core::AnalyticPredictor primary, fallback;
  const device::FaultInjector inj = always_straggles();

  // Two workers, but one is pinned for the whole scenario by tenant a's
  // long-stall blocker, so exactly one slot cycles and the pop order is
  // directly observable through completion order.
  const auto tenant_stall = [&](const std::string& tenant,
                                std::chrono::milliseconds stall) {
    Request rq = stalling_request(tr, inj, stall);
    rq.tenant = tenant;
    return rq;
  };

  // Phase 1 — quota set: when the cycling slot frees, tenant a still has a
  // request running (the blocker), tenant b has none, so the fair-share pop
  // serves b's request before a's earlier-queued third request.
  {
    ServiceOptions so = tiny_service(2, 8);
    so.tenant_quota = 8;  // high enough that nothing is rejected
    SimulationService svc(primary, fallback, so);

    auto blocker = svc.submit(tenant_stall("a", 1000ms));
    auto filler = svc.submit(tenant_stall("a", 250ms));
    while (svc.inflight() < 2) std::this_thread::sleep_for(1ms);
    auto a3 = svc.submit(tenant_stall("a", 250ms));  // queued first...
    Request rb = parallel_request(tr);
    rb.tenant = "b";
    auto b1 = svc.submit(std::move(rb));  // ...but b has nothing running

    b1.future.wait();
    EXPECT_NE(a3.future.wait_for(0s), std::future_status::ready)
        << "tenant a's backlog drained before tenant b's first request";
    EXPECT_EQ(a3.future.get().status, ResponseStatus::kCompleted);
    (void)blocker.future.get();
    (void)filler.future.get();
  }

  // Phase 2 — the counterfactual: with tenant_quota disabled the queue is
  // pure FIFO, so a's third request (submitted first) runs before b's.
  {
    SimulationService svc(primary, fallback, tiny_service(2, 8));
    auto blocker = svc.submit(tenant_stall("a", 1000ms));
    auto filler = svc.submit(tenant_stall("a", 250ms));
    while (svc.inflight() < 2) std::this_thread::sleep_for(1ms);
    auto a3 = svc.submit(tenant_stall("a", 250ms));
    auto b1 = svc.submit(tenant_stall("b", 250ms));

    a3.future.wait();
    EXPECT_NE(b1.future.wait_for(0s), std::future_status::ready)
        << "FIFO order was not preserved with tenant_quota disabled";
    EXPECT_EQ(b1.future.get().status, ResponseStatus::kCompleted);
    (void)blocker.future.get();
    (void)filler.future.get();
  }
}

// ---------------------------------------------------------------------------
// Deadlines and manual cancellation
// ---------------------------------------------------------------------------

TEST(Service, DeadlineExpiredInQueueFailsWithoutSimulating) {
  const trace::EncodedTrace tr = make_trace("mcf", 2000);
  core::AnalyticPredictor primary, fallback;
  const device::FaultInjector inj = always_straggles();

  SimulationService svc(primary, fallback, tiny_service(1, 8));
  auto blocker = svc.submit(stalling_request(tr, inj, 300ms));
  while (svc.inflight() == 0) std::this_thread::sleep_for(1ms);

  Request rq = parallel_request(tr);
  rq.deadline = 1ms;  // expires long before the 300 ms stall clears
  auto t = svc.submit(std::move(rq));
  const Response r = t.future.get();
  EXPECT_EQ(r.status, ResponseStatus::kDeadlineExceeded);
  EXPECT_NE(r.error.find("before a worker"), std::string::npos) << r.error;
  (void)blocker.future.get();
  EXPECT_EQ(svc.stats().deadline_exceeded, 1u);
}

TEST(Service, DeadlineFiresMidRun) {
  const trace::EncodedTrace tr = make_trace("mcf", 2000);
  core::AnalyticPredictor primary, fallback;
  const device::FaultInjector inj = always_straggles();

  SimulationService svc(primary, fallback, tiny_service(1, 8));
  // Picked up immediately (deadline still live), then the injected stall
  // burns past it; the first token poll after the stall fires the deadline.
  Request rq = stalling_request(tr, inj, 150ms);
  rq.deadline = 30ms;
  auto t = svc.submit(std::move(rq));
  const Response r = t.future.get();
  EXPECT_EQ(r.status, ResponseStatus::kDeadlineExceeded);
}

// A budget beyond the steady clock's range is no deadline, not an overflow.
TEST(Service, DeadlineBeyondClockRangeMeansNone) {
  const trace::EncodedTrace tr = make_trace("mcf", 500);
  core::AnalyticPredictor primary, fallback;
  SimulationService svc(primary, fallback, tiny_service(1, 8));
  Request rq = parallel_request(tr);
  rq.deadline = std::chrono::nanoseconds::max();
  const Response r = svc.submit(std::move(rq)).future.get();
  EXPECT_EQ(r.status, ResponseStatus::kCompleted) << r.error;
  EXPECT_EQ(r.total_cycles, reference_run(primary, tr).total_cycles);
}

TEST(Service, CancelQueuedAndRunningRequests) {
  const trace::EncodedTrace tr = make_trace("mcf", 2000);
  core::AnalyticPredictor primary, fallback;
  const device::FaultInjector inj = always_straggles();

  SimulationService svc(primary, fallback, tiny_service(1, 8));
  auto running = svc.submit(stalling_request(tr, inj, 10s));
  while (svc.inflight() == 0) std::this_thread::sleep_for(1ms);
  auto waiting = svc.submit(parallel_request(tr));

  // Queued: resolves immediately.
  EXPECT_TRUE(svc.cancel(waiting.id));
  ASSERT_EQ(waiting.future.wait_for(0s), std::future_status::ready);
  EXPECT_EQ(waiting.future.get().status, ResponseStatus::kCancelled);

  // Running: the stall loop observes the cancellation and aborts the 10 s
  // stall; shutdown would otherwise take the full stall.
  EXPECT_TRUE(svc.cancel(running.id));
  const Response r = running.future.get();
  EXPECT_EQ(r.status, ResponseStatus::kCancelled);

  EXPECT_FALSE(svc.cancel(99999)) << "unknown id must not report success";
  EXPECT_FALSE(svc.cancel(waiting.id)) << "already-resolved id";
}

// ---------------------------------------------------------------------------
// Hang watchdog
// ---------------------------------------------------------------------------

/// Find an injector seed whose straggler schedule hangs the request's first
/// attempt but not its retry (ids start at 1 in a fresh service).
device::FaultInjector hang_once_injector(std::uint64_t request_id) {
  device::FaultOptions fo;
  fo.straggler_rate = 0.5;
  for (fo.seed = 1; fo.seed < 10000; ++fo.seed) {
    const device::FaultInjector inj(fo);
    if (inj.straggler_factor(request_id, 0) > 1.0 &&
        inj.straggler_factor(request_id, 1) <= 1.0) {
      return inj;
    }
  }
  throw CheckError("no hang-once seed found");
}

TEST(Service, WatchdogRequeuesHungRequestBitIdentically) {
  const trace::EncodedTrace tr = make_trace("mcf", 6000);
  core::AnalyticPredictor primary, fallback;
  const auto want = reference_run(primary, tr);
  const device::FaultInjector inj = hang_once_injector(1);

  ServiceOptions so;
  so.num_workers = 1;
  so.queue_capacity = 4;
  so.hang_timeout = 60ms;
  so.watchdog_interval = 10ms;
  so.max_hang_requeues = 1;
  SimulationService svc(primary, fallback, so);

  // Attempt 0 stalls for 500 ms without heartbeats; the watchdog declares
  // the worker hung at ~60 ms and requeues. Attempt 1 does not straggle and
  // completes with exactly the fault-free result.
  auto t = svc.submit(stalling_request(tr, inj, 500ms));
  const Response r = t.future.get();
  ASSERT_EQ(r.status, ResponseStatus::kCompleted) << r.error;
  EXPECT_EQ(r.hang_requeues, 1u);
  EXPECT_EQ(r.total_cycles, want.total_cycles);

  const auto st = svc.stats();
  EXPECT_GE(st.hangs_detected, 1u);
  EXPECT_EQ(st.hang_requeues, 1u);
  EXPECT_EQ(st.hung, 0u);
}

TEST(Service, HangBudgetExhaustionFailsTyped) {
  const trace::EncodedTrace tr = make_trace("mcf", 2000);
  core::AnalyticPredictor primary, fallback;
  const device::FaultInjector inj = always_straggles();  // every attempt hangs

  ServiceOptions so;
  so.num_workers = 1;
  so.queue_capacity = 4;
  so.hang_timeout = 60ms;
  so.watchdog_interval = 10ms;
  so.max_hang_requeues = 0;
  SimulationService svc(primary, fallback, so);

  auto t = svc.submit(stalling_request(tr, inj, 500ms));
  const Response r = t.future.get();
  EXPECT_EQ(r.status, ResponseStatus::kWorkerHung);
  EXPECT_NE(r.error.find("requeue budget"), std::string::npos) << r.error;
  EXPECT_EQ(svc.stats().hung, 1u);
}

// ---------------------------------------------------------------------------
// Circuit breaker wired through the service
// ---------------------------------------------------------------------------

TEST(Service, BreakerTripsDegradesAndRecovers) {
  const trace::EncodedTrace tr = make_trace("mcf", 3000);
  PoisonedPredictor primary;  // garbage until healed
  core::AnalyticPredictor fallback;
  const auto want = reference_run(fallback, tr);

  obs::set_enabled(true);
  std::uint64_t trips_before = 0;
  if (obs::kCompiledIn) {
    trips_before =
        obs::default_registry().counter(obs::names::kSvcBreakerTrips).value();
  }

  ServiceOptions so;
  so.num_workers = 1;  // serialize: breaker verdicts arrive in order
  so.breaker.failure_threshold = 2;
  so.breaker.open_cooldown = 2;
  SimulationService svc(primary, fallback, so);

  const auto run_one = [&] {
    auto t = svc.submit(parallel_request(tr));
    const Response r = t.future.get();
    EXPECT_EQ(r.status, ResponseStatus::kCompleted) << r.error;
    // Degraded or not, the analytic fallback reproduces the reference.
    EXPECT_EQ(r.total_cycles, want.total_cycles);
    return r;
  };

  // Two poisoned runs degrade via the anomaly guard and trip the breaker.
  EXPECT_TRUE(run_one().degraded);
  EXPECT_TRUE(run_one().degraded);
  EXPECT_EQ(svc.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(svc.breaker_trips(), 1u);

  // Open: requests are served by the fallback without touching the primary
  // (degraded responses, no further anomaly retries). Two burn the cooldown.
  EXPECT_TRUE(run_one().degraded);
  EXPECT_TRUE(run_one().degraded);

  // Half-open probe hits the still-poisoned primary and reopens.
  EXPECT_TRUE(run_one().degraded);
  EXPECT_EQ(svc.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(svc.breaker_trips(), 2u);

  // Heal, burn the fresh cooldown, and let the probe close the breaker.
  primary.heal();
  EXPECT_TRUE(run_one().degraded);
  EXPECT_TRUE(run_one().degraded);
  EXPECT_FALSE(run_one().degraded) << "successful probe should use primary";
  EXPECT_EQ(svc.breaker_state(), BreakerState::kClosed);

  // Fully recovered: primary serves cleanly.
  EXPECT_FALSE(run_one().degraded);

  const auto st = svc.stats();
  EXPECT_EQ(st.completed, 9u);
  EXPECT_EQ(st.degraded, 7u) << "the degraded period must be visible";
  if (obs::kCompiledIn) {
    EXPECT_EQ(obs::default_registry()
                  .counter(obs::names::kSvcBreakerTrips)
                  .value() -
                  trips_before,
              2u);
  }
}

// ---------------------------------------------------------------------------
// Health and shutdown
// ---------------------------------------------------------------------------

TEST(Service, HealthSnapshotReflectsState) {
  const trace::EncodedTrace tr = make_trace("mcf", 2000);
  core::AnalyticPredictor primary, fallback;
  SimulationService svc(primary, fallback, {});

  std::string h = svc.health_json();
  EXPECT_NE(h.find("\"status\":\"ok\""), std::string::npos) << h;
  EXPECT_NE(h.find("\"queue_capacity\":8"), std::string::npos) << h;
  EXPECT_NE(h.find("\"breaker\":\"closed\""), std::string::npos) << h;

  auto t = svc.submit(parallel_request(tr));
  (void)t.future.get();
  h = svc.health_json();
  EXPECT_NE(h.find("\"completed\":1"), std::string::npos) << h;

  svc.shutdown();
  h = svc.health_json();
  EXPECT_NE(h.find("\"status\":\"stopping\""), std::string::npos) << h;
}

TEST(Service, ShutdownDrainsAcceptedWorkAndRefusesNew) {
  const trace::EncodedTrace tr = make_trace("mcf", 2000);
  core::AnalyticPredictor primary, fallback;
  ServiceOptions so;
  so.num_workers = 2;
  so.queue_capacity = 16;
  SimulationService svc(primary, fallback, so);

  std::vector<SimulationService::Ticket> tickets;
  for (int i = 0; i < 6; ++i) tickets.push_back(svc.submit(parallel_request(tr)));
  svc.shutdown();  // drains: every accepted request completes
  for (auto& t : tickets) {
    ASSERT_EQ(t.future.wait_for(0s), std::future_status::ready);
    EXPECT_EQ(t.future.get().status, ResponseStatus::kCompleted);
  }

  auto late = svc.submit(parallel_request(tr));
  ASSERT_EQ(late.future.wait_for(0s), std::future_status::ready);
  const Response r = late.future.get();
  EXPECT_EQ(r.status, ResponseStatus::kCancelled);
  EXPECT_NE(r.error.find("shutting down"), std::string::npos);
}

}  // namespace
}  // namespace mlsim::service
