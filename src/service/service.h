// Resilient batch-simulation service (docs/SERVICE.md).
//
// Wraps the parallel and sequential simulation engines behind a request API
// hardened for continuous operation:
//
//   admission control — a bounded priority queue; submit() resolves
//       immediately with a typed Rejected{QueueFull|Overload|Shedding}
//       response instead of growing memory without bound;
//   deadlines — each request carries a completion budget enforced
//       cooperatively through CancelToken polling inside the engine loops,
//       so a timed-out request stops consuming CPU instead of running to a
//       result nobody wants;
//   hang watchdog — a background thread samples per-worker heartbeats (the
//       token polls double as liveness); a worker that stops beating for
//       hang_timeout has its request cancelled and requeued onto a healthy
//       worker, or failed with a typed kWorkerHung after the requeue budget;
//   circuit breaker — repeated predictor anomalies trip a breaker that
//       routes requests to the analytic fallback predictor, with half-open
//       probing to recover (service/circuit_breaker.h);
//   health — a JSON liveness snapshot plus service.* metrics in the obs
//       registry.
//
// Every accepted request resolves to exactly one typed Response; the service
// never crashes, deadlocks, or silently drops a request because of a sick
// worker or predictor (asserted by the chaos soak test).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "core/predictor.h"
#include "service/batcher.h"
#include "service/circuit_breaker.h"
#include "service/remote.h"
#include "service/request.h"

namespace mlsim::service {

struct ServiceOptions {
  /// Real worker threads executing requests.
  std::size_t num_workers = 2;
  /// Queued (not yet running) requests across all priorities.
  std::size_t queue_capacity = 8;
  /// Outstanding (queued + running) bound; 0 = queue_capacity + num_workers.
  std::size_t max_outstanding = 0;
  /// Queue fill fraction at which kLow requests are shed.
  double shed_fraction = 0.75;
  /// Per-tenant outstanding (queued + running) bound; 0 = unlimited. A
  /// tenant at its quota gets typed kRejectedQuota responses while other
  /// tenants are still admitted, and the queue drains fair-share across
  /// tenants within a priority — one noisy tenant cannot monopolize the
  /// workers (docs/SERVICE.md).
  std::size_t tenant_quota = 0;

  /// Watchdog: a worker whose heartbeat is stale for this long is hung.
  std::chrono::milliseconds hang_timeout{250};
  std::chrono::milliseconds watchdog_interval{20};
  /// Times a hung request is requeued before failing typed (kWorkerHung).
  std::size_t max_hang_requeues = 1;

  /// Parallel-engine retry budget per partition (kills + anomalies).
  std::size_t max_retries_per_partition = 8;

  /// When set, kParallel requests execute on this backend (e.g. a
  /// DistCoordinator fronting a worker cluster) instead of in-process. The
  /// backend must outlive the service. Remote results are bit-identical in
  /// CPI, so responses are indistinguishable apart from wall-clock.
  RemoteBackend* remote = nullptr;

  CircuitBreakerOptions breaker;

  /// Cross-request continuous batching (docs/BATCHING.md): when true, every
  /// in-process engine on the primary path predicts through its request's
  /// channel of a shared BatchScheduler, which coalesces windows from
  /// concurrent requests into large inference batches on the primary.
  /// Per-request results stay bit-identical to batching-off. The
  /// circuit-breaker fallback path and remote execution always bypass the
  /// batcher.
  bool batching = false;
  BatcherOptions batcher;
};

class SimulationService {
 public:
  /// `primary` is the production predictor (e.g. the CNN); `fallback` the
  /// analytic stand-in used for anomaly degradation and while the breaker
  /// is open. Both must outlive the service.
  SimulationService(core::LatencyPredictor& primary,
                    core::LatencyPredictor& fallback, ServiceOptions opts = {});
  ~SimulationService();

  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;

  struct Ticket {
    std::uint64_t id = 0;
    std::future<Response> future;
  };

  /// Admission-controlled submission. Always returns a valid future; a
  /// rejected request's future is already resolved with the typed rejection.
  Ticket submit(Request req);

  /// Best-effort cancellation: a queued request resolves kCancelled
  /// immediately; a running one is cancelled cooperatively. Returns false
  /// if the id is unknown or already resolved.
  bool cancel(std::uint64_t id);

  /// Stop accepting, drain the queue, join workers and watchdog. Idempotent;
  /// also called by the destructor.
  void shutdown();

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected_queue_full = 0;
    std::uint64_t rejected_overload = 0;
    std::uint64_t rejected_shedding = 0;
    std::uint64_t rejected_quota = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t hung = 0;            // requests failed as kWorkerHung
    std::uint64_t hangs_detected = 0;  // watchdog firings
    std::uint64_t hang_requeues = 0;
    std::uint64_t degraded = 0;  // completed on (or partly on) the fallback

    std::uint64_t rejected() const {
      return rejected_queue_full + rejected_overload + rejected_shedding +
             rejected_quota;
    }
  };

  Stats stats() const;
  std::size_t queue_depth() const;
  std::size_t inflight() const;
  BreakerState breaker_state() const { return breaker_.state(); }
  std::uint64_t breaker_trips() const { return breaker_.trips(); }
  /// Null when ServiceOptions::batching is off.
  const BatchScheduler* batcher() const { return batcher_.get(); }

  /// Liveness/health snapshot as a single JSON object: overall status
  /// ("ok" | "overloaded" | "degraded" | "stopping"), a coarse `lifecycle`
  /// phase ("serving" | "draining") for orchestrators that only need to
  /// know whether to route new work here, queue and worker occupancy,
  /// breaker state, and the outcome counters. `last_errors > 0`
  /// appends the flight-recorder event sequences of the N most recent
  /// bad-outcome requests (docs/OBSERVABILITY.md) — what the telemetry
  /// endpoint serves for /healthz?last_errors=N.
  std::string health_json(std::size_t last_errors = 0) const;

 private:
  struct RequestState {
    std::uint64_t id = 0;
    Request req;
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point deadline;  // epoch() = none
    std::size_t hang_requeues = 0;
    bool resolved = false;  // under mu_
  };
  using StatePtr = std::shared_ptr<RequestState>;

  struct WorkerSlot {
    StatePtr active;      // under mu_; null = idle
    CancelSource source;  // recreated per assignment
    bool abandoned = false;
    // Watchdog bookkeeping.
    std::uint64_t last_beat = 0;
    std::chrono::steady_clock::time_point last_change;
  };

  void worker_loop(std::size_t slot_index);
  void watchdog_loop();
  /// Run the request's engine; fills the simulation fields of `rsp`.
  void run_request(const RequestState& st, const CancelToken& token,
                   Response& rsp);
  void resolve_locked(const StatePtr& st, Response rsp);
  StatePtr pop_locked();
  std::size_t queued_locked() const;
  void export_gauges_locked() const;
  /// Decrement a per-tenant counter, erasing the entry at zero.
  static void tenant_dec(std::map<std::string, std::size_t>& m,
                         const std::string& tenant);

  core::LatencyPredictor& primary_;
  core::LatencyPredictor& fallback_;
  ServiceOptions opts_;
  std::size_t shed_limit_ = 0;
  std::size_t max_outstanding_ = 0;

  mutable std::mutex mu_;
  std::condition_variable cv_;        // workers wait here
  std::condition_variable stop_cv_;   // watchdog interval sleep
  bool stopping_ = false;
  bool watchdog_stop_ = false;  // set after workers drain and join
  std::deque<StatePtr> queues_[kNumPriorities];
  /// Per-tenant occupancy, under mu_: queued_ backs the quota admission
  /// check (with running_), running_ drives the fair-share pop. Entries are
  /// erased at zero so idle tenants cost nothing.
  std::map<std::string, std::size_t> tenant_queued_;
  std::map<std::string, std::size_t> tenant_running_;
  std::vector<WorkerSlot> slots_;
  std::vector<std::thread> workers_;
  std::thread watchdog_;
  std::uint64_t next_id_ = 1;
  std::size_t busy_ = 0;
  Stats stats_;

  CircuitBreaker breaker_;
  std::unique_ptr<BatchScheduler> batcher_;  // non-null iff opts_.batching
};

}  // namespace mlsim::service
