#include "service/service.h"

#include <sstream>
#include <utility>

#include "common/check.h"
#include "core/parallel_sim.h"
#include "core/sequential_sim.h"
#include "obs/flight_recorder.h"
#include "obs/obs.h"

namespace mlsim::service {

using Clock = std::chrono::steady_clock;

const char* to_string(ResponseStatus s) {
  switch (s) {
    case ResponseStatus::kCompleted: return "completed";
    case ResponseStatus::kRejectedQueueFull: return "rejected_queue_full";
    case ResponseStatus::kRejectedOverload: return "rejected_overload";
    case ResponseStatus::kRejectedShedding: return "rejected_shedding";
    case ResponseStatus::kRejectedQuota: return "rejected_quota";
    case ResponseStatus::kDeadlineExceeded: return "deadline_exceeded";
    case ResponseStatus::kCancelled: return "cancelled";
    case ResponseStatus::kWorkerHung: return "worker_hung";
    case ResponseStatus::kFailed: return "failed";
  }
  return "unknown";
}

namespace {

/// Chaos hook: an attempt the injector marks as a straggler really stalls
/// the worker thread — no engine work, no heartbeats — which is exactly the
/// failure mode the hang watchdog exists to catch. Returns early once the
/// watchdog (or anyone) cancels the attempt.
void injected_stall(const Request& req, std::uint64_t id, std::size_t attempt,
                    const CancelSource& source) {
  if (req.faults == nullptr || req.straggler_stall.count() <= 0) return;
  if (req.faults->straggler_factor(static_cast<std::size_t>(id), attempt) <=
      1.0) {
    return;
  }
  // Elapsed time is compared in milliseconds, so no stall length overflows.
  const auto start = Clock::now();
  while (std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now() - start) < req.straggler_stall) {
    if (source.cancelled()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

SimulationService::SimulationService(core::LatencyPredictor& primary,
                                     core::LatencyPredictor& fallback,
                                     ServiceOptions opts)
    : primary_(primary),
      fallback_(fallback),
      opts_(opts),
      breaker_(opts.breaker) {
  check(opts_.num_workers > 0, "service needs at least one worker");
  check(opts_.queue_capacity > 0, "service queue capacity must be > 0");
  check(opts_.hang_timeout.count() > 0, "hang_timeout must be > 0");
  check(opts_.watchdog_interval.count() > 0, "watchdog_interval must be > 0");
  max_outstanding_ = opts_.max_outstanding != 0
                         ? opts_.max_outstanding
                         : opts_.queue_capacity + opts_.num_workers;
  auto shed = static_cast<std::size_t>(
      static_cast<double>(opts_.queue_capacity) * opts_.shed_fraction);
  shed_limit_ = shed < opts_.queue_capacity ? shed : opts_.queue_capacity;

  if (opts_.batching) {
    batcher_ = std::make_unique<BatchScheduler>(primary_, opts_.batcher);
  }

  slots_.resize(opts_.num_workers);
  workers_.reserve(opts_.num_workers);
  for (std::size_t i = 0; i < opts_.num_workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

SimulationService::~SimulationService() { shutdown(); }

void SimulationService::shutdown() {
  {
    std::lock_guard lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // After the workers: no engine can be mid-submit/wait any more, so the
  // scheduler can drain and join without stranding a waiter.
  if (batcher_ != nullptr) batcher_->shutdown();
  {
    std::lock_guard lk(mu_);
    watchdog_stop_ = true;
  }
  stop_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

std::size_t SimulationService::queued_locked() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

void SimulationService::export_gauges_locked() const {
  MLSIM_GAUGE_SET(obs::names::kSvcQueueDepth,
                  static_cast<double>(queued_locked()));
  MLSIM_GAUGE_SET(obs::names::kSvcInflight, static_cast<double>(busy_));
}

void SimulationService::tenant_dec(std::map<std::string, std::size_t>& m,
                                   const std::string& tenant) {
  const auto it = m.find(tenant);
  if (it == m.end()) return;
  if (--it->second == 0) m.erase(it);
}

SimulationService::StatePtr SimulationService::pop_locked() {
  for (auto& q : queues_) {
    if (q.empty()) continue;
    auto best = q.begin();
    if (opts_.tenant_quota > 0) {
      // Fair-share drain: within the highest non-empty priority, pick the
      // earliest request of the tenant with the fewest running requests, so
      // one tenant's burst cannot monopolize the workers. Ties keep FIFO,
      // which is also the single-tenant (and no-tenant) behavior.
      const auto running_of = [&](const std::string& t) {
        const auto it = tenant_running_.find(t);
        return it != tenant_running_.end() ? it->second : std::size_t{0};
      };
      std::size_t best_running = running_of((*best)->req.tenant);
      for (auto it = std::next(q.begin()); it != q.end(); ++it) {
        const std::size_t r = running_of((*it)->req.tenant);
        if (r < best_running) {
          best = it;
          best_running = r;
        }
      }
    }
    StatePtr st = *best;
    q.erase(best);
    tenant_dec(tenant_queued_, st->req.tenant);
    ++tenant_running_[st->req.tenant];
    return st;
  }
  return nullptr;
}

namespace {

/// Terminal flight-recorder event for a response status — the single place
/// every request outcome is stamped (resolve_locked).
obs::flight::Event flight_event(ResponseStatus s) {
  using obs::flight::Event;
  switch (s) {
    case ResponseStatus::kCompleted: return Event::kCompleted;
    case ResponseStatus::kRejectedQueueFull:
    case ResponseStatus::kRejectedOverload:
    case ResponseStatus::kRejectedShedding:
    case ResponseStatus::kRejectedQuota: return Event::kRejected;
    case ResponseStatus::kDeadlineExceeded: return Event::kDeadlineMissed;
    case ResponseStatus::kCancelled: return Event::kCancelled;
    case ResponseStatus::kWorkerHung: return Event::kHung;
    case ResponseStatus::kFailed: return Event::kFailed;
  }
  return Event::kFailed;
}

}  // namespace

void SimulationService::resolve_locked(const StatePtr& st, Response rsp) {
  if (st->resolved) return;  // watchdog and worker can race to resolve
  st->resolved = true;
  rsp.id = st->id;
  rsp.hang_requeues = st->hang_requeues;
  obs::flight::record(st->id, flight_event(rsp.status),
                      static_cast<std::uint64_t>(rsp.status));
  switch (rsp.status) {
    case ResponseStatus::kCompleted:
      ++stats_.completed;
      MLSIM_COUNTER_ADD(obs::names::kSvcCompleted, 1);
      if (rsp.degraded) {
        ++stats_.degraded;
        MLSIM_COUNTER_ADD(obs::names::kSvcDegraded, 1);
      }
      break;
    case ResponseStatus::kRejectedQueueFull:
      ++stats_.rejected_queue_full;
      MLSIM_COUNTER_ADD(obs::names::kSvcRejectedQueueFull, 1);
      break;
    case ResponseStatus::kRejectedOverload:
      ++stats_.rejected_overload;
      MLSIM_COUNTER_ADD(obs::names::kSvcRejectedOverload, 1);
      break;
    case ResponseStatus::kRejectedShedding:
      ++stats_.rejected_shedding;
      MLSIM_COUNTER_ADD(obs::names::kSvcRejectedShedding, 1);
      break;
    case ResponseStatus::kRejectedQuota:
      ++stats_.rejected_quota;
      MLSIM_COUNTER_ADD(obs::names::kSvcRejectedQuota, 1);
      break;
    case ResponseStatus::kDeadlineExceeded:
      ++stats_.deadline_exceeded;
      MLSIM_COUNTER_ADD(obs::names::kSvcDeadlineExceeded, 1);
      break;
    case ResponseStatus::kCancelled:
      ++stats_.cancelled;
      MLSIM_COUNTER_ADD(obs::names::kSvcCancelled, 1);
      break;
    case ResponseStatus::kWorkerHung:
      ++stats_.hung;
      MLSIM_COUNTER_ADD(obs::names::kSvcFailed, 1);
      break;
    case ResponseStatus::kFailed:
      ++stats_.failed;
      MLSIM_COUNTER_ADD(obs::names::kSvcFailed, 1);
      break;
  }
  if (!is_rejection(rsp.status)) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - st->submitted)
                        .count();
    MLSIM_HIST_RECORD(obs::names::kSvcRequestNs, static_cast<double>(ns));
  }
  st->promise.set_value(std::move(rsp));
}

SimulationService::Ticket SimulationService::submit(Request req) {
  auto st = std::make_shared<RequestState>();
  st->req = std::move(req);
  st->submitted = Clock::now();
  // A budget beyond the clock's range means no deadline.
  if (st->req.deadline.count() > 0 &&
      st->req.deadline < Clock::time_point::max() - st->submitted) {
    st->deadline = st->submitted + st->req.deadline;
  }

  Ticket ticket;
  std::lock_guard lk(mu_);
  st->id = next_id_++;
  ticket.id = st->id;
  ticket.future = st->promise.get_future();
  ++stats_.submitted;

  if (stopping_) {
    Response rsp;
    rsp.status = ResponseStatus::kCancelled;
    rsp.error = "service is shutting down";
    resolve_locked(st, std::move(rsp));
    return ticket;
  }

  const std::size_t queued = queued_locked();
  if (queued >= opts_.queue_capacity) {
    Response rsp;
    rsp.status = ResponseStatus::kRejectedQueueFull;
    rsp.error = "queue at capacity (" + std::to_string(opts_.queue_capacity) +
                " requests)";
    resolve_locked(st, std::move(rsp));
    return ticket;
  }
  if (queued + busy_ >= max_outstanding_) {
    Response rsp;
    rsp.status = ResponseStatus::kRejectedOverload;
    rsp.error = "too many outstanding requests (" +
                std::to_string(max_outstanding_) + ")";
    resolve_locked(st, std::move(rsp));
    return ticket;
  }
  if (opts_.tenant_quota > 0) {
    const auto qd = tenant_queued_.find(st->req.tenant);
    const auto rn = tenant_running_.find(st->req.tenant);
    const std::size_t outstanding =
        (qd != tenant_queued_.end() ? qd->second : 0) +
        (rn != tenant_running_.end() ? rn->second : 0);
    if (outstanding >= opts_.tenant_quota) {
      Response rsp;
      rsp.status = ResponseStatus::kRejectedQuota;
      rsp.error = "tenant \"" + st->req.tenant + "\" at its quota (" +
                  std::to_string(opts_.tenant_quota) +
                  " outstanding requests)";
      resolve_locked(st, std::move(rsp));
      return ticket;
    }
  }
  if (st->req.priority == Priority::kLow && queued >= shed_limit_) {
    Response rsp;
    rsp.status = ResponseStatus::kRejectedShedding;
    rsp.error = "low-priority request shed at " + std::to_string(queued) + "/" +
                std::to_string(opts_.queue_capacity) + " queue occupancy";
    resolve_locked(st, std::move(rsp));
    return ticket;
  }

  ++stats_.accepted;
  MLSIM_COUNTER_ADD(obs::names::kSvcAccepted, 1);
  obs::flight::record(st->id, obs::flight::Event::kAdmitted);
  obs::flight::record(st->id, obs::flight::Event::kQueued,
                      static_cast<std::uint64_t>(st->req.priority));
  queues_[static_cast<std::size_t>(st->req.priority)].push_back(st);
  ++tenant_queued_[st->req.tenant];
  export_gauges_locked();
  cv_.notify_one();
  return ticket;
}

bool SimulationService::cancel(std::uint64_t id) {
  std::lock_guard lk(mu_);
  for (auto& q : queues_) {
    for (auto it = q.begin(); it != q.end(); ++it) {
      if ((*it)->id != id) continue;
      StatePtr st = *it;
      q.erase(it);
      tenant_dec(tenant_queued_, st->req.tenant);
      Response rsp;
      rsp.status = ResponseStatus::kCancelled;
      rsp.error = "cancelled while queued";
      resolve_locked(st, std::move(rsp));
      export_gauges_locked();
      return true;
    }
  }
  for (auto& slot : slots_) {
    if (slot.active != nullptr && slot.active->id == id && !slot.abandoned) {
      slot.source.cancel(CancelReason::kManual);
      return true;
    }
  }
  return false;
}

void SimulationService::worker_loop(std::size_t slot_index) {
  WorkerSlot& slot = slots_[slot_index];
  std::unique_lock lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] { return stopping_ || queued_locked() > 0; });
    StatePtr st = pop_locked();
    if (st == nullptr) {
      if (stopping_) return;  // drained
      continue;
    }
    export_gauges_locked();

    const auto now = Clock::now();
    if (st->deadline != Clock::time_point{} && now >= st->deadline) {
      Response rsp;
      rsp.status = ResponseStatus::kDeadlineExceeded;
      rsp.error = "deadline expired before a worker picked the request up";
      resolve_locked(st, std::move(rsp));
      tenant_dec(tenant_running_, st->req.tenant);
      continue;
    }

    obs::flight::record(st->id, obs::flight::Event::kPickedUp, slot_index);
    slot.active = st;
    slot.source = CancelSource();
    if (st->deadline != Clock::time_point{}) {
      const auto budget = st->deadline - now;
      slot.source.set_deadline_after(
          std::chrono::duration_cast<std::chrono::nanoseconds>(budget));
      obs::flight::record(
          st->id, obs::flight::Event::kDeadlineArmed,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::milliseconds>(budget)
                  .count()));
    }
    slot.abandoned = false;
    slot.last_beat = slot.source.heartbeat();
    slot.last_change = now;
    ++busy_;
    export_gauges_locked();

    const CancelSource source = slot.source;  // shared state, safe unlocked
    const CancelToken token = source.token();
    const std::size_t attempt = st->hang_requeues;
    lk.unlock();

    Response rsp;
    try {
      injected_stall(st->req, st->id, attempt, source);
      token.check();  // a stall cancelled mid-way must not reach the engine
      run_request(*st, token, rsp);
      rsp.status = ResponseStatus::kCompleted;
    } catch (const CancelledError& e) {
      rsp = Response{};
      switch (e.reason()) {
        case CancelReason::kDeadline:
          rsp.status = ResponseStatus::kDeadlineExceeded;
          break;
        case CancelReason::kHang:
          // The watchdog owns this request now (requeued or failed typed);
          // the abandoned flag below discards whatever we report.
          rsp.status = ResponseStatus::kWorkerHung;
          break;
        default:
          rsp.status = ResponseStatus::kCancelled;
          break;
      }
      rsp.error = e.what();
    } catch (const QueueFullError& e) {
      // The batcher's bounded queue rejected a mid-run submission (the
      // engine never blocks on a full batch queue). Same typed rejection
      // the admission queue uses, so callers see one overload signal.
      rsp = Response{};
      rsp.status = ResponseStatus::kRejectedQueueFull;
      rsp.error = e.what();
    } catch (const std::exception& e) {
      rsp = Response{};
      rsp.status = ResponseStatus::kFailed;
      rsp.error = e.what();
    } catch (...) {
      rsp = Response{};
      rsp.status = ResponseStatus::kFailed;
      rsp.error = "unknown error";
    }

    lk.lock();
    --busy_;
    const bool abandoned = slot.abandoned;
    slot.active = nullptr;
    slot.abandoned = false;
    if (!abandoned) resolve_locked(st, std::move(rsp));
    // Whether resolved here or abandoned to the watchdog, this attempt is no
    // longer running. (A watchdog requeue re-counts the request as queued,
    // so the tenant transiently holds both a queued and a running slot until
    // we reach this line — the conservative direction for a quota.)
    tenant_dec(tenant_running_, st->req.tenant);
    export_gauges_locked();
  }
}

void SimulationService::watchdog_loop() {
  std::unique_lock lk(mu_);
  for (;;) {
    stop_cv_.wait_for(lk, opts_.watchdog_interval,
                      [&] { return watchdog_stop_; });
    if (watchdog_stop_) return;
    const auto now = Clock::now();
    for (auto& slot : slots_) {
      if (slot.active == nullptr || slot.abandoned) continue;
      const std::uint64_t beat = slot.source.heartbeat();
      if (beat != slot.last_beat) {
        slot.last_beat = beat;
        slot.last_change = now;
        continue;
      }
      if (now - slot.last_change < opts_.hang_timeout) continue;

      // No heartbeat for hang_timeout: declare the worker hung. The request
      // is taken away (abandoned) and the attempt cancelled; the worker will
      // eventually return and discard its result.
      ++stats_.hangs_detected;
      MLSIM_COUNTER_ADD(obs::names::kSvcHangsDetected, 1);
      slot.abandoned = true;
      slot.source.cancel(CancelReason::kHang);

      StatePtr st = slot.active;
      ++st->hang_requeues;
      if (st->hang_requeues <= opts_.max_hang_requeues) {
        // Requeue at the front of its priority class so the retry does not
        // wait behind the backlog. This may transiently exceed
        // queue_capacity; admission control only bounds new submissions.
        ++stats_.hang_requeues;
        MLSIM_COUNTER_ADD(obs::names::kSvcHangRequeues, 1);
        obs::flight::record(st->id, obs::flight::Event::kRetried,
                            st->hang_requeues);
        queues_[static_cast<std::size_t>(st->req.priority)].push_front(st);
        ++tenant_queued_[st->req.tenant];
        export_gauges_locked();
        cv_.notify_one();
      } else {
        Response rsp;
        rsp.status = ResponseStatus::kWorkerHung;
        rsp.error = "worker hung (no heartbeat for " +
                    std::to_string(opts_.hang_timeout.count()) +
                    " ms) and the requeue budget (" +
                    std::to_string(opts_.max_hang_requeues) + ") is exhausted";
        resolve_locked(st, std::move(rsp));
      }
    }
  }
}

void SimulationService::run_request(const RequestState& st,
                                    const CancelToken& token, Response& rsp) {
  const Request& req = st.req;
  const bool use_primary = breaker_.allow_primary();
  if (!use_primary) {
    obs::flight::record(st.id, obs::flight::Event::kBreakerBypassed);
  }
  bool primary_failed = false;

  // Continuous batching covers the primary path only: the request's channel
  // stands in for the primary predictor. While the breaker is open (or a
  // partition is degraded) the engines call the analytic fallback directly,
  // so a sick primary model can never stall batched peers. A request routed
  // to the cluster predicts nothing here, and an idle open channel would
  // hold every peer's flush to max_wait, so it opens none.
  const bool remote =
      req.engine == EngineKind::kParallel && opts_.remote != nullptr;
  std::shared_ptr<BatchScheduler::Channel> chan;
  if (use_primary && batcher_ != nullptr && !remote) {
    chan = batcher_->open(st.id, token);
  }
  core::LatencyPredictor& pred = chan != nullptr ? *chan
                                 : use_primary   ? primary_
                                                 : fallback_;

  try {
    switch (req.engine) {
      case EngineKind::kParallel: {
        check(req.trace != nullptr, "parallel request needs a trace");
        core::ParallelSimOptions po;
        po.num_subtraces = req.num_subtraces;
        po.num_gpus = req.num_gpus;
        po.context_length = req.context_length;
        po.warmup = req.warmup ? req.context_length : 0;
        po.post_error_correction = req.correction;
        po.faults = req.faults;
        po.fallback = &fallback_;
        po.max_retries_per_partition = opts_.max_retries_per_partition;
        po.cancel = &token;
        core::ParallelSimResult r;
        if (remote) {
          // Route to the cluster. The coordinator polls the same cancel
          // token, so deadlines and the hang watchdog keep working; shard
          // contents are bit-identical to the in-process engine.
          r = opts_.remote->run_remote(*req.trace, po);
        } else {
          core::ParallelSimulator sim(pred, po);
          r = sim.run(*req.trace);
        }
        rsp.total_cycles = r.total_cycles;
        rsp.instructions = r.instructions;
        rsp.cpi = r.cpi();
        if (!r.degraded_partitions.empty()) {
          rsp.degraded = true;
          primary_failed = use_primary;  // anomaly guard fired on the primary
        }
        break;
      }
      case EngineKind::kSequential: {
        check(req.trace != nullptr, "sequential request needs a trace");
        core::SequentialSimOptions so;
        so.context_length = req.context_length;
        so.cancel = &token;
        core::SequentialSimulator sim(pred, so);
        const auto out = sim.run(*req.trace);
        rsp.total_cycles = out.cycles;
        rsp.instructions = out.instructions;
        rsp.cpi = out.cpi();
        break;
      }
    }
  } catch (...) {
    // Cancellation/deadline/engine errors say nothing about predictor
    // health: release the probe slot without a verdict.
    if (use_primary) breaker_.record_no_verdict();
    throw;
  }

  if (use_primary) {
    if (primary_failed) {
      breaker_.record_failure();
    } else {
      breaker_.record_success();
    }
  } else {
    rsp.degraded = true;  // served by the fallback while the breaker is open
  }
}

SimulationService::Stats SimulationService::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

std::size_t SimulationService::queue_depth() const {
  std::lock_guard lk(mu_);
  return queued_locked();
}

std::size_t SimulationService::inflight() const {
  std::lock_guard lk(mu_);
  return busy_;
}

std::string SimulationService::health_json(std::size_t last_errors) const {
  std::lock_guard lk(mu_);
  const BreakerState bs = breaker_.state();
  const std::size_t queued = queued_locked();
  const char* status = "ok";
  if (stopping_) {
    status = "stopping";
  } else if (queued >= opts_.queue_capacity) {
    status = "overloaded";
  } else if (bs != BreakerState::kClosed) {
    status = "degraded";
  }
  std::ostringstream os;
  os << "{\"status\":\"" << status << '"'
     << ",\"lifecycle\":\"" << (stopping_ ? "draining" : "serving") << '"'
     << ",\"workers\":" << slots_.size() << ",\"busy\":" << busy_
     << ",\"queued\":" << queued
     << ",\"queue_capacity\":" << opts_.queue_capacity
     << ",\"max_outstanding\":" << max_outstanding_
     << ",\"breaker\":\"" << to_string(bs) << '"'
     << ",\"breaker_trips\":" << breaker_.trips()
     << ",\"batching\":" << (batcher_ != nullptr ? "true" : "false")
     << ",\"submitted\":" << stats_.submitted
     << ",\"accepted\":" << stats_.accepted << ",\"rejected\":{"
     << "\"queue_full\":" << stats_.rejected_queue_full
     << ",\"overload\":" << stats_.rejected_overload
     << ",\"shedding\":" << stats_.rejected_shedding
     << ",\"quota\":" << stats_.rejected_quota << '}'
     << ",\"completed\":" << stats_.completed
     << ",\"failed\":" << stats_.failed
     << ",\"deadline_exceeded\":" << stats_.deadline_exceeded
     << ",\"cancelled\":" << stats_.cancelled << ",\"hung\":" << stats_.hung
     << ",\"hangs_detected\":" << stats_.hangs_detected
     << ",\"hang_requeues\":" << stats_.hang_requeues
     << ",\"degraded\":" << stats_.degraded;
  if (last_errors > 0) {
    os << ",\"last_errors\":" << obs::flight::last_errors_json(last_errors);
  }
  os << '}';
  return os.str();
}

}  // namespace mlsim::service
