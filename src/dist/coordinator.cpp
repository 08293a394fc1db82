#include "dist/coordinator.h"

#include <unistd.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "dist/protocol.h"
#include "net/frame.h"
#include "obs/flight_recorder.h"
#include "obs/metric_names.h"
#include "obs/obs.h"

namespace mlsim::dist {

namespace {

double us_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t)
      .count();
}

/// Nonzero distributed trace id for one run: the fingerprint already hashes
/// trace + options + plan, mixed with the session so repeated runs of the
/// same work get distinct ids.
std::uint64_t derive_trace_id(std::uint64_t fingerprint,
                              std::uint64_t session) {
  std::uint64_t id = fingerprint ^ (session * 0x9e3779b97f4a7c15ull);
  return id == 0 ? 1 : id;
}

/// Nearest-rank percentile of the (unsorted) sample; < 0 when empty.
double percentile_of(std::vector<double> v, double pct) {
  if (v.empty()) return -1.0;
  const double frac = std::clamp(pct, 0.0, 100.0) / 100.0;
  const auto idx = static_cast<std::size_t>(
      frac * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

/// Completions the speculation percentile needs before it can tell a
/// straggler from normal pace.
constexpr std::size_t kMinPaceSamples = 3;

/// Nonzero rejoin token: splitmix64 of the run fingerprint. Derived, not
/// random, so a restarted coordinator resuming the same work issues the
/// identical token and pre-restart workers pass the rejoin check.
std::uint64_t derive_session_token(std::uint64_t fingerprint) {
  std::uint64_t z = fingerprint + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

}  // namespace

DistCoordinator::DistCoordinator(net::TcpListener listener,
                                 CoordinatorOptions opts)
    : listener_(std::move(listener)),
      opts_(opts),
      // Resume implies a result cache: the replayed outcomes have to live
      // somewhere the dispatch pre-pass will find them.
      cache_(opts.resume && opts.result_cache_entries == 0
                 ? 1024
                 : opts.result_cache_entries) {
  check(listener_.valid(), "coordinator needs a bound listener");
  check(opts_.max_assign_attempts > 0, "need at least one assignment attempt");
  if (!opts_.journal_path.empty()) {
    if (opts_.resume) {
      lifecycle_ = "replaying";
      refresh_health(nullptr);
      resume_ = RunJournal::replay(opts_.journal_path, opts_.journal_strict);
    }
    // A crash can tear the record it was writing; appending behind that
    // tear would hide this run's records from the next replay.
    journal_.open(opts_.journal_path,
                  resume_.has_value() ? resume_->dropped_bytes : 0);
  }
  lifecycle_ = "serving";
  refresh_health(nullptr);
}

DistCoordinator::~DistCoordinator() { shutdown_workers(); }

void DistCoordinator::shutdown_workers() {
  for (auto& w : workers_) {
    if (w->dead) continue;
    try {
      net::send_frame(w->conn, encode_shutdown());
    } catch (const IoError&) {
      // Already gone; nothing to drain.
    }
  }
  workers_.clear();
  refresh_health(nullptr);
}

std::size_t DistCoordinator::connected_workers() const {
  std::lock_guard lk(health_mu_);
  return workers_snapshot_;
}

CoordinatorStats DistCoordinator::stats() const {
  std::lock_guard lk(health_mu_);
  return stats_snapshot_;
}

void DistCoordinator::accept_joiners(const SealedWelcome& welcome,
                                     RunState& rs) {
  // Drain the backlog: accept until the listener would block.
  for (;;) {
    auto conn = listener_.accept(0);
    if (!conn.has_value()) return;
    RejoinMsg rj;
    bool is_rejoin = false;
    try {
      if (!conn->readable(opts_.handshake_timeout_ms)) {
        continue;  // never said Hello; drop
      }
      std::string payload;
      if (!net::recv_frame(*conn, payload)) continue;
      std::uint32_t version = 0;
      if (peek_type(payload, conn->peer()) == MsgType::kRejoin) {
        rj = decode_rejoin(payload, conn->peer());
        version = rj.version;
        is_rejoin = true;
      } else {
        version = decode_hello(payload, conn->peer());
      }
      if (version != kProtocolVersion) {
        ++stats_.workers_rejected;
        net::send_frame(
            *conn, encode_reject("protocol version " +
                                 std::to_string(version) +
                                 " unsupported (coordinator speaks " +
                                 std::to_string(kProtocolVersion) + ")"));
        continue;
      }
      net::send_frame(*conn, welcome.header, welcome.payload);
      auto w = std::make_unique<Worker>();
      w->conn = std::move(*conn);
      w->last_heard = Clock::now();
      w->uid = next_worker_uid_++;
      workers_.push_back(std::move(w));
    } catch (const IoError&) {
      continue;  // died mid-handshake
    } catch (const CheckError&) {
      continue;  // spoke garbage instead of Hello
    }
    Worker& joined = *workers_.back();
    if (is_rejoin && session_token_ != 0 && rj.token == session_token_) {
      // Re-attach: the worker belonged to this run (the token is derived
      // from the run fingerprint, so it also survives a coordinator
      // restart). Its finished Result, if any, arrives under the fresh
      // session right after the Welcome; its unfinished assignment is
      // re-dispatched immediately instead of waiting for assign_pending.
      ++stats_.workers_rejoined;
      MLSIM_COUNTER_ADD(obs::names::kDistWorkersRejoined, 1);
      if (rj.shard < rs.shards.size() &&
          rs.shards[rj.shard].state == ShardState::kPending &&
          rs.shards[rj.shard].attempts < opts_.max_assign_attempts &&
          send_assign(joined, rj.shard, rs)) {
        rs.shards[rj.shard].state = ShardState::kAssigned;
        rs.shards[rj.shard].owner = &joined;
      }
    } else {
      // A stale or missing token demotes the reconnect to a fresh join.
      ++stats_.workers_joined;
      MLSIM_COUNTER_ADD(obs::names::kDistWorkersJoined, 1);
    }
  }
}

void DistCoordinator::detach_worker_from_shard(Worker& w, RunState& rs) {
  if (!w.shard.has_value()) return;
  const std::size_t s = *w.shard;
  w.shard.reset();
  if (s >= rs.shards.size()) return;
  Shard& sh = rs.shards[s];
  if (sh.state != ShardState::kAssigned) return;
  if (sh.spec == &w) {
    // Losing the speculative copy costs nothing: the owner still has it.
    sh.spec = nullptr;
    return;
  }
  if (sh.owner != &w) return;  // stolen away earlier; w was a stale holder
  if (sh.spec != nullptr && !sh.spec->dead && !sh.spec->suspect) {
    // The duplicate is already computing it — promote instead of requeueing.
    sh.owner = sh.spec;
    sh.spec = nullptr;
    return;
  }
  sh.spec = nullptr;
  reassign(s, rs);
}

void DistCoordinator::drop_worker(Worker& w, RunState& rs) {
  if (w.dead) return;
  w.dead = true;
  w.conn.close();
  ++stats_.workers_lost;
  MLSIM_COUNTER_ADD(obs::names::kDistWorkersLost, 1);
  detach_worker_from_shard(w, rs);
}

void DistCoordinator::reassign(std::size_t shard_idx, RunState& rs) {
  rs.shards[shard_idx].state = ShardState::kPending;
  rs.shards[shard_idx].owner = nullptr;
  rs.shards[shard_idx].spec = nullptr;
  ++stats_.reassignments;
  MLSIM_COUNTER_ADD(obs::names::kDistReassignments, 1);
}

bool DistCoordinator::send_assign(Worker& w, std::size_t s, RunState& rs) {
  AssignMsg a;
  a.session = session_;
  a.shard = s;
  a.part_lo = rs.plan->shard_lo(s);
  a.part_hi = rs.plan->shard_hi(s);
  a.attempt = static_cast<std::uint32_t>(rs.shards[s].attempts);
  a.trace_id = trace_id_;
  a.parent_span = obs::current_parent_span();
  try {
    net::send_frame(w.conn, encode_assign(a));
  } catch (const IoError&) {
    drop_worker(w, rs);
    return false;
  }
  if (journal_.enabled()) journal_.assign(session_, s, a.attempt);
  ++rs.shards[s].attempts;
  w.shard = s;
  w.assigned_at = Clock::now();
  w.last_heard = Clock::now();
  ++stats_.shards_dispatched;
  MLSIM_COUNTER_ADD(obs::names::kDistShardsDispatched, 1);
  return true;
}

void DistCoordinator::assign_pending(RunState& rs) {
  for (std::size_t s = 0; s < rs.shards.size(); ++s) {
    if (rs.shards[s].state != ShardState::kPending) continue;
    Worker* idle = nullptr;
    for (auto& w : workers_) {
      if (!w->dead && !w->suspect && !w->shard.has_value()) {
        idle = w.get();
        break;
      }
    }
    if (idle == nullptr) return;  // no capacity this tick
    check(rs.shards[s].attempts < opts_.max_assign_attempts,
          "shard " + std::to_string(s) + " exceeded its assignment budget (" +
              std::to_string(opts_.max_assign_attempts) + " attempts)");
    if (!send_assign(*idle, s, rs)) {
      --s;  // retry this shard against the remaining pool
      continue;
    }
    rs.shards[s].state = ShardState::kAssigned;
    rs.shards[s].owner = idle;
  }
}

double DistCoordinator::fleet_pace_us() const {
  double sum = 0.0;
  std::size_t cnt = 0;
  for (const auto& w : workers_) {
    if (w->dead || w->ewma_shard_us <= 0.0) continue;
    double us = w->ewma_shard_us;
    // A worker spending a fraction b of its wall time on shard work takes
    // ~1/b of its historical per-shard time right now.
    if (w->busy_ratio > 0.0) us /= std::clamp(w->busy_ratio, 0.1, 1.0);
    sum += us;
    ++cnt;
  }
  return cnt > 0 ? sum / static_cast<double>(cnt) : -1.0;
}

void DistCoordinator::rebalance(RunState& rs) {
  if (!opts_.steal && opts_.speculate_pct <= 0.0) return;
  // Idle capacity only exists once nothing is pending: assign_pending runs
  // first each tick, so any leftover idle worker here has no real work.
  std::vector<Worker*> idle;
  for (auto& w : workers_) {
    if (!w->dead && !w->suspect && !w->shard.has_value()) idle.push_back(w.get());
  }
  if (idle.empty()) return;
  for (const auto& sh : rs.shards) {
    if (sh.state == ShardState::kPending) return;
  }

  const double fleet_us = fleet_pace_us();
  const double spec_floor_us =
      (opts_.speculate_pct > 0.0 && rs.latencies_us.size() >= kMinPaceSamples)
          ? percentile_of(rs.latencies_us, opts_.speculate_pct)
          : -1.0;

  for (std::size_t s = 0; s < rs.shards.size() && !idle.empty(); ++s) {
    Shard& sh = rs.shards[s];
    if (sh.state != ShardState::kAssigned || sh.owner == nullptr) continue;
    if (sh.attempts >= opts_.max_assign_attempts) continue;  // budget spent
    const double age_us = us_since(sh.owner->assigned_at);
    if (opts_.steal && fleet_us > 0.0 &&
        age_us > opts_.steal_grace_factor * fleet_us) {
      // Rebalance to the idle worker. The old owner keeps computing (its
      // w.shard still points here) — whichever Result lands first wins.
      Worker* thief = idle.back();
      idle.pop_back();
      if (!send_assign(*thief, s, rs)) continue;
      sh.owner = thief;
      ++stats_.steals;
      MLSIM_COUNTER_ADD(obs::names::kClusterStealShards, 1);
    } else if (spec_floor_us > 0.0 && sh.spec == nullptr &&
               age_us > spec_floor_us) {
      // Straggler by this run's own completed-latency distribution:
      // duplicate onto the idle worker, keep the owner racing.
      Worker* backup = idle.back();
      idle.pop_back();
      if (!send_assign(*backup, s, rs)) continue;
      sh.spec = backup;
      ++stats_.speculations;
      MLSIM_COUNTER_ADD(obs::names::kClusterSpeculativeDispatched, 1);
    }
  }
}

void DistCoordinator::handle_frame(Worker& w, RunState& rs) {
  std::string payload;
  try {
    if (!net::recv_frame(w.conn, payload)) {
      drop_worker(w, rs);  // clean EOF: worker exited
      return;
    }
  } catch (const IoError&) {
    drop_worker(w, rs);  // reset, or a truncated/corrupt frame
    return;
  }
  w.last_heard = Clock::now();
  w.suspect = false;
  WorkerErrorMsg fatal;
  bool have_fatal = false;
  try {
    switch (peek_type(payload, w.conn.peer())) {
      case MsgType::kHeartbeat: {
        const HeartbeatMsg hb = decode_heartbeat(payload, w.conn.peer());
        ++stats_.heartbeats;
        MLSIM_COUNTER_ADD(obs::names::kDistHeartbeats, 1);
        if (hb.busy_ratio >= 0.0) {
          w.busy_ratio = std::min(1.0, hb.busy_ratio);
          update_busy_gauge();
        }
        if (obs::enabled()) {
          // Fold the worker's counter deltas into the cluster rollups.
          for (const RollupDelta& d : hb.rollups) {
            if (d.id < kNumRollupCounters) {
              obs::default_registry()
                  .counter(kRollupCounters[d.id].cluster)
                  .add(d.delta);
            }
          }
        }
        break;
      }
      case MsgType::kResult: {
        ResultDecoded d = decode_result(payload, w.conn.peer());
        const std::size_t s = d.header.shard;
        if (w.shard == s) w.shard.reset();
        if (d.header.session != session_ || s >= rs.shards.size() ||
            rs.shards[s].state == ShardState::kDone) {
          // Duplicate, or a late delivery for a shard already completed
          // elsewhere (possibly by its steal/speculation twin): outcomes are
          // deterministic, so the first accepted result is as good as any —
          // drop idempotently.
          ++stats_.duplicates_dropped;
          MLSIM_COUNTER_ADD(obs::names::kDistDuplicatesDropped, 1);
          break;
        }
        check(d.outcome.part_lo == rs.plan->shard_lo(s) &&
                  d.outcome.part_hi == rs.plan->shard_hi(s),
              "shard result range does not match the plan");
        if (rs.shards[s].spec == &w) {
          // The speculative duplicate beat the original owner.
          MLSIM_COUNTER_ADD(obs::names::kClusterSpeculativeWins, 1);
        }
        // Durability before effect: the result is journaled before the
        // shard is counted done, so a crash after this point re-serves it
        // from the journal instead of re-dispatching it.
        if (journal_.enabled()) journal_.result(session_, payload);
        rs.shards[s].outcome = std::move(d.outcome);
        rs.shards[s].state = ShardState::kDone;
        rs.shards[s].owner = nullptr;
        rs.shards[s].spec = nullptr;
        if (cache_.enabled()) {
          cache_.insert({rs.fingerprint, s, rs.plan->shard_lo(s),
                         rs.plan->shard_hi(s)},
                        rs.shards[s].outcome);
        }
        if (d.trace_id != 0 && !d.spans.empty() && obs::enabled()) {
          // Merge the worker's span buffer into the cross-process trace
          // under its stable uid (coordinator itself is pid 1).
          obs::add_remote_spans(1 + w.uid, d.trace_id, std::move(d.spans));
        }
        ++rs.done;
        ++w.completed;
        ++stats_.shards_completed;
        const double lat_us = us_since(w.assigned_at);
        w.ewma_shard_us = w.ewma_shard_us > 0.0
                              ? 0.7 * w.ewma_shard_us + 0.3 * lat_us
                              : lat_us;
        rs.latencies_us.push_back(lat_us);
        MLSIM_COUNTER_ADD(obs::names::kDistShardsCompleted, 1);
        MLSIM_HIST_RECORD(obs::names::kDistShardLatencyUs, lat_us);
        break;
      }
      case MsgType::kGoodbye: {
        (void)decode_goodbye(payload, w.conn.peer());
        // Planned departure: requeue (or hand to the speculative twin) right
        // now instead of burning the heartbeat timeout, and don't count the
        // worker as lost.
        ++stats_.workers_departed;
        MLSIM_COUNTER_ADD(obs::names::kDistWorkersDeparted, 1);
        detach_worker_from_shard(w, rs);
        w.dead = true;
        w.conn.close();
        break;
      }
      case MsgType::kWorkerError: {
        const WorkerErrorMsg m = decode_worker_error(payload, w.conn.peer());
        if (m.kind == 1) {
          // Deterministic content failure: rerunning elsewhere reproduces
          // it, so fail the run (outside this catch block).
          fatal = m;
          have_fatal = true;
          break;
        }
        // Worker-side transport trouble: requeue whatever it was running.
        detach_worker_from_shard(w, rs);
        break;
      }
      default:
        // A worker must not send Hello/Welcome/Assign/Shutdown mid-run.
        drop_worker(w, rs);
        break;
    }
  } catch (const CheckError&) {
    // Undecodable or plan-inconsistent content: treat like transport loss.
    drop_worker(w, rs);
    return;
  }
  if (have_fatal) {
    throw CheckError("worker " + w.conn.peer() + " failed shard " +
                     std::to_string(fatal.shard) +
                     " deterministically: " + fatal.what);
  }
}

void DistCoordinator::reap_dead_workers() {
  workers_.erase(
      std::remove_if(workers_.begin(), workers_.end(),
                     [](const std::unique_ptr<Worker>& w) { return w->dead; }),
      workers_.end());
}

core::ParallelSimResult DistCoordinator::run(
    const trace::EncodedTrace& trace, const core::ParallelSimOptions& opts) {
  core::ParallelSimResult res;
  const std::size_t n = trace.size();
  res.instructions = n;
  if (n == 0) return res;

  MLSIM_TRACE_SPAN("dist/run");
  ++session_;
  const core::ShardPlan plan = core::ShardPlan::make(n, opts);
  const std::uint64_t fp = core::run_fingerprint(trace, opts, plan.parts);
  session_token_ = derive_session_token(fp);
  if (obs::enabled()) {
    // One distributed trace per run: the id rides on every Assign, workers
    // record under it, and their Result span buffers merge back here.
    trace_id_ = derive_trace_id(fp, session_);
    obs::set_trace_context(trace_id_, 0);
  } else {
    trace_id_ = 0;
  }
  const RunConfig cfg = RunConfig::from_options(opts);

  RunState rs;
  rs.plan = &plan;
  rs.fingerprint = fp;
  rs.shards.resize(plan.num_shards);

  // One-shot resume feed: the journal's completed shards become cache
  // entries, which the pre-pass below serves like any other hit (so replay
  // hits count toward cluster.cache.hits and are never dispatched).
  if (resume_.has_value()) {
    if (resume_->fingerprint == fp) {
      for (auto& [s, outcome] : resume_->results) {
        if (s >= plan.num_shards) continue;
        if (outcome.part_lo != plan.shard_lo(s) ||
            outcome.part_hi != plan.shard_hi(s)) {
          continue;  // a different ShardPlan journaled this shard index
        }
        cache_.insert({fp, s, plan.shard_lo(s), plan.shard_hi(s)},
                      std::move(outcome));
        ++stats_.journal_replayed;
      }
    }
    resume_.reset();
  }

  if (journal_.enabled()) {
    journal_.run_open(session_, fp, plan.num_shards, cfg);
  }

  // Serve whatever the result cache already holds: a hit completes the
  // shard without dispatching it. Identical repeated runs finish here.
  if (cache_.enabled()) {
    for (std::size_t s = 0; s < rs.shards.size(); ++s) {
      const ShardResultCache::Key key{fp, s, plan.shard_lo(s),
                                      plan.shard_hi(s)};
      if (const core::ShardOutcome* hit = cache_.lookup(key)) {
        rs.shards[s].outcome = *hit;
        rs.shards[s].state = ShardState::kDone;
        ++rs.done;
        // Re-journal cache-served shards under this run-open so each
        // journal section is self-contained: a second crash+resume keeps
        // the shards the first resume inherited.
        if (journal_.enabled()) {
          journal_.result(
              session_,
              encode_result({session_, s, 0}, rs.shards[s].outcome));
        }
      }
    }
  }

  // A fully cache-served run skips the cluster entirely: encoding the
  // Welcome (a copy of the trace) and broadcasting it to every worker would
  // otherwise make a zero-dispatch re-run scale with the fleet size.
  // Workers keep their stale session state; the next dispatching run
  // re-welcomes them. The Welcome is sealed once per run: every worker and
  // joiner gets the same header and payload bytes.
  SealedWelcome welcome;
  if (rs.done < plan.num_shards) {
    welcome.payload = encode_welcome(session_, fp, cfg, trace, session_token_);
    welcome.header = net::frame_header(welcome.payload);
    // Re-welcome workers that joined in a previous run: their session state
    // is stale until they see this run's config and trace.
    for (auto& w : workers_) {
      try {
        net::send_frame(w->conn, welcome.header, welcome.payload);
      } catch (const IoError&) {
        drop_worker(*w, rs);
      }
    }
    reap_dead_workers();
  }

  const auto started = Clock::now();
  const auto deadline =
      started + std::chrono::milliseconds(opts_.run_timeout_ms);
  // min_workers gates only the *initial* dispatch (don't race shards onto a
  // half-joined cluster). Once dispatch has begun, losing workers below the
  // floor must not stall the run — the survivors drain the queue.
  bool dispatching = false;
  while (rs.done < plan.num_shards) {
    if (opts.cancel != nullptr) opts.cancel->check();
    if (opts_.run_timeout_ms > 0 && Clock::now() > deadline) {
      throw IoError("distributed run timed out after " +
                    std::to_string(opts_.run_timeout_ms) + " ms with " +
                    std::to_string(rs.done) + "/" +
                    std::to_string(plan.num_shards) + " shards complete");
    }
    if (drain_requested_) {
      // Draining: no new admissions or dispatches; in-flight shards may
      // finish until the drain deadline, then the run closes regardless.
      bool inflight = false;
      for (const Shard& sh : rs.shards) {
        if (sh.state == ShardState::kAssigned) {
          inflight = true;
          break;
        }
      }
      if (!inflight || Clock::now() > drain_deadline_) finish_drain(rs);
    } else {
      if (workers_.size() >= opts_.min_workers) dispatching = true;
      if (dispatching) {
        assign_pending(rs);
        rebalance(rs);
      }
    }

    // Once draining, the wake fd leaves the poll set: the request is level
    // state, and a second signal never reaches the loop anyway (the handler
    // _exits directly).
    const bool has_wake = opts_.wake_fd >= 0 && !drain_requested_;
    std::vector<int> fds;
    fds.reserve(workers_.size() + 2);
    fds.push_back(listener_.fd());
    if (has_wake) fds.push_back(opts_.wake_fd);
    for (auto& w : workers_) fds.push_back(w->conn.fd());
    const std::vector<bool> ready = net::poll_readable(fds, opts_.poll_ms);
    const std::size_t base = has_wake ? 2 : 1;

    if (has_wake && ready[1] && !drain_requested_) {
      // One readable byte = drain request (net::SignalPipe writes it from
      // the SIGTERM/SIGINT handler). One bounded read — never a drain-to-
      // EAGAIN loop, because the fd is allowed to be a plain blocking pipe.
      char buf[64];
      [[maybe_unused]] const ssize_t got =
          ::read(opts_.wake_fd, buf, sizeof(buf));
      drain_requested_ = true;
      drain_deadline_ =
          Clock::now() + std::chrono::milliseconds(opts_.drain_timeout_ms);
      lifecycle_ = "draining";
      MLSIM_COUNTER_ADD(obs::names::kDistDrainRequests, 1);
    }
    if (ready[0] && !drain_requested_) accept_joiners(welcome, rs);
    // accept_joiners may have appended workers the poll never saw; only the
    // first fds.size()-base entries have a ready bit.
    for (std::size_t i = 0; i + base < fds.size(); ++i) {
      if (ready[i + base] && !workers_[i]->dead) {
        handle_frame(*workers_[i], rs);
      }
    }

    // Presume silent assigned workers dead: requeue their shards (or hand
    // them to their speculative twin), but keep the sockets open — a late
    // Result is still accepted (or dropped as a duplicate) if the worker
    // was merely slow.
    const auto now = Clock::now();
    for (auto& w : workers_) {
      if (w->dead || !w->shard.has_value()) continue;
      const auto silent_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              now - w->last_heard)
              .count();
      if (silent_ms > opts_.heartbeat_timeout_ms) {
        w->suspect = true;
        detach_worker_from_shard(*w, rs);
      }
    }
    reap_dead_workers();
    refresh_health(&rs);
  }

  core::ShardOutcome ledger = core::ShardOutcome::full(plan, opts);
  for (const Shard& s : rs.shards) ledger.absorb(plan, s.outcome);
  res = core::finalize(opts, plan, ledger, /*predictor_flops=*/0);
  if (journal_.enabled()) {
    journal_.run_close(session_, RunJournal::kStatusComplete);
  }
  if (obs::enabled()) {
    for (const auto& w : workers_) {
      MLSIM_HIST_RECORD(obs::names::kDistShardsPerWorker,
                        static_cast<double>(w->completed));
    }
  }
  refresh_health(&rs);
  return res;
}

void DistCoordinator::finish_drain(RunState& rs) {
  std::size_t abandoned = 0;
  for (const Shard& sh : rs.shards) {
    if (sh.state != ShardState::kDone) ++abandoned;
  }
  MLSIM_COUNTER_ADD(obs::names::kDistDrainShardsAbandoned,
                    static_cast<std::uint64_t>(abandoned));
  // Run-close with the drained status: the journal section stays valid for
  // `--resume`, which re-serves every result journaled above.
  if (journal_.enabled()) {
    journal_.run_close(session_, RunJournal::kStatusDrained);
  }
  refresh_health(&rs);
  // Shutdown, not abandonment: workers get the same Shutdown frame a
  // completed run would send, so they exit instead of burning their
  // reconnect budgets against a closed coordinator.
  shutdown_workers();
  throw DrainError("drain requested: stopped with " + std::to_string(rs.done) +
                   "/" + std::to_string(rs.shards.size()) +
                   " shards complete; progress journaled for --resume");
}

void DistCoordinator::update_busy_gauge() {
  // Mean busy fraction over live workers that have reported one — one
  // declared gauge; per-worker ratios are in cluster_json. A worker with no
  // report yet is excluded rather than averaged in as zero.
  double sum = 0.0;
  std::size_t cnt = 0;
  for (const auto& w : workers_) {
    if (w->dead || w->busy_ratio < 0.0) continue;
    sum += w->busy_ratio;
    ++cnt;
  }
  if (cnt > 0) {
    MLSIM_GAUGE_SET(obs::names::kClusterWorkerBusyRatio,
                    sum / static_cast<double>(cnt));
  }
}

void DistCoordinator::refresh_health(const RunState* rs) {
  std::ostringstream os;
  os << "{\"status\":\"" << (rs != nullptr ? "running" : "idle")
     << "\",\"lifecycle\":\"" << lifecycle_
     << "\",\"session\":" << session_
     << ",\"workers_connected\":" << workers_.size();
  if (rs != nullptr) {
    os << ",\"shards_done\":" << rs->done
       << ",\"shards_total\":" << rs->shards.size();
  }
  os << ",\"workers\":[";
  bool first = true;
  for (const auto& w : workers_) {
    os << (first ? "" : ",") << "{\"id\":" << w->uid
       << ",\"completed\":" << w->completed
       << ",\"suspect\":" << (w->suspect ? "true" : "false")
       << ",\"busy_ratio\":";
    if (w->busy_ratio >= 0.0) {
      os << w->busy_ratio;
    } else {
      os << "null";  // no heartbeat has reported busy time yet
    }
    os << '}';
    first = false;
  }
  os << "],\"stats\":{\"workers_joined\":" << stats_.workers_joined
     << ",\"workers_lost\":" << stats_.workers_lost
     << ",\"workers_rejected\":" << stats_.workers_rejected
     << ",\"workers_departed\":" << stats_.workers_departed
     << ",\"shards_dispatched\":" << stats_.shards_dispatched
     << ",\"shards_completed\":" << stats_.shards_completed
     << ",\"reassignments\":" << stats_.reassignments
     << ",\"duplicates_dropped\":" << stats_.duplicates_dropped
     << ",\"heartbeats\":" << stats_.heartbeats
     << ",\"steals\":" << stats_.steals
     << ",\"speculations\":" << stats_.speculations
     << ",\"cache_hits\":" << cache_.hits()
     << ",\"cache_misses\":" << cache_.misses()
     << ",\"cache_evictions\":" << cache_.evictions()
     << ",\"cache_entries\":" << cache_.entries()
     << ",\"workers_rejoined\":" << stats_.workers_rejoined
     << ",\"journal_replayed\":" << stats_.journal_replayed << "}}";
  std::lock_guard lk(health_mu_);
  health_json_ = os.str();
  stats_snapshot_ = stats_;
  stats_snapshot_.cache_hits = cache_.hits();
  stats_snapshot_.cache_misses = cache_.misses();
  stats_snapshot_.cache_evictions = cache_.evictions();
  workers_snapshot_ = workers_.size();
}

std::string DistCoordinator::cluster_json(std::size_t last_errors) const {
  std::string doc;
  {
    std::lock_guard lk(health_mu_);
    doc = health_json_;
  }
  if (last_errors > 0 && !doc.empty() && doc.back() == '}') {
    doc.insert(doc.size() - 1, ",\"last_errors\":" +
                                   obs::flight::last_errors_json(last_errors));
  }
  return doc;
}

}  // namespace mlsim::dist
