#include "dist/worker.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "common/check.h"
#include "core/analytic_predictor.h"
#include "dist/protocol.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/obs.h"

namespace mlsim::dist {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-connection telemetry the worker piggybacks on heartbeats: the
/// busy/wall ratio since the previous heartbeat (pure clock math — works
/// with obs disabled) and deltas of the kRollupCounters registry values.
struct WorkerTelemetry {
  Clock::time_point last_heartbeat = Clock::now();
  std::uint64_t busy_ns = 0;  // time inside run_partition since last_heartbeat
  std::uint64_t last_value[kNumRollupCounters] = {};

  HeartbeatMsg make(std::uint64_t session, std::uint64_t shard) {
    HeartbeatMsg hb;
    hb.session = session;
    hb.shard = shard;
    const Clock::time_point now = Clock::now();
    const auto wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                             last_heartbeat)
            .count());
    hb.busy_ratio =
        wall_ns > 0 ? std::min(1.0, static_cast<double>(busy_ns) /
                                        static_cast<double>(wall_ns))
                    : 0.0;
    last_heartbeat = now;
    busy_ns = 0;
    if (obs::enabled()) {
      for (std::uint32_t i = 0; i < kNumRollupCounters; ++i) {
        const std::uint64_t v =
            obs::default_registry().counter(kRollupCounters[i].local).value();
        if (v > last_value[i]) {
          hb.rollups.push_back(RollupDelta{i, v - last_value[i]});
        }
        last_value[i] = v;
      }
    }
    return hb;
  }
};

/// Everything a Welcome establishes. Heap-allocated so the options'
/// injector pointer stays stable for the session's lifetime.
struct Session {
  std::uint64_t id = 0;
  trace::EncodedTrace trace;
  device::FaultInjector injector;
  core::AnalyticPredictor predictor;
  core::AnalyticPredictor fallback;
  core::ParallelSimOptions opts;
  core::ShardPlan plan;
  std::uint64_t fingerprint = 0;
};

/// Takes the Welcome's trace (w.trace is left empty); the other fields stay.
std::unique_ptr<Session> open_session(WelcomeDecoded& w) {
  auto s = std::make_unique<Session>();
  s->id = w.session;
  s->trace = std::move(w.trace);
  s->injector = device::FaultInjector(w.config.fault_options());
  s->opts = w.config.to_options(
      w.config.faults_enabled ? &s->injector : nullptr);
  s->opts.fallback = &s->fallback;
  s->plan = core::ShardPlan::make(s->trace.size(), s->opts);
  s->fingerprint = core::run_fingerprint(s->trace, s->opts, s->plan.parts);
  return s;
}

/// Bounded exponential backoff with deterministic jitter: attempt a waits
/// min(10·2^a, 500) ms plus a splitmix64((port, attempt)) jitter of up to
/// half the base. No global RNG, so retry schedules are reproducible.
std::chrono::milliseconds backoff_delay(const WorkerConfig& cfg, int attempt) {
  const std::uint64_t base =
      std::min<std::uint64_t>(500, 10ull << std::min(attempt, 16));
  std::uint64_t z = (static_cast<std::uint64_t>(cfg.port) << 32) ^
                    static_cast<std::uint64_t>(attempt);
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return std::chrono::milliseconds(base + z % (base / 2 + 1));
}

net::TcpConn connect_with_retry(const WorkerConfig& cfg) {
  for (int a = 0;; ++a) {
    try {
      return net::TcpConn::connect(cfg.host, cfg.port);
    } catch (const IoError&) {
      if (a + 1 >= cfg.reconnect_budget) {
        throw IoError("worker reconnect budget exhausted after " +
                      std::to_string(cfg.reconnect_budget) + " attempts to " +
                      cfg.host + ":" + std::to_string(cfg.port));
      }
      std::this_thread::sleep_for(backoff_delay(cfg, a));
    }
  }
}

/// True when the frames the coordinator sent before `conn` broke, still
/// unread, include a Shutdown. A coordinator that finishes its run closes
/// every connection right after its Shutdown frame; a worker still
/// computing a duplicate shard then fails its next send, with the Shutdown
/// waiting unread behind the frames it has read.
bool shutdown_unread(net::TcpConn& conn) {
  std::string payload;
  try {
    while (conn.readable(0)) {
      if (!net::recv_frame(conn, payload)) return false;
      if (peek_type(payload, conn.peer()) == MsgType::kShutdown) return true;
    }
  } catch (const IoError&) {
  } catch (const CheckError&) {
  }
  return false;
}

}  // namespace

WorkerStats run_worker(const WorkerConfig& cfg) {
  WorkerStats stats;
  // Cross-connection re-attach state. `token` is the rejoin token from the
  // last Welcome (0 = no session yet); `inflight_shard` is the assignment
  // held when a connection breaks; a finished-but-unacknowledged outcome
  // waits in `pending` for re-delivery under the next Welcome of the same
  // run.
  std::uint64_t token = 0;
  std::uint64_t last_session = 0;
  std::uint64_t inflight_shard = kIdleShard;
  struct PendingResult {
    std::uint64_t fingerprint = 0;
    std::uint64_t shard = 0;
    std::uint32_t attempt = 0;
    core::ShardOutcome outcome;
  };
  std::optional<PendingResult> pending;
  bool fresh_hello = true;
  for (;;) {
    net::TcpConn conn = connect_with_retry(cfg);
    try {
      if (fresh_hello || token == 0) {
        net::send_frame(conn, encode_hello(kProtocolVersion));
      } else {
        // Re-attach: present the session token and the in-flight shard.
        // The coordinator answers with a fresh Welcome (token match) or
        // treats us as a plain joiner (restarted into different work).
        net::send_frame(conn, encode_rejoin({kProtocolVersion, token,
                                             last_session, inflight_shard}));
        ++stats.rejoins;
      }
      fresh_hello = false;
      std::unique_ptr<Session> session;
      WorkerTelemetry telemetry;
      std::string payload;
      bool restart_fresh = false;
      for (;;) {
        // Heartbeat while idle so the coordinator can tell "slow" from
        // "dead".
        while (!conn.readable(cfg.heartbeat_ms)) {
          net::send_frame(conn, encode_heartbeat(telemetry.make(
                                    session ? session->id : 0, kIdleShard)));
        }
        if (!net::recv_frame(conn, payload)) {
          // Clean EOF. Before any Welcome (no token): the coordinator is
          // done with us. With a live session: transport loss — rejoin.
          if (token == 0) return stats;
          throw IoError("coordinator closed the connection mid-session");
        }
        switch (peek_type(payload, conn.peer())) {
          case MsgType::kReject:
            throw CheckError("coordinator rejected worker: " +
                             decode_reject(payload, conn.peer()));
          case MsgType::kWelcome: {
            WelcomeDecoded w = decode_welcome(payload, conn.peer());
            session = open_session(w);
            ++stats.sessions;
            if (session->fingerprint != w.fingerprint) {
              net::send_frame(
                  conn, encode_worker_error(
                            {session->id, kIdleShard, /*kind=*/1,
                             "fingerprint mismatch: worker reconstructed a "
                             "different run than the coordinator announced"}));
              session.reset();
              break;
            }
            token = w.token;
            last_session = w.session;
            inflight_shard = kIdleShard;
            if (pending.has_value() &&
                pending->fingerprint == session->fingerprint) {
              // The connection died between computing a shard and the
              // coordinator accepting it: re-deliver under the new session
              // id (dedup makes a double delivery harmless). Reset only
              // after the send — a throw here re-delivers on the next
              // rejoin instead of losing the outcome.
              net::send_frame(
                  conn, encode_result({session->id, pending->shard,
                                       pending->attempt},
                                      pending->outcome));
            }
            pending.reset();
            break;
          }
          case MsgType::kShutdown:
            decode_shutdown(payload, conn.peer());
            return stats;
          case MsgType::kAssign: {
            const AssignMsg a = decode_assign(payload, conn.peer());
            if (session == nullptr || a.session != session->id) {
              break;  // stale
            }
            Session& s = *session;
            if (s.opts.faults != nullptr &&
                s.opts.faults->worker_killed(a.shard, a.attempt)) {
              // Simulated process death mid-shard: vanish without a Result.
              ++stats.kills_simulated;
              conn.abort();
              if (!cfg.reconnect_after_kill) return stats;  // stay dead
              restart_fresh = true;
              break;
            }
            inflight_shard = a.shard;
            try {
              // Record this shard's spans under the propagated trace
              // context so the coordinator's merged Chrome trace shows one
              // trace_id across every process (docs/OBSERVABILITY.md).
              const bool tracing = obs::enabled() && a.trace_id != 0;
              if (tracing) obs::set_trace_context(a.trace_id, a.parent_span);
              const std::uint64_t shard_t0 = obs::session_now_ns();
              core::ShardEngine engine(s.predictor, s.trace, s.opts, s.plan);
              for (std::size_t p = a.part_lo; p < a.part_hi; ++p) {
                const Clock::time_point t0 = Clock::now();
                {
                  MLSIM_TRACE_SPAN("worker/partition");
                  engine.run_partition(p);
                }
                telemetry.busy_ns += static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count());
                net::send_frame(
                    conn, encode_heartbeat(telemetry.make(s.id, a.shard)));
              }
              std::vector<obs::SpanRecord> spans;
              if (tracing) {
                obs::record_complete_event("worker/shard", shard_t0,
                                           obs::session_now_ns() - shard_t0,
                                           0);
                // Only spans from this assignment window: an in-process
                // worker shares the ring with its host, and a long-lived
                // process accumulates spans across shards.
                spans = obs::snapshot_spans();
                std::erase_if(spans, [shard_t0](const obs::SpanRecord& sp) {
                  return sp.ts_ns < shard_t0;
                });
              }
              // Stash the outcome before sending: if the send (or the
              // connection right after it) fails, the rejoin path
              // re-delivers instead of recomputing.
              pending = PendingResult{s.fingerprint, a.shard, a.attempt,
                                      engine.block_outcome(a.part_lo,
                                                           a.part_hi)};
              net::send_frame(
                  conn, encode_result({s.id, a.shard, a.attempt},
                                      pending->outcome,
                                      tracing ? a.trace_id : 0, spans));
              pending.reset();
              inflight_shard = kIdleShard;
              ++stats.shards_computed;
              if (cfg.leave_after_shards > 0 &&
                  stats.shards_computed >= cfg.leave_after_shards) {
                // Planned departure: the Result above already drained, so
                // leave idle — the coordinator marks us departed, not lost.
                net::send_frame(conn, encode_goodbye({s.id, kIdleShard}));
                return stats;
              }
            } catch (const CheckError& e) {
              // Deterministic content failure: rerunning the shard
              // anywhere reproduces it, so the coordinator must fail the
              // run.
              inflight_shard = kIdleShard;
              net::send_frame(
                  conn,
                  encode_worker_error({s.id, a.shard, /*kind=*/1, e.what()}));
            }
            break;
          }
          default:
            throw CheckError("unexpected message from coordinator " +
                             conn.peer());
        }
        if (restart_fresh) break;
      }
      // Simulated kill with reconnect: come back as a brand-new worker —
      // the supervisor-restart model the kill tests rely on.
      token = 0;
      last_session = 0;
      inflight_shard = kIdleShard;
      pending.reset();
      fresh_hello = true;
    } catch (const IoError&) {
      // Transport loss. Without a session there is nothing to re-attach —
      // propagate (this also passes through the typed budget-exhaustion
      // error from connect_with_retry, which throws outside this block).
      if (token == 0) throw;
      // The run may be over: a Shutdown that arrived before the connection
      // broke ends the worker instead of a reconnect loop against a
      // coordinator that is gone, which would last the whole budget.
      if (shutdown_unread(conn)) return stats;
    }
  }
}

}  // namespace mlsim::dist
