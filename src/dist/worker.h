// Worker side of the distributed cluster (docs/DISTRIBUTED.md).
//
// A worker is one process: it connects to the coordinator, handshakes
// (Hello → Welcome, which ships the run config and the full trace), then
// loops computing assigned shards with a fresh ShardEngine per assignment
// and streaming heartbeats between partitions. Shard computation uses the
// analytic predictor — the deterministic engine both sides share — so a
// shard's outcome bytes are identical no matter which worker (or the
// in-process engine) computes them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace mlsim::dist {

struct WorkerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Idle/progress heartbeat cadence.
  int heartbeat_ms = 200;
  /// After a simulated worker kill (FaultOptions::worker_kill_rate), rejoin
  /// the cluster as a fresh worker — models a supervisor restarting the
  /// process. When false the worker stays dead, as a real SIGKILL would.
  bool reconnect_after_kill = true;
  /// Connection attempts per (re)connect before giving up with a typed
  /// IoError. Attempt a sleeps min(10·2^a, 500) ms plus a deterministic
  /// jitter drawn from (port, attempt) — bounded exponential backoff that
  /// covers coordinator startup/restart races without a tight retry loop,
  /// reproducibly (no global RNG).
  int reconnect_budget = 10;
  /// Planned departure: after computing this many shards, announce Goodbye
  /// and leave — the coordinator requeues without waiting out the heartbeat
  /// timeout. 0 = stay until Shutdown (models scale-down / spot preemption
  /// with notice).
  std::size_t leave_after_shards = 0;
};

struct WorkerStats {
  std::size_t shards_computed = 0;
  std::size_t kills_simulated = 0;
  std::size_t sessions = 0;
  /// Rejoin handshakes sent after a transport loss mid-session.
  std::size_t rejoins = 0;
};

/// Run a worker until the coordinator shuts it down (or closes the
/// connection before any Welcome). A worker that loses its connection
/// mid-session instead reconnects with backoff and presents its session
/// token (Rejoin), re-delivering a finished Result or resuming its
/// assignment — including against a *restarted* coordinator resuming the
/// same run from its journal. Throws IoError when the coordinator is
/// unreachable or the reconnect budget runs out, and CheckError when it
/// Rejects the handshake (protocol version mismatch).
WorkerStats run_worker(const WorkerConfig& cfg);

}  // namespace mlsim::dist
