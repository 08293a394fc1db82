// Coordinator side of the distributed cluster (docs/DISTRIBUTED.md).
//
// Single-threaded, poll-driven: one loop multiplexes the listener and every
// worker connection. Per run it computes the ShardPlan (identically to the
// in-process engine), Welcomes each worker with the run config + trace,
// dispatches shard descriptors, tracks heartbeats, reassigns shards whose
// worker dies or goes silent, drops duplicate/late results idempotently,
// absorbs the per-shard ledgers into one, and finalizes it with the same
// core::finalize the in-process engine ends in — so the distributed result
// is bit-identical to a single-process ParallelSimulator run over the same
// trace, options, and seed.
//
// The cluster is elastic (docs/DISTRIBUTED.md "Elasticity & churn"):
// workers join mid-run through the normal Hello/Welcome handshake and are
// put to work immediately, planned departures (Goodbye) requeue their shard
// without burning the heartbeat timeout, assigned shards can be stolen from
// slow workers or speculatively duplicated onto idle ones (first-result-
// wins dedup keeps the merge exact), and completed outcomes are memoized in
// a content-addressed result cache so repeated runs skip them entirely.
//
// The coordinator itself is crash-safe (docs/RESILIENCE.md "Crash-safe
// coordination"): with a run journal configured, every assignment and
// accepted result is fsynced before it takes effect, `resume` replays the
// journal into the result cache so a restarted coordinator never
// re-dispatches completed shards, workers re-attach through the Rejoin
// handshake, and a wake_fd byte (SIGTERM via net::SignalPipe) drains the run
// gracefully instead of tearing it down.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/shard.h"
#include "dist/journal.h"
#include "dist/result_cache.h"
#include "net/socket.h"
#include "service/remote.h"

namespace mlsim::dist {

struct CoordinatorOptions {
  /// Workers that must have joined before the first shard is dispatched.
  std::size_t min_workers = 1;
  /// An assigned worker silent for longer than this is presumed dead: its
  /// shard is reassigned and the worker is marked suspect until it speaks.
  int heartbeat_timeout_ms = 2000;
  /// Poll granularity of the event loop.
  int poll_ms = 50;
  /// Times a shard may be (re)assigned before the run fails with
  /// CheckError. Each assignment uses a fresh attempt number, so the
  /// deterministic worker-kill schedule re-draws per attempt. Steals and
  /// speculative duplicates draw from the same budget but skip (rather than
  /// fail) a shard whose budget is spent.
  std::size_t max_assign_attempts = 10;
  /// Wall-clock ceiling for one run; exceeded → IoError (the cluster is
  /// unavailable or wedged, not the simulation). 0 disables.
  int run_timeout_ms = 120000;
  /// Wait for a worker's Hello before giving up on the connection.
  int handshake_timeout_ms = 2000;

  // ---- elasticity (all off by default) --------------------------------------
  /// Work stealing: when a worker goes idle with nothing pending, an
  /// assigned shard whose owner has held it longer than steal_grace_factor ×
  /// the fleet's EWMA shard latency is rebalanced onto the idle worker. The
  /// old owner keeps computing; whichever Result lands first wins.
  bool steal = false;
  double steal_grace_factor = 2.0;
  /// Speculative straggler dispatch: > 0 duplicates an in-flight shard onto
  /// an idle worker once its age exceeds this percentile of the run's
  /// completed-shard latencies (e.g. 95 = p95). Needs a few completions
  /// before it can tell a straggler from normal pace.
  double speculate_pct = 0.0;
  /// Content-addressed shard-result cache capacity in entries (LRU);
  /// 0 disables. Keyed by (run fingerprint, shard descriptor), so repeated
  /// or retried runs of identical work dispatch nothing.
  std::size_t result_cache_entries = 0;

  // ---- crash-safe coordination (docs/RESILIENCE.md) -------------------------
  /// Write-ahead run journal path; empty disables journaling. Every
  /// run-open / assignment / accepted result / run-close is appended and
  /// fsynced, so a killed coordinator loses at most the record being
  /// written.
  std::filesystem::path journal_path;
  /// Replay `journal_path` at construction and feed the completed shards of
  /// its last run into the result cache: a rerun of the same work (same run
  /// fingerprint) never re-dispatches them.
  bool resume = false;
  /// Replay treats a corrupt/truncated journal tail as fatal (CheckError)
  /// instead of dropping it — mirrors the checkpoint strict mode.
  bool journal_strict = false;
  /// Readable fd the run loop polls alongside the sockets; one readable
  /// byte requests a graceful drain (see net::SignalPipe). -1 disables.
  int wake_fd = -1;
  /// Once a drain is requested, in-flight shards get this long to finish
  /// before the run closes anyway.
  int drain_timeout_ms = 5000;
};

struct CoordinatorStats {
  std::size_t workers_joined = 0;
  std::size_t workers_lost = 0;
  std::size_t workers_rejected = 0;
  /// Planned departures (Goodbye), not counted in workers_lost.
  std::size_t workers_departed = 0;
  std::size_t shards_dispatched = 0;
  std::size_t shards_completed = 0;
  std::size_t reassignments = 0;
  std::size_t duplicates_dropped = 0;
  std::size_t heartbeats = 0;
  /// Assigned shards rebalanced away from slow workers onto idle ones.
  std::size_t steals = 0;
  /// Straggling shards duplicated onto an idle worker.
  std::size_t speculations = 0;
  /// Result-cache accounting (cumulative across runs).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_evictions = 0;
  /// Rejoin handshakes accepted (token matched the current run).
  std::size_t workers_rejoined = 0;
  /// Completed shards rebuilt from the journal by `resume`.
  std::size_t journal_replayed = 0;
};

class DistCoordinator final : public service::RemoteBackend {
 public:
  explicit DistCoordinator(net::TcpListener listener,
                           CoordinatorOptions opts = {});
  ~DistCoordinator() override;
  DistCoordinator(const DistCoordinator&) = delete;
  DistCoordinator& operator=(const DistCoordinator&) = delete;

  std::uint16_t port() const { return listener_.port(); }
  /// Thread-safe snapshots for the telemetry thread: both read the copy the
  /// run loop publishes under health_mu_ each tick (never the live state the
  /// loop is mutating).
  std::size_t connected_workers() const;
  CoordinatorStats stats() const;

  /// Run one distributed simulation over the connected (and still-joining)
  /// workers. Throws CheckError when a shard's content deterministically
  /// fails or its assignment budget is exhausted, IoError when the cluster
  /// cannot finish the run.
  core::ParallelSimResult run(const trace::EncodedTrace& trace,
                              const core::ParallelSimOptions& opts);

  core::ParallelSimResult run_remote(
      const trace::EncodedTrace& trace,
      const core::ParallelSimOptions& opts) override {
    return run(trace, opts);
  }

  /// Send Shutdown to every connected worker and drop the connections.
  void shutdown_workers();

  /// True once a wake_fd byte requested a graceful drain. Run() then either
  /// finished cleanly (every shard done before the request took effect) or
  /// threw DrainError; either way the driver should exit with the drained
  /// code.
  bool drain_requested() const { return drain_requested_; }

  /// Thread-safe JSON snapshot of cluster state for the telemetry /healthz
  /// endpoint: session, shard progress, per-worker busy ratios, and run
  /// stats. Refreshed by the run loop each tick; `last_errors > 0` appends
  /// the flight-recorder post-mortems (docs/OBSERVABILITY.md).
  std::string cluster_json(std::size_t last_errors = 0) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Worker {
    net::TcpConn conn;
    bool dead = false;
    /// Heartbeat went stale: shard was reassigned, no new assignments until
    /// the worker speaks again.
    bool suspect = false;
    std::optional<std::size_t> shard;
    Clock::time_point last_heard;
    Clock::time_point assigned_at;
    std::size_t completed = 0;
    /// Stable join-order id: pid of the worker's spans in the merged Chrome
    /// trace (the coordinator itself is pid 1), and "id" in cluster_json.
    std::uint32_t uid = 0;
    /// Last reported busy/wall fraction; negative until the first heartbeat
    /// that reports one, which keeps the worker out of the mean-busy gauge.
    double busy_ratio = -1.0;
    /// EWMA of this worker's completed-shard latency (µs); < 0 until its
    /// first completion. The steal/speculation pace signal.
    double ewma_shard_us = -1.0;
  };

  enum class ShardState { kPending, kAssigned, kDone };
  struct Shard {
    ShardState state = ShardState::kPending;
    std::size_t attempts = 0;  // assignments so far; next attempt index
    Worker* owner = nullptr;
    /// Speculative duplicate's worker, when the shard was duplicated onto an
    /// idle worker; first Result (owner's or spec's) wins.
    Worker* spec = nullptr;
    core::ShardOutcome outcome;
  };

  struct RunState {
    const core::ShardPlan* plan = nullptr;
    std::uint64_t fingerprint = 0;
    std::vector<Shard> shards;
    std::size_t done = 0;
    /// Completed-shard latencies (µs) of this run: the speculation
    /// percentile's sample.
    std::vector<double> latencies_us;
  };

  /// The current run's Welcome payload and its frame header, computed once
  /// and sent as-is to every worker and joiner of the run.
  struct SealedWelcome {
    std::string header;
    std::string payload;
  };

  /// Admit pending connections: a Hello or Rejoin of kProtocolVersion gets
  /// `welcome`, any other version a Reject.
  void accept_joiners(const SealedWelcome& welcome, RunState& rs);
  void handle_frame(Worker& w, RunState& rs);
  void drop_worker(Worker& w, RunState& rs);
  /// Remove w from whichever side of its shard it holds: clears a spec slot,
  /// promotes a live spec when the owner leaves, requeues otherwise.
  void detach_worker_from_shard(Worker& w, RunState& rs);
  void reassign(std::size_t shard_idx, RunState& rs);
  /// Send one Assign for shard s to w (consumes one attempt). Returns false
  /// (after dropping w) when the send fails; the caller decides owner/spec.
  bool send_assign(Worker& w, std::size_t s, RunState& rs);
  void assign_pending(RunState& rs);
  /// Work stealing + speculative straggler dispatch over idle workers; runs
  /// only when nothing is pending (real work always takes precedence).
  void rebalance(RunState& rs);
  /// Mean expected shard latency (µs) over workers with a pace EWMA, each
  /// de-rated by its reported busy ratio; < 0 until any worker completed.
  double fleet_pace_us() const;
  void reap_dead_workers();
  /// Close the drained run: journal run-close, count abandoned shards,
  /// shut the workers down, and throw DrainError.
  [[noreturn]] void finish_drain(RunState& rs);
  /// Rebuild the cluster_json document and the stats/worker-count snapshots
  /// (rs may be null between runs).
  void refresh_health(const RunState* rs);
  void update_busy_gauge();

  net::TcpListener listener_;
  CoordinatorOptions opts_;
  CoordinatorStats stats_;
  ShardResultCache cache_;
  RunJournal journal_;
  /// Journal replay held from construction until the first run() consumes
  /// it (the fingerprint is only known once the run's trace arrives).
  std::optional<JournalReplay> resume_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::uint64_t session_ = 0;
  /// Rejoin token of the current run; derived from the run fingerprint,
  /// so a restarted coordinator resuming the same work issues the identical
  /// token and pre-restart workers can re-attach. 0 between runs.
  std::uint64_t session_token_ = 0;
  bool drain_requested_ = false;
  Clock::time_point drain_deadline_{};
  /// `lifecycle` field of cluster_json: starting|replaying|serving|draining.
  const char* lifecycle_ = "starting";
  std::uint32_t next_worker_uid_ = 1;
  /// Distributed trace id of the current run (0 between runs).
  std::uint64_t trace_id_ = 0;

  /// cluster_json, stats() and connected_workers() are served from the
  /// telemetry thread while run() mutates everything above, so the run loop
  /// publishes consistent snapshots under their own mutex.
  mutable std::mutex health_mu_;
  std::string health_json_ = "{\"status\":\"idle\"}";
  CoordinatorStats stats_snapshot_;
  std::size_t workers_snapshot_ = 0;
};

}  // namespace mlsim::dist
