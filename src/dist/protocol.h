// Message schema of the coordinator/worker cluster (docs/DISTRIBUTED.md).
//
// Every message is one RPC frame (net/frame.h) whose payload starts with a
// u32 message type followed by the Writer-serialized body. The shard
// lifecycle:
//
//   worker            coordinator
//   Hello       ->                   protocol handshake (or Rejoin)
//               <-  Welcome          session + run config + full trace
//               <-  Reject           (version mismatch: reason, then close)
//               <-  Assign           shard + partition range + attempt
//   Heartbeat   ->                   liveness while computing / idle
//   Result      ->                   the shard's ledger (core::put_outcome)
//   WorkerError ->                   typed failure (transport vs content)
//   Goodbye     ->                   planned departure: requeue my shard now
//               <-  Shutdown         run over, drain and exit
//
// Results are deterministic in (trace, options, shard) — never in which
// worker or attempt computed them — so the coordinator accepts the first
// Result per shard and drops duplicates and late deliveries idempotently.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/wire.h"
#include "core/shard.h"
#include "device/fault.h"
#include "obs/metric_names.h"
#include "obs/trace_event.h"
#include "trace/trace.h"

namespace mlsim::dist {

/// Protocol (message schema) version; distinct from wire::kWireVersion,
/// which covers only the envelope layout. The coordinator and its workers
/// ship from one build, so the handshake is an exact match: a Hello or
/// Rejoin carrying any other version is Rejected. Every message has one
/// layout, and its decoder reads every field and rejects trailing bytes.
inline constexpr std::uint32_t kProtocolVersion = 5;

enum class MsgType : std::uint32_t {
  kHello = 1,
  kWelcome = 2,
  kReject = 3,
  kAssign = 4,
  kResult = 5,
  kHeartbeat = 6,
  kShutdown = 7,
  kWorkerError = 8,
  kGoodbye = 9,
  kRejoin = 10,
};

/// The ParallelSimOptions subset that determines shard *contents* (integer
/// outcomes), shipped verbatim to every worker. The cost model is absent on
/// purpose: it only shapes the modeled wall-clock, which the coordinator
/// computes after the merge.
struct RunConfig {
  std::uint64_t num_subtraces = 0;
  std::uint64_t num_gpus = 0;
  std::uint64_t context_length = 0;
  std::uint64_t warmup = 0;
  std::uint8_t post_error_correction = 0;
  std::uint64_t correction_limit = 0;
  std::uint8_t record_predictions = 0;
  std::uint8_t record_context_counts = 0;
  std::uint32_t anomaly_latency_limit = 0;
  std::uint64_t max_retries_per_partition = 0;
  double retry_backoff_us = 0.0;
  std::uint8_t faults_enabled = 0;
  std::uint64_t fault_seed = 0;
  double device_kill_rate = 0.0;
  double straggler_rate = 0.0;
  double straggler_slowdown = 4.0;
  double output_corrupt_rate = 0.0;
  double worker_kill_rate = 0.0;

  static RunConfig from_options(const core::ParallelSimOptions& o);
  /// Reconstruct engine-affecting options. `faults` must outlive the result
  /// (pass nullptr when faults_enabled is 0).
  core::ParallelSimOptions to_options(
      const device::FaultInjector* faults) const;
  device::FaultOptions fault_options() const;
};

struct AssignMsg {
  std::uint64_t session = 0;
  std::uint64_t shard = 0;
  std::uint64_t part_lo = 0;
  std::uint64_t part_hi = 0;
  std::uint32_t attempt = 0;
  // Distributed trace context the worker records its spans under
  // (0 = none; see obs::set_trace_context).
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

struct ResultHeader {
  std::uint64_t session = 0;
  std::uint64_t shard = 0;
  std::uint32_t attempt = 0;
};

/// One worker-local counter delta piggybacked on a heartbeat; `id` indexes
/// kRollupCounters.
struct RollupDelta {
  std::uint32_t id = 0;
  std::uint64_t delta = 0;
};

struct HeartbeatMsg {
  std::uint64_t session = 0;
  /// Shard being computed, or kIdleShard between assignments.
  std::uint64_t shard = 0;
  // Fraction of wall time spent inside run_partition since the previous
  // heartbeat, in [0, 1]; negative = not reported. Folded into the
  // cluster.worker.busy_ratio gauge.
  double busy_ratio = -1.0;
  std::vector<RollupDelta> rollups;
};
inline constexpr std::uint64_t kIdleShard = ~0ull;

/// Worker-local counters shipped as heartbeat deltas and folded into the
/// coordinator's cluster-rollup metrics. The wire carries positional ids,
/// so the table order is part of the protocol — append only.
struct RollupCounter {
  const char* local;    // worker-side registry name
  const char* cluster;  // coordinator-side rollup name
};
inline constexpr RollupCounter kRollupCounters[] = {
    {obs::names::kParSimInstructions, obs::names::kClusterWorkerInstructions},
    {obs::names::kParSimPartitionsDone,
     obs::names::kClusterWorkerPartitionsDone},
    {obs::names::kParSimRetries, obs::names::kClusterWorkerRetries},
    {obs::names::kParSimAnomalies, obs::names::kClusterWorkerAnomalies},
    {obs::names::kParSimDegradedPartitions,
     obs::names::kClusterWorkerDegraded},
};
inline constexpr std::uint32_t kNumRollupCounters =
    sizeof(kRollupCounters) / sizeof(kRollupCounters[0]);

struct WorkerErrorMsg {
  std::uint64_t session = 0;
  std::uint64_t shard = 0;
  /// 0 = transport (IoError: retryable elsewhere), 1 = content (CheckError:
  /// deterministic, rerunning anywhere reproduces it — the run must fail).
  std::uint32_t kind = 0;
  std::string what;
};

/// Planned departure (drain, scale-down, supervisor restart). The
/// coordinator requeues the announced in-flight shard at once — no
/// heartbeat-timeout wait — and the connection closes after this frame.
struct GoodbyeMsg {
  std::uint64_t session = 0;
  /// Shard the worker abandons, or kIdleShard when it departs idle.
  std::uint64_t shard = 0;
};

/// The reconnect handshake. Sent *instead of* Hello by a worker that
/// already held a session: `token` proves it belonged to this run (the
/// token is derived from the run fingerprint, so it survives a coordinator
/// restart), `shard` names the assignment it still holds (kIdleShard when
/// none). A matching token re-admits the worker and re-dispatches its
/// in-flight shard immediately; a stale token demotes it to a fresh join.
struct RejoinMsg {
  std::uint32_t version = 0;
  std::uint64_t token = 0;
  /// Session id of the run the worker was attached to.
  std::uint64_t session = 0;
  /// In-flight shard at disconnect, or kIdleShard.
  std::uint64_t shard = kIdleShard;
};

/// First u32 of a payload. Throws CheckError on an empty/unknown payload.
MsgType peek_type(std::string_view payload, const std::string& context);

/// RunConfig body codec, shared by the Welcome message and the run journal
/// (dist/journal.*) so a journaled run-open replays with the exact wire
/// semantics of the handshake.
void put_run_config(wire::Writer& w, const RunConfig& c);
RunConfig get_run_config(wire::Reader& r);

// ---- encoders ---------------------------------------------------------------
std::string encode_hello(std::uint32_t version);
/// `token` is the session's rejoin token; 0 means "no rejoin".
std::string encode_welcome(std::uint64_t session, std::uint64_t fingerprint,
                           const RunConfig& cfg,
                           const trace::EncodedTrace& trace,
                           std::uint64_t token = 0);
std::string encode_rejoin(const RejoinMsg& m);
std::string encode_reject(const std::string& reason);
std::string encode_assign(const AssignMsg& m);
/// The outcome is followed by `trace_id` and the worker's span buffer.
std::string encode_result(const ResultHeader& h, const core::ShardOutcome& o,
                          std::uint64_t trace_id = 0,
                          const std::vector<obs::SpanRecord>& spans = {});
std::string encode_heartbeat(const HeartbeatMsg& m);
std::string encode_shutdown();
std::string encode_worker_error(const WorkerErrorMsg& m);
std::string encode_goodbye(const GoodbyeMsg& m);

// ---- decoders (payload includes the leading type word) ----------------------
std::uint32_t decode_hello(std::string_view payload,
                           const std::string& context);
struct WelcomeDecoded {
  std::uint64_t session = 0;
  std::uint64_t fingerprint = 0;
  RunConfig config;
  trace::EncodedTrace trace;
  // Session rejoin token; the coordinator never issues 0, so workers treat
  // it as "no rejoin".
  std::uint64_t token = 0;
};
WelcomeDecoded decode_welcome(std::string_view payload,
                              const std::string& context);
std::string decode_reject(std::string_view payload, const std::string& context);
AssignMsg decode_assign(std::string_view payload, const std::string& context);
struct ResultDecoded {
  ResultHeader header;
  core::ShardOutcome outcome;
  // Zero/empty when the worker was not tracing.
  std::uint64_t trace_id = 0;
  std::vector<obs::SpanRecord> spans;
};
ResultDecoded decode_result(std::string_view payload,
                            const std::string& context);
HeartbeatMsg decode_heartbeat(std::string_view payload,
                              const std::string& context);
void decode_shutdown(std::string_view payload, const std::string& context);
WorkerErrorMsg decode_worker_error(std::string_view payload,
                                   const std::string& context);
GoodbyeMsg decode_goodbye(std::string_view payload,
                          const std::string& context);
RejoinMsg decode_rejoin(std::string_view payload, const std::string& context);

}  // namespace mlsim::dist
