// Request/response types of the resilient simulation service
// (docs/SERVICE.md).
//
// A Request names a trace and the engine that runs it (parallel or
// sequential); the Response is a *typed* outcome: every accepted request
// resolves to exactly one ResponseStatus — never an uncaught exception,
// never a silently dropped future. Rejections (admission control) resolve
// immediately; accepted requests resolve when a worker finishes, the
// deadline fires, or the watchdog gives up on them.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "device/fault.h"
#include "trace/trace.h"

namespace mlsim::service {

/// Scheduling class. High drains first; Low is shed first under overload.
enum class Priority : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr std::size_t kNumPriorities = 3;

/// Which simulation engine serves the request.
enum class EngineKind : std::uint8_t {
  kParallel,    // partitioned multi-GPU engine (default; fault-tolerant)
  kSequential,  // reference baseline
};

struct Request {
  // ---- workload ------------------------------------------------------------
  /// Trace to simulate. Must outlive the request's resolution; the service
  /// never copies it.
  const trace::EncodedTrace* trace = nullptr;

  // ---- scheduling ----------------------------------------------------------
  Priority priority = Priority::kNormal;
  /// Tenant the request is accounted to. Empty = the anonymous tenant.
  /// With ServiceOptions::tenant_quota set, each tenant's outstanding
  /// (queued + running) requests are bounded, and the queue drains
  /// fair-share across tenants within a priority (docs/SERVICE.md).
  std::string tenant;
  /// Budget from submission to completion; 0 = none, and so is a budget
  /// beyond the steady clock's range. A request that is already past its
  /// deadline when a worker picks it up is failed without burning any
  /// simulation work.
  std::chrono::nanoseconds deadline{0};

  // ---- engine configuration ------------------------------------------------
  EngineKind engine = EngineKind::kParallel;
  std::size_t num_subtraces = 4;
  std::size_t num_gpus = 1;
  std::size_t context_length = 16;
  bool warmup = true;
  bool correction = true;

  // ---- chaos (tests and soak drivers) --------------------------------------
  /// Fault injector threaded into the parallel engine (device kills,
  /// corrupted outputs) and consulted by the worker for injected stalls: an
  /// attempt the injector marks as a straggler really stalls the worker
  /// without heartbeats, which is what the hang watchdog exists to catch.
  const device::FaultInjector* faults = nullptr;
  /// Real wall-clock stall of an injected-straggler attempt.
  std::chrono::milliseconds straggler_stall{0};
};

enum class ResponseStatus : std::uint8_t {
  kCompleted = 0,
  // Admission control (resolved at submit()).
  kRejectedQueueFull,  // bounded queue at capacity
  kRejectedOverload,   // too many outstanding requests service-wide
  kRejectedShedding,   // low-priority load shed under pressure
  kRejectedQuota,      // tenant over its outstanding-request quota
  // Accepted but not completed.
  kDeadlineExceeded,  // deadline fired before or during simulation
  kCancelled,         // caller cancelled or service shut down
  kWorkerHung,        // watchdog gave up after the hang-requeue budget
  kFailed,            // engine raised a typed error (message in `error`)
};

const char* to_string(ResponseStatus s);

inline bool is_rejection(ResponseStatus s) {
  return s == ResponseStatus::kRejectedQueueFull ||
         s == ResponseStatus::kRejectedOverload ||
         s == ResponseStatus::kRejectedShedding ||
         s == ResponseStatus::kRejectedQuota;
}

struct Response {
  std::uint64_t id = 0;
  ResponseStatus status = ResponseStatus::kFailed;

  // Simulation outcome (kCompleted only).
  std::uint64_t total_cycles = 0;
  std::size_t instructions = 0;
  double cpi = 0.0;
  /// Served (fully or partly) by the fallback predictor — breaker open, or
  /// the anomaly guard degraded a partition mid-run.
  bool degraded = false;

  /// Times the watchdog requeued this request after a detected hang.
  std::size_t hang_requeues = 0;
  /// Human-readable detail for non-completed statuses.
  std::string error;

  bool ok() const { return status == ResponseStatus::kCompleted; }
};

}  // namespace mlsim::service
