// Per-request flight recorder (docs/OBSERVABILITY.md): a fixed-size
// lock-free ring of request lifecycle events, stamped only by the service
// and its batcher (src/service/; metric_lint_test keeps it so). When a
// request ends badly (rejected, deadline missed, breaker-bypassed, hung,
// failed) its id is also pushed onto a small error ring, and
// `last_errors_json(n)` reconstructs the full event sequence of the n most
// recent such requests — the post-mortem that `/healthz?last_errors=N`
// serves.
//
// Concurrency: writers claim a slot with one fetch_add and fill per-field
// atomics, publishing a stamp last (release); readers re-check the stamp
// around the field reads and skip slots that changed underneath them. No
// locks anywhere, so hooks are safe from any service/batcher/engine thread.
//
// Cost contract mirrors obs.h: compiled out entirely under
// MLSIM_OBS_DISABLE; with obs compiled in but runtime-disabled, record() is
// one relaxed atomic load and a branch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace mlsim::obs::flight {

/// Request lifecycle events, in rough temporal order.
enum class Event : std::uint32_t {
  kAdmitted = 0,        // passed admission control
  kQueued,              // enqueued (detail = priority)
  kPickedUp,            // claimed by a service worker thread
  kDeadlineArmed,       // cancel-on-deadline scheduled (detail = budget ms)
  kBatchFlushed,        // >=1 of its windows left in a batch (detail = size)
  kRetried,             // requeued after a hang was detected
  kBreakerBypassed,     // circuit breaker open: degraded fallback path
  kRejected,            // typed admission rejection (detail = status code)
  kDeadlineMissed,      // deadline exceeded
  kCancelled,           // cancelled by the caller or shutdown
  kHung,                // abandoned by the hang watchdog
  kFailed,              // engine failure
  kCompleted,           // success
};

constexpr const char* to_string(Event ev) {
  switch (ev) {
    case Event::kAdmitted: return "admitted";
    case Event::kQueued: return "queued";
    case Event::kPickedUp: return "picked_up";
    case Event::kDeadlineArmed: return "deadline_armed";
    case Event::kBatchFlushed: return "batch_flushed";
    case Event::kRetried: return "retried";
    case Event::kBreakerBypassed: return "breaker_bypassed";
    case Event::kRejected: return "rejected";
    case Event::kDeadlineMissed: return "deadline_missed";
    case Event::kCancelled: return "cancelled";
    case Event::kHung: return "hung";
    case Event::kFailed: return "failed";
    case Event::kCompleted: return "completed";
  }
  return "unknown";
}

/// True for the terminal events that also land the request on the error
/// ring (and hence in last_errors_json).
constexpr bool is_error(Event ev) {
  return ev == Event::kRejected || ev == Event::kDeadlineMissed ||
         ev == Event::kBreakerBypassed || ev == Event::kHung ||
         ev == Event::kFailed;
}

/// Lifecycle events the ring holds before the oldest are overwritten.
inline constexpr std::size_t kRingCapacity = 4096;
/// Distinct bad-outcome request ids remembered for post-mortems.
inline constexpr std::size_t kErrorRingCapacity = 64;

#ifdef MLSIM_OBS_DISABLE

inline void record(std::uint64_t, Event, std::uint64_t = 0) {}
inline std::uint64_t recorded() { return 0; }
inline std::string last_errors_json(std::size_t) { return "[]"; }
inline void reset() {}

#else

/// Stamp one lifecycle event for `request_id` (no-op while obs is
/// runtime-disabled). `detail` is event-specific (see Event).
void record(std::uint64_t request_id, Event ev, std::uint64_t detail = 0);

/// Total events recorded since the last reset (including overwritten ones).
std::uint64_t recorded();

/// JSON array of the n most recent bad-outcome requests, most recent first:
/// [{"id":7,"events":[{"ev":"admitted","t_ns":12,"detail":0},...]},...].
/// Events still present in the ring are listed in recording order.
std::string last_errors_json(std::size_t n);

/// Clear both rings (tests and fresh service runs).
void reset();

#endif  // MLSIM_OBS_DISABLE

}  // namespace mlsim::obs::flight
