// Cooperative cancellation for long-running simulation loops.
//
// A CancelSource owns the shared cancellation state of one request; the
// CancelToken it hands out is polled from inside the engine loops
// (sequential_sim, gpu_sim, parallel_sim, streaming). `check()` doubles as a
// liveness heartbeat: every poll bumps a relaxed atomic counter that the
// service watchdog (src/service/service.h) samples to tell a slow worker
// from a hung one — a worker that stops polling stops heartbeating.
//
// Cost contract: a null token is free (pointer test); a live `check()` is one
// relaxed fetch_add plus a flag load, with the steady_clock deadline
// comparison amortised to every 64th poll. Engines may therefore poll once
// per simulated instruction.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace mlsim {

/// Why a request was cancelled. Ordering matters only for to_string().
enum class CancelReason : std::uint8_t {
  kNone = 0,
  kManual,    // caller asked (service cancel(), shutdown)
  kDeadline,  // per-request deadline expired
  kHang,      // watchdog declared the worker hung
};

const char* to_string(CancelReason reason);

/// Thrown by CancelToken::check() once the request is cancelled. Distinct
/// from CheckError (a bug) and IoError (the filesystem): cancellation is a
/// normal, expected outcome that drivers map to a typed response.
class CancelledError : public std::runtime_error {
 public:
  CancelledError(CancelReason reason, const std::string& what)
      : std::runtime_error(what), reason_(reason) {}
  CancelReason reason() const { return reason_; }

 private:
  CancelReason reason_;
};

namespace detail {
struct CancelState {
  std::atomic<std::uint8_t> reason{0};     // CancelReason; 0 = live
  std::atomic<std::uint64_t> heartbeat{0};  // bumped by every token poll
  // Deadline is fixed before tokens are handed to a worker, so plain
  // (non-atomic) storage read-only thereafter is race-free.
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
};
}  // namespace detail

/// Poll handle threaded through engine loops. Copyable; a default-constructed
/// token is null and never reports cancellation.
class CancelToken {
 public:
  CancelToken() = default;

  bool valid() const { return state_ != nullptr; }

  /// True once the request is cancelled (also latches an expired deadline).
  bool cancelled() const;

  CancelReason reason() const {
    return state_ == nullptr
               ? CancelReason::kNone
               : static_cast<CancelReason>(
                     state_->reason.load(std::memory_order_acquire));
  }

  /// Heartbeat + cancellation poll: throws CancelledError when cancelled.
  /// The deadline is evaluated on every 64th poll (and on the first).
  void check() const;

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<detail::CancelState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::CancelState> state_;
};

/// Owner side: cancels, sets the deadline, and reads the heartbeat.
class CancelSource {
 public:
  CancelSource() : state_(std::make_shared<detail::CancelState>()) {}

  /// Set an absolute deadline `after` from now; one beyond the clock's
  /// range never expires. Must be called before the token is handed to
  /// another thread.
  void set_deadline_after(std::chrono::nanoseconds after) {
    using TimePoint = std::chrono::steady_clock::time_point;
    const TimePoint now = std::chrono::steady_clock::now();
    state_->deadline =
        after < TimePoint::max() - now ? now + after : TimePoint::max();
    state_->has_deadline = true;
  }

  /// First cancellation wins; later reasons are ignored.
  void cancel(CancelReason reason = CancelReason::kManual);

  bool cancelled() const {
    return state_->reason.load(std::memory_order_acquire) != 0;
  }
  CancelReason reason() const {
    return static_cast<CancelReason>(
        state_->reason.load(std::memory_order_acquire));
  }

  /// Number of token polls so far — the watchdog's liveness signal.
  std::uint64_t heartbeat() const {
    return state_->heartbeat.load(std::memory_order_relaxed);
  }

  CancelToken token() const { return CancelToken(state_); }

 private:
  std::shared_ptr<detail::CancelState> state_;
};

}  // namespace mlsim
