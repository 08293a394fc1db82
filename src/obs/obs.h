// Observability front door: runtime enable flag, RAII tracing spans, and
// metric macros. See docs/OBSERVABILITY.md for the user guide.
//
// Cost contract:
//   - compiled out:   define MLSIM_OBS_DISABLE (CMake -DMLSIM_OBS_DISABLE=ON)
//                     and every macro below expands to a no-op — macro
//                     arguments are *not evaluated*;
//   - runtime off:    (the default) each call site costs one relaxed atomic
//                     load and a predictable branch;
//   - runtime on:     spans cost two steady_clock reads + one ring-buffer
//                     store; metric updates are single relaxed atomics.
//
// Span and metric names must be string literals (or otherwise outlive the
// process) — they are stored by pointer.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/metric_names.h"
#include "obs/registry.h"
#include "obs/trace_event.h"

namespace mlsim::obs {

#ifdef MLSIM_OBS_DISABLE
inline constexpr bool kCompiledIn = false;
constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
#else
inline constexpr bool kCompiledIn = true;
namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
/// Enable/disable recording globally. Enabling for the first time pins the
/// trace session clock; call `reset_trace()` for a fresh timeline.
void set_enabled(bool on);
#endif

/// RAII span: records a complete trace event over its lifetime. Use through
/// MLSIM_TRACE_SPAN rather than directly.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (!enabled()) return;  // single branch when observability is off
    name_ = name;
    start_ns_ = session_now_ns();
    depth_ = thread_span_depth()++;
  }
  ~ScopedSpan() {
    if (name_ == nullptr) return;
    --thread_span_depth();
    record_complete_event(name_, start_ns_, session_now_ns() - start_ns_, depth_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
};

/// RAII timer recording its lifetime (ns) into a histogram.
class ScopedHistTimer {
 public:
  explicit ScopedHistTimer(Histogram& h) {
    if (!enabled()) return;
    h_ = &h;
    start_ns_ = session_now_ns();
  }
  ~ScopedHistTimer() {
    if (h_ != nullptr) {
      h_->record(static_cast<double>(session_now_ns() - start_ns_));
    }
  }
  ScopedHistTimer(const ScopedHistTimer&) = delete;
  ScopedHistTimer& operator=(const ScopedHistTimer&) = delete;

 private:
  Histogram* h_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

}  // namespace mlsim::obs

#define MLSIM_OBS_CONCAT_(a, b) a##b
#define MLSIM_OBS_CONCAT(a, b) MLSIM_OBS_CONCAT_(a, b)

#ifndef MLSIM_OBS_DISABLE

/// Scoped span covering the rest of the enclosing block.
#define MLSIM_TRACE_SPAN(name) \
  ::mlsim::obs::ScopedSpan MLSIM_OBS_CONCAT(mlsim_obs_span_, __LINE__)(name)

// Metric macros cache the registry handle in a function-local static, so the
// per-call cost is the enabled() branch plus one relaxed atomic.
#define MLSIM_COUNTER_ADD(name, delta)                      \
  do {                                                      \
    if (::mlsim::obs::enabled()) {                          \
      static ::mlsim::obs::Counter& mlsim_obs_handle =      \
          ::mlsim::obs::default_registry().counter(name);   \
      mlsim_obs_handle.add(delta);                          \
    }                                                       \
  } while (0)

#define MLSIM_GAUGE_SET(name, value)                        \
  do {                                                      \
    if (::mlsim::obs::enabled()) {                          \
      static ::mlsim::obs::Gauge& mlsim_obs_handle =        \
          ::mlsim::obs::default_registry().gauge(name);     \
      mlsim_obs_handle.set(value);                          \
    }                                                       \
  } while (0)

#define MLSIM_HIST_RECORD(name, value)                      \
  do {                                                      \
    if (::mlsim::obs::enabled()) {                          \
      static ::mlsim::obs::Histogram& mlsim_obs_handle =    \
          ::mlsim::obs::default_registry().histogram(name); \
      mlsim_obs_handle.record(value);                       \
    }                                                       \
  } while (0)

/// Scoped timer recording the rest of the enclosing block into `name`.
#define MLSIM_HIST_TIMER(name)                                            \
  static ::mlsim::obs::Histogram& MLSIM_OBS_CONCAT(mlsim_obs_hist_,       \
                                                   __LINE__) =            \
      ::mlsim::obs::default_registry().histogram(name);                   \
  ::mlsim::obs::ScopedHistTimer MLSIM_OBS_CONCAT(mlsim_obs_timer_,        \
                                                 __LINE__)(               \
      MLSIM_OBS_CONCAT(mlsim_obs_hist_, __LINE__))

#else  // MLSIM_OBS_DISABLE: every call site compiles to nothing.

#define MLSIM_TRACE_SPAN(name) ((void)0)
#define MLSIM_COUNTER_ADD(name, delta) ((void)0)
#define MLSIM_GAUGE_SET(name, value) ((void)0)
#define MLSIM_HIST_RECORD(name, value) ((void)0)
#define MLSIM_HIST_TIMER(name) ((void)0)

#endif  // MLSIM_OBS_DISABLE
