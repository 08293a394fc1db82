// Service-level design-space-exploration sweeps (docs/SWEEPS.md).
//
// A SweepRequest is the wire-serializable form of a sweep: a config lattice
// plus the scheduling attributes of the simulation service — priority,
// tenant, and a per-point deadline. SimulationService::submit_sweep()
// expands the lattice and fans the points out as ordinary kParallel
// requests, so every admission-control, quota, batching, deadline, and
// remote-execution behavior of the service applies per point; rejected or
// failed points are counted per outcome instead of sinking the sweep.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/request.h"
#include "sweep/sweep.h"

namespace mlsim::service {

struct SweepRequest {
  sweep::SweepSpec spec;

  // Per-point engine configuration (mirrors sweep::SweepOptions).
  std::size_t num_subtraces = 4;
  std::size_t num_gpus = 1;
  std::size_t context_length = 64;
  bool recovery = true;
  std::uint64_t seed = 1;

  // Service scheduling, applied to every point request.
  Priority priority = Priority::kNormal;
  std::string tenant;
  /// Budget per point (not for the whole sweep); 0 = none. Must be
  /// non-negative and fit in nanoseconds (CheckError otherwise).
  std::chrono::milliseconds deadline{0};

  /// Sealed wire form (magic | version | checksum | size | payload) — what a
  /// remote client sends; decode() validates the envelope and every field.
  std::string encode() const;
  static SweepRequest decode(std::string_view enveloped);
};

/// Terminal outcome of one sweep: the ranked report over the points that
/// completed, plus typed counts for the ones that did not.
struct SweepOutcome {
  sweep::SweepReport report;
  std::size_t points_total = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;  // admission control (queue/overload/quota/shed)
  std::size_t failed = 0;    // deadline, cancellation, or engine error
  /// One "label: status detail" line per non-completed point.
  std::vector<std::string> errors;

  bool ok() const { return completed == points_total; }
};

}  // namespace mlsim::service
