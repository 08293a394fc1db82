// Design-space-exploration sweep engine (docs/SWEEPS.md).
//
// run_sweep() expands a SweepSpec into concrete machine points, regenerates
// only the labeled trace per point (the predictor is reused unchanged — the
// paper's Table IV observation), simulates each point through the exact same
// ParallelSimulator path as a standalone run, and reduces the results to a
// Pareto frontier over (modeled CPI, area proxy) plus a per-axis sensitivity
// table. Every point's CPI is bit-identical to running `mlsim_cli simulate`
// with that configuration.
//
// Execution is pluggable: by default points run in-process; when
// SweepOptions::remote is set they are fanned out through a
// service::RemoteBackend (the distributed coordinator), where one sweep
// point = one run fingerprint, so the coordinator's result cache memoizes
// repeated lattices.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "service/remote.h"
#include "sweep/lattice.h"
#include "uarch/config.h"

namespace mlsim::sweep {

struct SweepOptions {
  std::size_t num_subtraces = 4;
  std::size_t num_gpus = 1;
  std::size_t context_length = 64;
  /// Warmup + post-error correction (the paper's accuracy-recovery pair).
  bool recovery = true;
  std::uint64_t seed = 1;
  /// Reuse/persist per-point traces in the artifact cache.
  bool use_trace_cache = true;
  /// Baseline machine the axis settings are applied over.
  uarch::MachineConfig base;
  /// When set, each point executes via run_remote() instead of in-process.
  service::RemoteBackend* remote = nullptr;
  /// Cooperative cancellation, threaded into every point's simulation.
  const CancelToken* cancel = nullptr;
  /// Progress callback, invoked after each completed point (done, total).
  std::function<void(std::size_t, std::size_t)> progress;
};

struct SweepPointResult {
  SweepPoint point;
  double cpi = 0.0;        // modeled CPI — bit-identical to a standalone run
  double truth_cpi = 0.0;  // ground-truth CPI of the regenerated trace
  double area = 0.0;       // area_proxy(point.machine), kilo-cells
  std::uint64_t total_cycles = 0;
  std::size_t instructions = 0;
  bool on_frontier = false;
};

/// Mean CPI per value of one axis, marginalised over all other axes.
struct AxisSensitivity {
  std::string key;
  std::vector<std::string> values;
  std::vector<double> mean_cpi;  // parallel to `values`
  /// max(mean_cpi) - min(mean_cpi): how much this axis moves CPI.
  double span = 0.0;
};

struct SweepReport {
  std::vector<SweepPointResult> points;  // lattice (row-major) order
  /// Indices into `points` of the Pareto frontier (minimise CPI and area),
  /// sorted by ascending CPI.
  std::vector<std::size_t> frontier;
  std::vector<AxisSensitivity> sensitivity;  // spec axis order
  double elapsed_s = 0.0;
  double points_per_sec = 0.0;
};

/// Deterministic area/cost proxy in kilo-cells: cache capacity + tag/assoc
/// overhead + OoO window structures + issue crossbar + BTB. Not a physical
/// model — a fixed, monotone cost axis for Pareto ranking.
double area_proxy(const uarch::MachineConfig& m);

/// Fill `on_frontier`/`frontier`/`sensitivity` from `report.points`;
/// run_sweep() calls it once every point has run.
void rank_report(SweepReport& report, const SweepSpec& spec);

/// Expand, simulate, and rank the full lattice. Throws CheckError on an
/// invalid spec and CancelledError when opts.cancel fires.
SweepReport run_sweep(const SweepSpec& spec, const SweepOptions& opts = {});

}  // namespace mlsim::sweep
