// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every binary regenerates one table or figure from the paper's evaluation:
// it prints the same rows/series the paper reports (absolute values reflect
// this reproduction's substrates, shapes should match the paper — see
// EXPERIMENTS.md). Common flags:
//   --instructions=N   instructions per benchmark (default per-bench)
//   --benchmark=abbr   restrict to one Table I benchmark
//   --cnn              use the trained CNN predictor where supported
//                      (trains & caches a bundle on first use)
//   --metrics[=path]   enable the observability layer and dump the metrics
//                      registry at exit (text to stdout, or to `path` — JSON
//                      when it ends in .json): the machine-readable phase
//                      breakdown behind the figure being reproduced
//   --trace-out=file   record scoped spans; write Chrome trace JSON at exit
#pragma once

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/artifacts.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/simnet_trainer.h"
#include "core/simulator.h"

namespace mlsim::bench {

struct Args {
  std::size_t instructions = 0;  // 0 = bench default
  std::string benchmark;         // empty = bench default set
  bool use_cnn = false;

  /// Read the common flags; a usage error exits 2 and --help exits 0, each
  /// printing the synopsis. --metrics and --trace-out reports are written
  /// at exit, after the bench's own output.
  static Args parse(int argc, char** argv, std::size_t default_instructions);
};

inline std::vector<std::string> benchmarks_or(const Args& a,
                                              std::vector<std::string> def) {
  if (!a.benchmark.empty()) return {a.benchmark};
  return def;
}

/// Header line naming the experiment being reproduced.
inline void banner(const std::string& what, const std::string& notes = "") {
  std::cout << "== " << what << " ==\n";
  if (!notes.empty()) std::cout << notes << "\n";
}

/// Print a result table to stdout and, when the MLSIM_CSV_DIR environment
/// variable is set, also write it as <dir>/<name>.csv for plotting.
void emit(const Table& table, const std::string& name);

/// Trained SimNet bundle: loaded from the artifact cache, or trained on the
/// paper's 4 training benchmarks and cached. `window` sets the model's
/// context+1 (33 = practical default for this machine).
core::SimNetBundle trained_bundle(std::size_t window = 33,
                                  std::size_t train_instructions = 30000);

/// Sequential-reference CPI of the analytic ML simulator (the accuracy
/// baseline for parallel-error studies).
double sequential_ml_cpi(core::LatencyPredictor& pred,
                         const trace::EncodedTrace& tr, std::size_t ctx);

}  // namespace mlsim::bench
