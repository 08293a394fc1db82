// Quickstart: the smallest useful tour of the public API.
//
//   1. Generate a labeled trace for a Table I benchmark (functional sim ->
//      annotation -> cycle-level ground truth -> feature encoding).
//   2. Simulate it with the optimised single-device ML simulator.
//   3. Simulate it in parallel (sub-traces + warmup + correction).
//   4. Compare accuracy and (modeled) throughput.
//
// Usage: quickstart [benchmark-abbr] [instructions]   (default: xz 200000)
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "core/metrics.h"
#include "core/simulator.h"

int main(int argc, char** argv) {
  using namespace mlsim;
  std::string abbr = "xz";
  std::size_t n = 200000;
  flags::parse_or_exit(argc, argv, {{{"[benchmark-abbr]", &abbr, flags::Kind::kText},
                                     {"[instructions]", &n, flags::Kind::kPositive}}});

  std::printf("generating %zu instructions of %s (%s)...\n", n, abbr.c_str(),
              trace::find_workload(abbr).name.c_str());
  const trace::EncodedTrace tr = core::labeled_trace(abbr, n);

  core::MLSimulator sim;  // analytic predictor, A100 device model

  // Optimised single-device simulation (all §IV optimisations on).
  const core::SimOutput fast = sim.simulate(tr);
  std::printf("\nsingle device (GIC+SWIQ+CC+OI+PS):\n");
  std::printf("  CPI %.3f  |  error vs cycle-level truth %+.2f%%\n", fast.cpi(),
              sim.cpi_error_percent(tr, fast.cpi()));
  std::printf("  modeled throughput %.3f MIPS (per-instruction %.3f us)\n",
              fast.mips(), fast.sim_time_us / static_cast<double>(n));

  // Naive sequential baseline for contrast.
  const core::SimOutput slow = sim.simulate_sequential(tr);
  std::printf("\nsequential baseline (four redundant copies, LibTorch):\n");
  std::printf("  modeled throughput %.4f MIPS  ->  optimisations give %.1fx\n",
              slow.mips(), fast.mips() / slow.mips());

  // Parallel simulation with accuracy recovery.
  const std::size_t subtraces = std::max<std::size_t>(2, n / 400);
  const core::ParallelSimResult par =
      sim.simulate_parallel(tr, subtraces, /*num_gpus=*/8);
  std::printf("\nparallel (%zu sub-traces on 8 modeled GPUs, warmup + "
              "correction):\n", subtraces);
  std::printf("  CPI %.3f  |  error vs truth %+.2f%%  |  modeled %.1f MIPS\n",
              par.cpi(), sim.cpi_error_percent(tr, par.cpi()), par.mips());
  std::printf("  corrected %zu instructions; warmup work %zu instructions\n",
              par.corrected_instructions, par.warmup_instructions);

  const double truth_cpi =
      static_cast<double>(core::total_cycles_from_targets(tr)) /
      static_cast<double>(tr.size());
  std::printf("\nground-truth CPI (cycle-level OoO model): %.3f\n", truth_cpi);
  return 0;
}
