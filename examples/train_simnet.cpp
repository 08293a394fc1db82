// Full SimNet training workflow (paper §II-C protocol):
//   - generate labeled traces for the 4 training benchmarks
//     ({perl, gcc, bwav, namd}),
//   - train the 3C+2F CNN against the cycle-level ground truth,
//   - evaluate end-to-end CPI error on the 17 test benchmarks,
//   - save the bundle for reuse by the benches (--cnn).
//
// Usage: train_simnet [train-instructions-per-benchmark] [window] [epochs]
// Defaults are sized for this machine (single core): 30000 x window 33.
// The paper-scale configuration is window 112 with 64 channels.
#include <cstdio>
#include <iostream>
#include <sstream>

#include "common/artifacts.h"
#include "common/flags.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/simnet_trainer.h"
#include "core/simulator.h"

using namespace mlsim;

int main(int argc, char** argv) {
  std::size_t n = 30000, window = 33, epochs = 3;
  flags::parse_or_exit(argc, argv,
                       {{{"[train-instructions-per-benchmark]", &n, flags::Kind::kPositive},
                         {"[window]", &window, flags::Kind::kPositive},
                         {"[epochs]", &epochs, flags::Kind::kPositive}}});

  std::printf("training 3C+2F SimNet: window %zu, %zu instructions/benchmark, "
              "%zu epochs\n", window, n, epochs);

  std::vector<trace::EncodedTrace> traces;
  for (const auto& abbr : trace::train_benchmarks()) {
    std::printf("  labeling %s...\n", abbr.c_str());
    traces.push_back(core::labeled_trace(abbr, n));
  }
  std::vector<const trace::EncodedTrace*> ptrs;
  for (const auto& t : traces) ptrs.push_back(&t);

  core::SimNetTrainConfig cfg;
  cfg.model.window = window;
  cfg.epochs = epochs;
  core::SimNetTrainReport report;
  core::SimNetBundle bundle = core::train_simnet(ptrs, cfg, &report);
  std::printf("final loss %.4f | holdout fetch MAPE %.1f%% | exec MAPE %.1f%% "
              "| %zu samples\n\n", static_cast<double>(report.final_loss),
              report.holdout_mape_fetch, report.holdout_mape_exec,
              report.samples);

  std::ostringstream name;
  name << "simnet_w" << window << "_n" << n << ".bundle";
  bundle.save(artifact_path(name.str()));
  std::printf("saved bundle to %s\n\n", artifact_path(name.str()).c_str());

  // End-to-end evaluation on the unseen benchmarks (closed-loop CPI error).
  core::CnnPredictor pred(std::move(bundle));
  Table t({"benchmark", "predicted CPI", "truth CPI", "CPI error %"});
  RunningStats errs;
  for (const auto& abbr : trace::test_benchmarks()) {
    const auto tr = core::labeled_trace(abbr, 3000);
    const auto eval = core::evaluate_simnet(pred, tr);
    errs.add(eval.cpi_error_percent);
    t.add_row({abbr, eval.predicted_cpi, eval.truth_cpi, eval.cpi_error_percent});
  }
  t.set_precision(2);
  t.print(std::cout);
  std::printf("average |CPI error| across 17 test benchmarks: %.2f%% (paper's "
              "full-scale model: ~2%%)\n", errs.mean());
  return 0;
}
