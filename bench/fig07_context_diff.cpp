// Fig. 7 — instruction-wise context and prediction differences between the
// sequential and the 4-way-partitioned parallel simulation (xz, 25k
// instructions). The paper plots the per-instruction difference series; we
// print per-partition summaries plus samples around each boundary showing
// the error burst at partition heads and its decay.
#include "bench_util.h"
#include "core/analytic_predictor.h"
#include "core/error_analysis.h"
#include "core/parallel_sim.h"

using namespace mlsim;

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv, 25000);
  const std::string abbr = args.benchmark.empty() ? "xz" : args.benchmark;
  const std::size_t ctx = 64;
  const std::size_t parts = 4;
  bench::banner("Fig. 7: context / prediction difference with 4 sub-traces",
                "benchmark " + abbr + ", " + std::to_string(args.instructions) +
                    " instructions");

  const auto tr = core::labeled_trace(abbr, args.instructions);
  core::AnalyticPredictor pred;

  core::ParallelSimOptions seq_o;
  seq_o.num_subtraces = 1;
  seq_o.context_length = ctx;
  seq_o.record_predictions = true;
  seq_o.record_context_counts = true;
  const auto seq = core::ParallelSimulator(pred, seq_o).run(tr);

  core::ParallelSimOptions par_o = seq_o;
  par_o.num_subtraces = parts;
  const auto par = core::ParallelSimulator(pred, par_o).run(tr);

  Table t({"partition", "begin", "ctx-diff insts", "first ctx match", "pred-diff insts",
           "sum |pred diff| (cycles)"});
  const core::ParallelDiffReport report = core::diff_parallel_runs(seq, par);
  for (std::size_t p = 0; p < parts; ++p) {
    const core::PartitionDiff& d = report.partitions[p];
    t.add_row({static_cast<std::int64_t>(p), static_cast<std::int64_t>(d.begin),
               static_cast<std::int64_t>(d.context_diff_count),
               static_cast<std::int64_t>(d.first_context_match),
               static_cast<std::int64_t>(d.prediction_diff_count),
               static_cast<std::int64_t>(d.abs_prediction_diff)});
  }
  bench::emit(t, "fig07_context_diff");

  // Boundary close-ups: context counts for the first few instructions of
  // partitions 1..3 (sequential vs parallel).
  std::cout << "boundary close-up (seq-ctx/par-ctx for first 8 instructions):\n";
  for (std::size_t p = 1; p < parts; ++p) {
    const std::size_t b = par.boundaries[p];
    std::printf("  partition %zu:", p);
    for (std::size_t i = b; i < b + 8 && i < tr.size(); ++i) {
      std::printf(" %u/%u", seq.context_counts[i], par.context_counts[i]);
    }
    std::printf("\n");
  }
  std::printf("paper shape: context difference spikes at each boundary; "
              "prediction differences persist for some consecutive "
              "instructions, then trend down.\n");
  return 0;
}
