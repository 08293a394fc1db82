// Fig. 6 — parallel simulation error (no recovery) vs. number of
// sub-traces, for all 17 test benchmarks.
//
// Paper: 10M instructions with 32k/64k/96k/128k sub-traces (errors up to
// ~40%, minimum ~22% at 128k). Default here: 1M instructions with the
// sub-trace counts scaled to preserve the per-partition lengths
// (~305/156/104/78 instructions); scale up with --instructions.
#include "bench_util.h"
#include "core/analytic_predictor.h"
#include "core/parallel_sim.h"

using namespace mlsim;

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv, 1'000'000);
  const std::size_t ctx = 64;
  // Per-partition lengths matching the paper's 10M / {32k,64k,96k,128k}.
  const std::size_t part_lens[] = {305, 156, 104, 78};

  bench::banner("Fig. 6: parallel simulation error vs #sub-traces (no recovery)",
                std::to_string(args.instructions) +
                    " instructions/benchmark, context 64, error vs sequential ML "
                    "simulation (paper definition)");

  Table t({"benchmark", "32k-equiv %", "64k-equiv %", "96k-equiv %",
           "128k-equiv %"});
  core::AnalyticPredictor pred;
  RunningStats per_col[4];
  for (const auto& abbr : bench::benchmarks_or(args, trace::test_benchmarks())) {
    const auto tr = core::labeled_trace(abbr, args.instructions);
    const double seq = bench::sequential_ml_cpi(pred, tr, ctx);
    std::vector<Table::Cell> row{abbr};
    for (int c = 0; c < 4; ++c) {
      core::ParallelSimOptions o;
      o.num_subtraces = std::max<std::size_t>(2, args.instructions / part_lens[c]);
      o.context_length = ctx;
      core::ParallelSimulator sim(pred, o);
      const double err = std::abs(
          core::ParallelSimulator::cpi_error_percent(seq, sim.run(tr).cpi()));
      per_col[c].add(err);
      row.emplace_back(err);
    }
    t.add_row(std::move(row));
  }
  t.add_row({std::string("AVG"), per_col[0].mean(), per_col[1].mean(),
             per_col[2].mean(), per_col[3].mean()});
  t.set_precision(2);
  bench::emit(t, "fig06_parallel_error");
  std::printf("paper shape: error grows with #sub-traces; up to ~40%% (exch), "
              ">=22%% at the 128k-equivalent point\n");
  return 0;
}
