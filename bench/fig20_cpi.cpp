// Fig. 20 — CPI per benchmark: ML simulator vs. cycle-level ground truth
// (plus the interval / ZSim-class model for reference). Pass --cnn to use
// the trained CNN predictor instead of the analytic stand-in.
#include "bench_util.h"
#include "core/analytic_predictor.h"
#include "core/metrics.h"
#include "core/parallel_sim.h"
#include "uarch/interval_core.h"

using namespace mlsim;

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv, 300000);
  bench::banner("Fig. 20: CPI per benchmark (ML simulator vs cycle-level)",
                std::to_string(args.instructions) + " instructions" +
                    (args.use_cnn ? ", CNN predictor" : ", analytic predictor"));

  std::optional<core::CnnPredictor> cnn;
  core::AnalyticPredictor analytic;
  std::size_t ctx = 64;
  if (args.use_cnn) {
    cnn.emplace(bench::trained_bundle());
    ctx = cnn->config().window - 1;
  }
  core::LatencyPredictor& pred = args.use_cnn
                                     ? static_cast<core::LatencyPredictor&>(*cnn)
                                     : analytic;

  Table t({"benchmark", "ML CPI", "truth CPI", "error %"});
  RunningStats errs;
  for (const auto& abbr : bench::benchmarks_or(args, trace::test_benchmarks())) {
    const auto tr = core::labeled_trace(abbr, args.instructions);
    // The CNN is far slower per instruction: cap its run length.
    const std::size_t n =
        args.use_cnn ? std::min<std::size_t>(tr.size(), 4000) : tr.size();
    const auto sub = n == tr.size() ? tr : tr.slice(0, n);
    core::ParallelSimOptions o;
    o.num_subtraces = 1;
    o.context_length = ctx;
    core::ParallelSimulator sim(pred, o);
    const double ml = sim.run(sub).cpi();
    const double truth = static_cast<double>(core::total_cycles_from_targets(sub)) /
                         static_cast<double>(sub.size());
    const double err = std::abs(signed_percent_error(truth, ml));
    errs.add(err);
    t.add_row({abbr, ml, truth, err});
  }
  t.set_precision(3);
  bench::emit(t, "fig20_cpi");
  std::printf("average |CPI error|: %.2f%% (paper trained model: ~2%%, this "
              "repo's analytic stand-in: ~10-15%%)\n", errs.mean());
  return 0;
}
