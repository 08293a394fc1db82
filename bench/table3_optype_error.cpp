// Table III — prediction error by operation type. Paper: ALU instructions
// 1.175%, memory instructions 2.96% (memory ops see more complex hardware:
// caches, queues). Pass --cnn for the trained CNN predictor.
#include "bench_util.h"
#include "core/analytic_predictor.h"
#include "core/metrics.h"
#include "core/parallel_sim.h"

using namespace mlsim;

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv, 200000);
  bench::banner("Table III: prediction error by operation type",
                std::string(args.use_cnn ? "CNN" : "analytic") +
                    " predictor, execute-latency MAPE (+1 smoothed), all test "
                    "benchmarks");

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

  double alu_acc = 0, mem_acc = 0, alu_abs = 0, mem_abs = 0;
  std::size_t alu_n = 0, mem_n = 0;
  for (const auto& abbr : bench::benchmarks_or(args, trace::test_benchmarks())) {
    auto tr = core::labeled_trace(abbr, args.instructions);
    const std::size_t n =
        args.use_cnn ? std::min<std::size_t>(tr.size(), 3000) : tr.size();
    const auto sub = n == tr.size() ? tr : tr.slice(0, n);
    core::ParallelSimOptions o;
    o.num_subtraces = 1;
    o.context_length = ctx;
    o.record_predictions = true;
    core::ParallelSimulator sim(pred, o);
    const auto res = sim.run(sub);
    const auto e = core::optype_error(sub, res.predictions);
    alu_acc += e.alu_percent * static_cast<double>(e.alu_count);
    mem_acc += e.memory_percent * static_cast<double>(e.memory_count);
    alu_abs += e.alu_mae_cycles * static_cast<double>(e.alu_count);
    mem_abs += e.memory_mae_cycles * static_cast<double>(e.memory_count);
    alu_n += e.alu_count;
    mem_n += e.memory_count;
  }

  Table t({"operation type", "relative error %", "abs error (cycles)",
           "paper %"});
  t.add_row({std::string("ALU instructions"),
             alu_n ? alu_acc / static_cast<double>(alu_n) : 0.0,
             alu_n ? alu_abs / static_cast<double>(alu_n) : 0.0, 1.175});
  t.add_row({std::string("memory instructions"),
             mem_n ? mem_acc / static_cast<double>(mem_n) : 0.0,
             mem_n ? mem_abs / static_cast<double>(mem_n) : 0.0, 2.96});
  bench::emit(t, "table3_optype_error");
  std::printf(
      "paper's ordering (memory errs more: caches/queues in play) holds in "
      "absolute cycles; in +1-smoothed relative terms this repo's predictor "
      "inverts it because ALU latencies are small but dependency-chain "
      "dependent — see EXPERIMENTS.md.\n");
  return 0;
}
