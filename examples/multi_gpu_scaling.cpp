// Multi-GPU scaling walkthrough: partitions a single long benchmark trace
// across a modeled GPU cluster (paper §V / Fig. 17 workflow) and reports
// accuracy + throughput at each scale, including the accuracy-recovery
// configuration knobs.
//
// Usage: multi_gpu_scaling [benchmark] [instructions] [a100|v100]
#include <cstdio>
#include <iostream>
#include <string>

#include "common/flags.h"
#include "common/table.h"
#include "core/analytic_predictor.h"
#include "core/metrics.h"
#include "core/parallel_sim.h"
#include "core/simulator.h"

using namespace mlsim;

int main(int argc, char** argv) {
  std::string abbr = "mcf", gpu_kind = "v100";
  std::size_t n = 2'000'000;
  flags::parse_or_exit(argc, argv, {{{"[benchmark]", &abbr, flags::Kind::kText},
                                     {"[instructions]", &n, flags::Kind::kPositive},
                                     {"[a100|v100]", &gpu_kind, flags::Kind::kText}}});
  const device::GpuSpec gpu =
      gpu_kind == "a100" ? device::GpuSpec::a100() : device::GpuSpec::v100();

  std::printf("scaling %s (%zu instructions) across modeled %s GPUs\n\n",
              abbr.c_str(), n, gpu.name.c_str());
  const auto tr = core::labeled_trace(abbr, n);
  core::AnalyticPredictor pred;

  // Sequential ML reference for the parallel-error column.
  core::ParallelSimOptions seq_o;
  seq_o.num_subtraces = 1;
  seq_o.context_length = core::kDefaultContextLength;
  const double seq_cpi = core::ParallelSimulator(pred, seq_o).run(tr).cpi();

  Table t({"GPUs", "sub-traces", "MIPS (modeled)", "error vs seq ML %",
           "corrected insts"});
  for (const std::size_t gpus : {1, 2, 4, 8, 16, 32, 64, 128, 282}) {
    core::ParallelSimOptions o;
    o.num_gpus = gpus;
    o.num_subtraces = std::min<std::size_t>(32768 * gpus, n / 1024);
    o.num_subtraces = std::max(o.num_subtraces, gpus);
    o.context_length = core::kDefaultContextLength;
    o.warmup = o.context_length;
    o.post_error_correction = true;
    core::CostModel cm;
    cm.gpu = gpu;
    o.costs = cm;
    o.engine = gpu.sparse_speedup > 1.0 ? device::Engine::kTensorRTSparse
                                        : device::Engine::kTensorRTHalf;
    core::ParallelSimulator sim(pred, o);
    const auto res = sim.run(tr);
    t.add_row({static_cast<std::int64_t>(gpus),
               static_cast<std::int64_t>(o.num_subtraces), res.mips(),
               std::abs(core::ParallelSimulator::cpi_error_percent(seq_cpi,
                                                                   res.cpi())),
               static_cast<std::int64_t>(res.corrected_instructions)});
  }
  t.print(std::cout);
  std::printf("\nzero inter-GPU communication during simulation; the only "
              "exchange is the final per-partition Clock gather. Paper peak: "
              "553.68 MIPS on 282 V100s.\n");
  return 0;
}
