// Fig. 16 — cumulative effect of the data-movement optimisations on
// single-device simulation throughput. Paper (A100): 0.133 MIPS baseline ->
// 2.86 MIPS with GIC + SWIQ + CC + OI + PS (21.5x average). The toggles move
// only modeled cost, so the run exits 1 if any stack's simulated cycles
// differ from the baseline's.
#include <cstdio>

#include "bench_util.h"
#include "core/analytic_predictor.h"
#include "core/gpu_sim.h"

using namespace mlsim;

int main(int argc, char** argv) {
  const auto args = bench::Args::parse(argc, argv, 50000);
  const std::string abbr = args.benchmark.empty() ? "xz" : args.benchmark;
  bench::banner("Fig. 16: optimisation stack (single device)",
                "benchmark " + abbr + ", context 111, batch N=10");

  const auto tr = core::labeled_trace(abbr, args.instructions);
  core::AnalyticPredictor pred;

  struct Step {
    const char* name;
    bool gic, swiq, cc, ps;
    device::Engine engine;
    double paper_mips;
  };
  const Step steps[] = {
      {"baseline (CPU constr., LibTorch)", false, false, false, false,
       device::Engine::kLibTorch, 0.133},
      {"+ GPU input construction (GIC)", true, false, false, false,
       device::Engine::kLibTorch, -1},
      {"+ sliding-window queue (SWIQ)", true, true, false, false,
       device::Engine::kLibTorch, -1},
      {"+ custom convolution (CC)", true, true, true, false,
       device::Engine::kLibTorch, -1},
      {"+ optimised inference (OI)", true, true, true, false,
       device::Engine::kTensorRTSparse, -1},
      {"+ pipelined simulation (PS)", true, true, true, true,
       device::Engine::kTensorRTSparse, 2.86},
  };

  Table t({"configuration", "MIPS", "speedup vs baseline", "paper MIPS"});
  double base = 0;
  std::uint64_t base_cycles = 0;
  bool cycles_match = true;
  for (const auto& s : steps) {
    device::Device dev;
    core::GpuSimOptions o;
    o.context_length = core::kDefaultContextLength;
    o.gpu_input_construction = s.gic;
    o.sliding_window = s.swiq;
    o.custom_conv = s.cc;
    o.engine = s.engine;
    o.pipelined = s.ps;
    core::GpuSimulator sim(pred, dev, o);
    const core::SimOutput out = sim.run(tr);
    const double mips = out.mips();
    if (base == 0) {
      base = mips;
      base_cycles = out.cycles;
    }
    if (out.cycles != base_cycles) {
      std::fprintf(stderr, "%s: %llu cycles, baseline %llu\n", s.name,
                   static_cast<unsigned long long>(out.cycles),
                   static_cast<unsigned long long>(base_cycles));
      cycles_match = false;
    }
    t.add_row({std::string(s.name), mips, mips / base, s.paper_mips});
  }
  bench::emit(t, "fig16_opt_stack");
  std::printf("paper end-to-end: 0.133 -> 2.86 MIPS (21.5x)\n");
  return cycles_match ? 0 : 1;
}
