// Design-space exploration without retraining (paper §VI-F, Table IV).
//
// Sweeps micro-architecture parameters whose effects are carried entirely by
// the input trace (cache sizes, associativity, branch predictor tables): for
// each point we only re-run the cheap trace generation and reuse the same
// predictor, exactly the paper's Fig. 21 workflow generalised to three
// hardware components.
//
// Usage: design_space_exploration [benchmark] [instructions]
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "core/metrics.h"
#include "core/simulator.h"

using namespace mlsim;

namespace {

double ml_cpi(core::MLSimulator& sim, const trace::EncodedTrace& tr) {
  return sim.simulate(tr).cpi();
}

double truth_cpi(const trace::EncodedTrace& tr) {
  return static_cast<double>(core::total_cycles_from_targets(tr)) /
         static_cast<double>(tr.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string abbr = "wrf";
  std::size_t n = 300000;
  flags::parse_or_exit(argc, argv, {{{"[benchmark]", &abbr, flags::Kind::kText},
                                     {"[instructions]", &n, flags::Kind::kPositive}}});
  std::printf("design-space exploration on %s, %zu instructions — the "
              "predictor is NEVER retrained, only the trace regenerates.\n\n",
              abbr.c_str(), n);

  core::MLSimulator sim;  // one predictor reused across all points

  // --- L2 cache size (Fig. 21) ----------------------------------------------
  {
    Table t({"L2 size", "ML CPI", "truth CPI"});
    for (const std::size_t kb : {256, 512, 1024, 2048, 4096}) {
      uarch::MachineConfig m;
      m.l2.size_bytes = static_cast<std::uint32_t>(kb * 1024);
      const auto tr = core::labeled_trace(abbr, n, m);
      t.add_row({std::to_string(kb) + "KB", ml_cpi(sim, tr), truth_cpi(tr)});
    }
    std::printf("L2 cache size sweep:\n");
    t.print(std::cout);
  }

  // --- L1D associativity ------------------------------------------------------
  {
    Table t({"L1D assoc", "ML CPI", "truth CPI"});
    for (const std::uint32_t assoc : {1u, 2u, 4u, 8u}) {
      uarch::MachineConfig m;
      m.l1d.assoc = assoc;
      const auto tr = core::labeled_trace(abbr, n, m);
      t.add_row({std::to_string(assoc) + "-way", ml_cpi(sim, tr), truth_cpi(tr)});
    }
    std::printf("L1D associativity sweep:\n");
    t.print(std::cout);
  }

  // --- Branch predictor table size --------------------------------------------
  {
    Table t({"BP tables", "ML CPI", "truth CPI"});
    for (const std::uint32_t bits : {10u, 12u, 14u}) {
      uarch::MachineConfig m;
      m.bp.choice_bits = bits;
      m.bp.direction_bits = bits;
      const auto tr = core::labeled_trace(abbr, n, m);
      t.add_row({std::to_string(1 << bits) + " entries", ml_cpi(sim, tr),
                 truth_cpi(tr)});
    }
    std::printf("bi-mode predictor size sweep:\n");
    t.print(std::cout);
  }

  // --- Branch predictor algorithm (Table IV) -----------------------------------
  {
    Table t({"BP algorithm", "ML CPI", "truth CPI"});
    const std::pair<uarch::BranchPredictorKind, const char*> kinds[] = {
        {uarch::BranchPredictorKind::kBiMode, "bi-mode"},
        {uarch::BranchPredictorKind::kGshare, "gshare"},
        {uarch::BranchPredictorKind::kLocal, "local"},
        {uarch::BranchPredictorKind::kBimodal, "bimodal"},
    };
    for (const auto& [kind, name] : kinds) {
      uarch::MachineConfig m;
      m.bp.kind = kind;
      const auto tr = core::labeled_trace(abbr, n, m);
      t.add_row({std::string(name), ml_cpi(sim, tr), truth_cpi(tr)});
    }
    std::printf("branch predictor algorithm sweep:\n");
    t.print(std::cout);
  }

  // --- Replacement policy (Table IV) -------------------------------------------
  {
    Table t({"L1D/L2 replacement", "ML CPI", "truth CPI"});
    const std::pair<uarch::ReplacementPolicy, const char*> policies[] = {
        {uarch::ReplacementPolicy::kLru, "LRU"},
        {uarch::ReplacementPolicy::kFifo, "FIFO"},
        {uarch::ReplacementPolicy::kRandom, "random"},
    };
    for (const auto& [policy, name] : policies) {
      uarch::MachineConfig m;
      m.l1d.replacement = policy;
      m.l2.replacement = policy;
      const auto tr = core::labeled_trace(abbr, n, m);
      t.add_row({std::string(name), ml_cpi(sim, tr), truth_cpi(tr)});
    }
    std::printf("replacement policy sweep:\n");
    t.print(std::cout);
  }

  // --- Next-line prefetching ----------------------------------------------------
  {
    Table t({"prefetcher", "ML CPI", "truth CPI"});
    for (const bool pf : {false, true}) {
      uarch::MachineConfig m;
      m.l1d.next_line_prefetch = pf;
      m.l2.next_line_prefetch = pf;
      const auto tr = core::labeled_trace(abbr, n, m);
      t.add_row({std::string(pf ? "tagged next-line" : "none"), ml_cpi(sim, tr),
                 truth_cpi(tr)});
    }
    std::printf("prefetcher sweep:\n");
    t.print(std::cout);
  }

  std::printf("each point cost one functional re-trace (paper: 1290 MIPS "
              "class) — no retraining, no cycle-level re-simulation needed "
              "for the ML columns.\n");
  return 0;
}
