// Cycle-level out-of-order core timing model (the "gem5 class" ground truth).
//
// The model is timestamp-driven: each dynamic instruction is processed once
// and assigned fetch / dispatch / issue / complete / commit cycles subject to
// the structural constraints of Table II (fetch width, ROB/IQ/LQ/SQ
// occupancy, issue width, functional-unit contention, in-order commit) and
// to the dynamic events carried by its Annotation (cache level reached,
// TLB level, branch misprediction). This is the discrete-event style used by
// fast academic simulators; it is deterministic and orders of magnitude
// faster than a cycle-by-cycle loop while producing realistic latency
// distributions.
//
// Per instruction it emits the paper's three training targets:
//   fetch latency  — cycles between this fetch and the previous one,
//   execute latency — fetch to completion,
//   store latency  — completion to memory writeback (stores only).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "trace/annotation.h"
#include "trace/isa.h"
#include "uarch/config.h"

namespace mlsim::uarch {

/// Ground-truth latencies for one instruction (the ML model's targets).
struct InstTiming {
  std::uint32_t fetch_lat = 0;
  std::uint32_t exec_lat = 0;
  std::uint32_t store_lat = 0;
};

/// Where fetch-stall cycles went (one counter per binding constraint) —
/// the decomposition of CPI above the fetch-width floor.
struct StallBreakdown {
  std::uint64_t width = 0;       // fetch-width steady-state cycles
  std::uint64_t icache = 0;      // instruction cache / iTLB refills
  std::uint64_t redirect = 0;    // branch-misprediction redirects
  std::uint64_t rob = 0;         // reorder-buffer full
  std::uint64_t iq = 0;          // issue-queue full
  std::uint64_t lsq = 0;         // load/store queue full

  std::uint64_t total() const {
    return width + icache + redirect + rob + iq + lsq;
  }
};

class OooCore {
 public:
  explicit OooCore(const MachineConfig& cfg = {});

  /// Process the next instruction in program order.
  InstTiming process(const trace::DynInst& inst, const trace::Annotation& ann);

  /// Attribution of every fetch-latency cycle to its binding constraint.
  const StallBreakdown& stalls() const { return stalls_; }

  /// Current clock = fetch cycle of the most recent instruction.
  std::uint64_t clock() const { return last_fetch_time_; }

  std::uint64_t instructions() const { return idx_; }

  /// Cycles a data access spends beyond dispatch for a given level
  /// (exposed for the analytic predictor, which mirrors this model).
  static std::uint32_t data_latency(const MachineConfig& cfg, trace::HitLevel level);
  static std::uint32_t fetch_penalty(const MachineConfig& cfg, trace::HitLevel level);
  static std::uint32_t tlb_penalty(const MachineConfig& cfg, trace::TlbLevel level);
  static std::uint32_t exec_base_latency(const trace::DynInst& inst);

 private:
  MachineConfig cfg_;

  // Register scoreboard: cycle each architectural register becomes ready.
  std::array<std::uint64_t, trace::kNumArchRegs> reg_ready_{};

  // Ring buffers implementing window occupancy constraints.
  std::vector<std::uint64_t> commit_ring_;      // ROB: commit time per slot
  std::vector<std::uint64_t> issue_ring_;       // IQ: issue time per slot
  std::vector<std::uint64_t> load_ring_;        // LQ: completion per slot
  std::vector<std::uint64_t> store_ring_;       // SQ: writeback per slot
  std::uint64_t idx_ = 0, load_idx_ = 0, store_idx_ = 0;

  // Front end.
  std::uint64_t fetch_cycle_ = 0;
  std::uint32_t fetch_in_cycle_ = 0;
  bool first_fetch_ = true;
  std::uint64_t redirect_ready_ = 0;
  std::uint64_t icache_line_ = ~0ull;
  std::uint64_t icache_ready_ = 0;

  // Issue bandwidth ring (approximate ≤ issue_width per cycle).
  std::vector<std::uint64_t> issue_bw_ring_;

  // Functional units: next-free cycle per unit instance.
  std::array<std::vector<std::uint64_t>, static_cast<std::size_t>(trace::ExecUnit::kCount)>
      unit_free_;

  // Commit (in-order).
  std::uint64_t commit_cycle_ = 0;
  std::uint32_t commit_in_cycle_ = 0;

  std::uint64_t last_fetch_time_ = 0;
  std::uint64_t last_store_complete_ = 0;
  StallBreakdown stalls_;
};

}  // namespace mlsim::uarch
