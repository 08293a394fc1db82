#include "uarch/ooo_core.h"

#include <algorithm>

#include "common/check.h"

namespace mlsim::uarch {

using trace::Annotation;
using trace::DynInst;
using trace::ExecUnit;
using trace::HitLevel;
using trace::OpClass;
using trace::TlbLevel;

namespace {
// Functional-unit instance counts per class on the 8-wide machine.
constexpr std::array<std::uint32_t, static_cast<std::size_t>(ExecUnit::kCount)>
    kUnitCounts = {4, 1, 2, 2, 1};  // ALU, MulDiv, FP, Mem, Branch
}  // namespace

OooCore::OooCore(const MachineConfig& cfg) : cfg_(cfg) {
  check(cfg.core.rob_entries > 0 && cfg.core.iq_entries > 0, "window sizes > 0");
  commit_ring_.assign(cfg.core.rob_entries, 0);
  issue_ring_.assign(cfg.core.iq_entries, 0);
  load_ring_.assign(cfg.core.lq_entries, 0);
  store_ring_.assign(cfg.core.sq_entries, 0);
  issue_bw_ring_.assign(cfg.core.issue_width, 0);
  for (std::size_t u = 0; u < kUnitCounts.size(); ++u) {
    unit_free_[u].assign(kUnitCounts[u], 0);
  }
}

std::uint32_t OooCore::data_latency(const MachineConfig& cfg, HitLevel level) {
  switch (level) {
    case HitLevel::kNone: return 0;
    case HitLevel::kL1: return cfg.l1d.latency;
    case HitLevel::kL2: return cfg.l1d.latency + cfg.l2.latency;
    case HitLevel::kMemory:
      return cfg.l1d.latency + cfg.l2.latency + cfg.memory_latency;
  }
  return 0;
}

std::uint32_t OooCore::fetch_penalty(const MachineConfig& cfg, HitLevel level) {
  switch (level) {
    case HitLevel::kNone:
    case HitLevel::kL1: return 0;  // L1I hit is pipelined into fetch
    case HitLevel::kL2: return cfg.l2.latency;
    case HitLevel::kMemory: return cfg.l2.latency + cfg.memory_latency;
  }
  return 0;
}

std::uint32_t OooCore::tlb_penalty(const MachineConfig& cfg, TlbLevel level) {
  switch (level) {
    case TlbLevel::kHit: return 0;
    case TlbLevel::kL2Tlb: return cfg.tlb.l2_latency;
    case TlbLevel::kWalk: return cfg.tlb.walk_latency;
  }
  return 0;
}

std::uint32_t OooCore::exec_base_latency(const DynInst& inst) {
  return trace::kBaseLatency[static_cast<std::size_t>(inst.op)];
}

InstTiming OooCore::process(const DynInst& inst, const Annotation& ann) {
  // ---- Fetch ---------------------------------------------------------------
  // Fetch advances to the max of several constraints; the winner is
  // recorded for stall attribution.
  std::uint64_t f = fetch_cycle_;
  enum class Why { kWidth, kRedirect, kRob, kIq, kLsq, kIcache };
  Why why = Why::kWidth;
  auto raise = [&](std::uint64_t t, Why w) {
    if (t > f) {
      f = t;
      why = w;
    }
  };
  raise(redirect_ready_, Why::kRedirect);

  // Back-pressure: a full ROB/IQ/LQ/SQ stalls the front end (finite fetch
  // buffer) — this is what makes memory-bound codes show high CPI.
  raise(commit_ring_[idx_ % commit_ring_.size()], Why::kRob);
  raise(issue_ring_[idx_ % issue_ring_.size()], Why::kIq);
  if (inst.op == OpClass::kLoad) {
    raise(load_ring_[load_idx_ % load_ring_.size()], Why::kLsq);
  } else if (inst.op == OpClass::kStore) {
    raise(store_ring_[store_idx_ % store_ring_.size()], Why::kLsq);
  }

  // Instruction cache: pay the miss penalty once per line transition.
  const std::uint64_t line = inst.pc / cfg_.l1i.line_bytes;
  if (line != icache_line_) {
    const std::uint64_t penalty =
        fetch_penalty(cfg_, ann.fetch_level) + tlb_penalty(cfg_, ann.itlb_level);
    icache_ready_ = f + penalty;
    icache_line_ = line;
  }
  raise(icache_ready_, Why::kIcache);

  // Fetch bandwidth: at most fetch_width instructions per cycle.
  if (first_fetch_ || f > fetch_cycle_) {
    fetch_cycle_ = f;
    fetch_in_cycle_ = 1;
    first_fetch_ = false;
  } else if (fetch_in_cycle_ >= cfg_.core.fetch_width) {
    ++fetch_cycle_;
    fetch_in_cycle_ = 1;
    f = fetch_cycle_;
  } else {
    f = fetch_cycle_;
    ++fetch_in_cycle_;
  }

  // ---- Dispatch (rename + window allocation) -------------------------------
  // Window occupancy was already enforced at fetch time (stalled front end),
  // so dispatch follows the fixed frontend pipeline.
  const std::uint64_t disp = f + cfg_.core.frontend_depth;

  // ---- Ready (data dependencies) -------------------------------------------
  std::uint64_t ready = disp;
  for (std::uint8_t k = 0; k < inst.n_src; ++k) {
    const std::uint8_t r = inst.src[k];
    if (r != 0) ready = std::max(ready, reg_ready_[r]);
  }
  // Memory dependence: a load that hits a recent in-flight store waits for
  // the store data (then forwards cheaply instead of accessing the cache).
  const bool forwarded = inst.op == OpClass::kLoad && ann.store_forward_dist > 0;
  if (forwarded) ready = std::max(ready, last_store_complete_);

  // ---- Issue ---------------------------------------------------------------
  // Bandwidth: ≤ issue_width per cycle (ring approximation), plus a free
  // functional unit of the right class.
  std::uint64_t issue = std::max(ready, issue_bw_ring_[idx_ % issue_bw_ring_.size()]);
  auto& units = unit_free_[static_cast<std::size_t>(trace::exec_unit_for(inst.op))];
  auto best = std::min_element(units.begin(), units.end());
  issue = std::max(issue, *best);

  // ---- Execute -------------------------------------------------------------
  std::uint32_t lat = exec_base_latency(inst);
  if (inst.op == OpClass::kLoad) {
    lat += tlb_penalty(cfg_, ann.dtlb_level);
    lat += forwarded ? 2 : data_latency(cfg_, ann.data_level);
  } else if (inst.op == OpClass::kStore) {
    // Address generation + dTLB; data is written at commit (store_lat).
    lat += tlb_penalty(cfg_, ann.dtlb_level);
  }
  const std::uint64_t complete = issue + lat;

  // Unit occupancy: divides are unpipelined and hold the unit.
  *best = trace::is_serializing(inst.op) ? complete : issue + 1;
  issue_bw_ring_[idx_ % issue_bw_ring_.size()] = issue + 1;
  issue_ring_[idx_ % issue_ring_.size()] = issue;

  for (std::uint8_t k = 0; k < inst.n_dst; ++k) {
    const std::uint8_t r = inst.dst[k];
    if (r != 0) reg_ready_[r] = complete;
  }

  // Branch misprediction: the front end refills after the branch resolves.
  if (trace::is_control(inst.op) && ann.branch_mispredicted) {
    redirect_ready_ =
        std::max(redirect_ready_, complete + cfg_.bp.mispredict_penalty);
  }

  // ---- Commit (in order, ≤ commit_width per cycle) --------------------------
  std::uint64_t commit = std::max(complete + 1, static_cast<std::uint64_t>(0));
  if (commit > commit_cycle_) {
    commit_cycle_ = commit;
    commit_in_cycle_ = 1;
  } else if (commit_in_cycle_ >= cfg_.core.commit_width) {
    ++commit_cycle_;
    commit_in_cycle_ = 1;
  } else {
    ++commit_in_cycle_;
  }
  commit = commit_cycle_;
  commit_ring_[idx_ % commit_ring_.size()] = commit;

  // ---- Store writeback -------------------------------------------------------
  std::uint64_t store_done = complete;
  if (inst.op == OpClass::kStore) {
    store_done = commit + data_latency(cfg_, ann.data_level);
    store_ring_[store_idx_ % store_ring_.size()] = store_done;
    ++store_idx_;
    last_store_complete_ = store_done;
  } else if (inst.op == OpClass::kLoad) {
    load_ring_[load_idx_ % load_ring_.size()] = complete;
    ++load_idx_;
  }

  InstTiming t;
  t.fetch_lat = static_cast<std::uint32_t>(idx_ == 0 ? 0 : f - last_fetch_time_);
  switch (why) {
    case Why::kWidth: stalls_.width += t.fetch_lat; break;
    case Why::kRedirect: stalls_.redirect += t.fetch_lat; break;
    case Why::kRob: stalls_.rob += t.fetch_lat; break;
    case Why::kIq: stalls_.iq += t.fetch_lat; break;
    case Why::kLsq: stalls_.lsq += t.fetch_lat; break;
    case Why::kIcache: stalls_.icache += t.fetch_lat; break;
  }
  t.exec_lat = static_cast<std::uint32_t>(complete - f);
  t.store_lat = static_cast<std::uint32_t>(store_done - complete);
  last_fetch_time_ = f;
  ++idx_;
  return t;
}

}  // namespace mlsim::uarch
