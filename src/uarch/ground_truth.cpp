#include "uarch/ground_truth.h"

#include <algorithm>

#include "common/check.h"

namespace mlsim::uarch {

using trace::Annotation;
using trace::DynInst;
using trace::HitLevel;
using trace::OpClass;

namespace {
constexpr std::size_t kStoreWindow = 16;  // matches SQ size
}

Annotator::Annotator(const MachineConfig& cfg)
    : cfg_(cfg),
      bp_(cfg.bp),
      l1i_(cfg.l1i, "l1i"),
      l1d_(cfg.l1d, "l1d"),
      l2_(cfg.l2, "l2"),
      itlb_(cfg.tlb),
      dtlb_(cfg.tlb),
      store_window_(kStoreWindow) {}

HitLevel Annotator::lookup(Cache& l1, std::uint64_t addr, bool is_write) {
  HitLevel level = HitLevel::kL1;
  l1.access(addr, now_, is_write, [&] {
    const CacheAccessResult r = l2_.access(
        addr, now_, now_ + cfg_.l2.latency + cfg_.memory_latency, false);
    level = r.hit ? HitLevel::kL2 : HitLevel::kMemory;
    return r.ready_cycle;
  });
  return level;
}

Annotation Annotator::annotate(const DynInst& inst) {
  Annotation ann;
  ++now_;

  ann.itlb_level = itlb_.access(inst.pc).level;
  ann.fetch_level = lookup(l1i_, inst.pc, false);

  if (trace::is_memory(inst.op)) {
    ann.dtlb_level = dtlb_.access(inst.mem_addr).level;
    const bool is_write = inst.op == OpClass::kStore;
    ann.data_level = lookup(l1d_, inst.mem_addr, is_write);

    if (inst.op == OpClass::kLoad) {
      // Store-to-load forwarding: newest overlapping store in the window.
      const std::uint64_t lo = inst.mem_addr;
      const std::uint64_t hi = lo + (1ull << inst.mem_size_log2);
      std::uint64_t best_dist = 0;
      for (const auto& s : store_window_) {
        if (s.size_log2 == 0 && s.addr == 0) continue;
        const std::uint64_t s_lo = s.addr;
        const std::uint64_t s_hi = s_lo + (1ull << s.size_log2);
        if (s_lo < hi && lo < s_hi) {
          const std::uint64_t dist = now_ - s.index;
          if (best_dist == 0 || dist < best_dist) best_dist = dist;
        }
      }
      ann.store_forward_dist =
          static_cast<std::uint8_t>(std::min<std::uint64_t>(best_dist, 63));
    } else {
      store_window_[store_head_] = {inst.mem_addr, now_, inst.mem_size_log2};
      store_head_ = (store_head_ + 1) % store_window_.size();
    }
  }

  if (inst.op == OpClass::kBranch) {
    const bool correct_dir = bp_.predict(inst.pc) == inst.is_taken;
    const bool btb_ok = !inst.is_taken || bp_.btb_hit(inst.pc);
    ann.branch_mispredicted = !(correct_dir && btb_ok);
    bp_.update(inst.pc, inst.is_taken);
    if (inst.is_taken) bp_.btb_insert(inst.pc, 0);
  } else if (inst.op == OpClass::kJump) {
    // Unconditional: redirect cost only on a BTB cold miss.
    ann.branch_mispredicted = !bp_.btb_hit(inst.pc);
    bp_.btb_insert(inst.pc, 0);
  }
  return ann;
}

double LabeledTrace::cpi() const {
  if (records.empty()) return 0.0;
  return static_cast<double>(total_cycles()) / static_cast<double>(records.size());
}

std::uint64_t LabeledTrace::total_cycles() const {
  std::uint64_t cycles = 0;
  for (const auto& r : records) cycles += r.timing.fetch_lat;
  if (!records.empty()) {
    // Drain: the last instruction still has to execute (and store).
    cycles += records.back().timing.exec_lat + records.back().timing.store_lat;
  }
  return cycles;
}

LabeledTraceStream::LabeledTraceStream(const trace::WorkloadProfile& profile,
                                       const MachineConfig& machine,
                                       std::uint64_t seed)
    : benchmark_(profile.abbr),
      program_(trace::Program::generate(profile, seed)),
      fsim_(program_, seed),
      annotator_(machine),
      core_(machine) {}

LabeledInst LabeledTraceStream::step() {
  LabeledInst r;
  r.inst = fsim_.next();
  r.ann = annotator_.annotate(r.inst);
  r.timing = core_.process(r.inst, r.ann);
  return r;
}

std::size_t LabeledTraceStream::fill(trace::EncodedTrace& out, std::size_t max_rows) {
  out.reserve(out.size() + max_rows);
  for (std::size_t i = 0; i < max_rows; ++i) {
    const LabeledInst r = step();
    out.append(encoder_.encode(r.inst, r.ann), r.timing.fetch_lat, r.timing.exec_lat,
               r.timing.store_lat);
  }
  return max_rows;
}

LabeledTrace generate_labeled_trace(const trace::WorkloadProfile& profile,
                                    std::size_t n, const MachineConfig& machine,
                                    std::uint64_t seed) {
  LabeledTrace out{profile.abbr, machine, {}};
  out.records.reserve(n);
  LabeledTraceStream stream(profile, machine, seed);
  for (std::size_t i = 0; i < n; ++i) out.records.push_back(stream.step());
  return out;
}

trace::EncodedTrace make_encoded_trace(const trace::WorkloadProfile& profile,
                                       std::size_t n, const MachineConfig& machine,
                                       std::uint64_t seed) {
  trace::EncodedTrace out(profile.abbr);
  LabeledTraceStream(profile, machine, seed).fill(out, n);
  return out;
}

}  // namespace mlsim::uarch
